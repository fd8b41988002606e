//! `lovm` — command-line runner for the sustainable-FL auction simulator.
//!
//! ```text
//! lovm list
//! lovm simulate --scenario standard --mechanism lovm --v 50 --seed 42
//! lovm stream   --scenario standard --mechanism lovm --v 50 --seed 42
//! lovm compare  --scenario small --seed 7
//! lovm csv      --scenario standard --mechanism lovm --v 20 > run.csv
//! lovm serve    --addr 127.0.0.1:0 --v 20 --budget 2
//! lovm drive    --addr 127.0.0.1:7878 --session m1 --from 0 --to 8
//! lovm follow   --addr 127.0.0.1:7878 --session m1 --serve-addr 127.0.0.1:0
//! lovm attack   --trace bids.csv --v 10 --budget 50 --k 8
//! ```
//!
//! `stream` runs the same marketplace through the event-driven ingestion
//! loop; `LOVM_DEADLINE`, `LOVM_LATE_POLICY`, and `LOVM_BUFFER` configure
//! it (the defaults reproduce `simulate` bit-exactly).
//!
//! `serve` starts the event-sourced TCP market server: every session is
//! journaled under `LOVM_JOURNAL` (default `lovm-journal/`), snapshotted
//! every `LOVM_SNAPSHOT_EVERY` sealed rounds, and survives `kill -9` by
//! replaying the journal bit-identically. `drive` is the matching
//! deterministic client: bids for round `r` are regenerated statelessly
//! from `(--seed, r)`, so a re-run after a server crash re-sends exactly
//! the bids the lost round had and the recovered market cannot diverge.
//! It prints the server's `sealed`/`state` lines verbatim on stdout
//! (handshake chatter goes to stderr), making crash-recovery runs
//! byte-diffable against uninterrupted ones.
//!
//! `follow` attaches a live replica to a serving leader: it copies the
//! session's committed journal bytes (a `bootstrap` of `bytes` bytes)
//! into its own `LOVM_JOURNAL` directory (which must differ from the
//! leader's), replays every streamed round through the same code path
//! the leader ran — verifying each journaled digest bitwise — installs
//! the fresh bootstrap the leader sends after each compaction, and, when
//! the leader's connection drops, promotes itself to a `serve` on
//! `--serve-addr` (without the flag it just exits). Journals are bounded
//! on disk by setting `LOVM_COMPACT`: every that-many sealed rounds the
//! prefix covered by the latest snapshot is compacted away.

use metrics::json::JsonValue;
use simrng::{derive_seed, rngs::StdRng, RngExt, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use sustainable_fl::core::offline::{competitive_ratio, offline_benchmark};
use sustainable_fl::core::serve::{
    self, compact_every_from_env, journal_dir_from_env, snapshot_every_from_env, MarketServer,
    ServeConfig,
};
use sustainable_fl::prelude::*;

#[derive(Clone)]
struct Args {
    command: String,
    scenario: String,
    mechanism: String,
    v: f64,
    seed: u64,
    price: f64,
    k: usize,
    budget: f64,
    addr: String,
    serve_addr: String,
    session: String,
    from: usize,
    to: usize,
    bidders: usize,
    partial: bool,
    trace: String,
    workload: String,
    rounds: usize,
    frames: usize,
    interval_ms: u64,
    file: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        scenario: "standard".into(),
        mechanism: "lovm".into(),
        v: 50.0,
        seed: 42,
        price: 1.2,
        k: 4,
        budget: 2.0,
        addr: "127.0.0.1:7878".into(),
        serve_addr: String::new(),
        session: "market".into(),
        from: 0,
        to: 8,
        bidders: 6,
        partial: false,
        trace: String::new(),
        workload: "steady".into(),
        rounds: 40,
        frames: 0,
        interval_ms: 1000,
        file: String::new(),
    };
    let mut it = std::env::args().skip(1);
    args.command = it.next().ok_or_else(usage)?;
    while let Some(flag) = it.next() {
        if flag == "--partial" {
            args.partial = true;
            continue;
        }
        let mut value = || it.next().ok_or(format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = value()?,
            "--mechanism" => args.mechanism = value()?,
            "--v" => args.v = value()?.parse().map_err(|e| format!("--v: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--price" => args.price = value()?.parse().map_err(|e| format!("--price: {e}"))?,
            "--k" => args.k = value()?.parse().map_err(|e| format!("--k: {e}"))?,
            "--budget" => args.budget = value()?.parse().map_err(|e| format!("--budget: {e}"))?,
            "--addr" => args.addr = value()?,
            "--serve-addr" => args.serve_addr = value()?,
            "--session" => args.session = value()?,
            "--from" => args.from = value()?.parse().map_err(|e| format!("--from: {e}"))?,
            "--to" => args.to = value()?.parse().map_err(|e| format!("--to: {e}"))?,
            "--bidders" => {
                args.bidders = value()?.parse().map_err(|e| format!("--bidders: {e}"))?
            }
            "--trace" => args.trace = value()?,
            "--workload" => args.workload = value()?,
            "--rounds" => args.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--frames" => args.frames = value()?.parse().map_err(|e| format!("--frames: {e}"))?,
            "--interval-ms" => {
                args.interval_ms = value()?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--file" => args.file = value()?,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn usage() -> String {
    "usage: lovm <list|simulate|stream|compare|csv|serve|drive|follow|attack|top|telemetry-check> \
     [--scenario NAME] \
     [--mechanism NAME] [--v V] [--seed SEED] [--price P] [--k K] [--budget RHO] \
     [--addr HOST:PORT] [--serve-addr HOST:PORT] [--session NAME] [--from R] [--to R] \
     [--bidders N] [--partial] [--trace FILE.csv] [--workload steady|late-rush] [--rounds R] \
     [--frames N] [--interval-ms MS] [--file PATH]\n\
     scenarios: small, standard, energy-heterogeneous, solar-fleet, large-<N>\n\
     mechanisms: lovm, myopic, greedy, proportional, fixed, random, all\n\
     top polls a serving market's `stats` command (--frames 0 = forever); \
     telemetry-check validates a LOVM_TELEMETRY record file"
        .into()
}

fn scenario_by_name(name: &str) -> Result<Scenario, String> {
    match name {
        "small" => Ok(Scenario::small()),
        "standard" => Ok(Scenario::standard()),
        "energy-heterogeneous" => Ok(Scenario::energy_heterogeneous()),
        "solar-fleet" => Ok(Scenario::solar_fleet()),
        other => {
            if let Some(n) = other.strip_prefix("large-") {
                let n: usize = n.parse().map_err(|e| format!("bad population: {e}"))?;
                Ok(Scenario::large(n))
            } else {
                Err(format!("unknown scenario `{other}`\n{}", usage()))
            }
        }
    }
}

fn mechanism_by_name(args: &Args, scenario: &Scenario) -> Result<Box<dyn Mechanism>, String> {
    let valuation = scenario.valuation;
    Ok(match args.mechanism.as_str() {
        "lovm" => Box::new(Lovm::new(LovmConfig::for_scenario(scenario, args.v))),
        "myopic" => Box::new(MyopicVcg::new(valuation, None)),
        "greedy" => Box::new(BudgetSplitGreedy::new(valuation, None)),
        "proportional" => Box::new(ProportionalShare::new(valuation)),
        "fixed" => Box::new(FixedPrice::new(args.price, valuation, None)),
        "random" => Box::new(RandomK::new(args.k, valuation, args.seed)),
        "all" => Box::new(AllAvailable::new(valuation)),
        other => return Err(format!("unknown mechanism `{other}`\n{}", usage())),
    })
}

fn summarize(result: &sustainable_fl::core::SimulationResult, scenario: &Scenario) {
    let oracle = offline_benchmark(
        &result.bids_per_round,
        &scenario.valuation,
        scenario.total_budget,
    );
    let welfare = result.ledger.social_welfare();
    println!("mechanism        : {}", result.mechanism);
    println!("scenario         : {}", result.scenario);
    println!("rounds           : {}", result.outcomes.len());
    println!("social welfare   : {welfare:.1}");
    println!("oracle welfare   : {:.1}", oracle.welfare);
    println!(
        "competitive ratio: {:.3}",
        competitive_ratio(welfare, &oracle)
    );
    println!(
        "spend / budget   : {:.1} / {:.1}",
        result.ledger.total_payment(),
        scenario.total_budget
    );
    println!("client utility   : {:.1}", result.ledger.client_utility());
    println!("platform utility : {:.1}", result.ledger.platform_utility());
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "list" => {
            println!("scenarios : small, standard, energy-heterogeneous, solar-fleet, large-<N>");
            println!("mechanisms: lovm, myopic, greedy, proportional, fixed, random, all");
            Ok(())
        }
        "simulate" => {
            let scenario = scenario_by_name(&args.scenario)?;
            let mut mech = mechanism_by_name(&args, &scenario)?;
            let result = simulate(mech.as_mut(), &scenario, args.seed);
            summarize(&result, &scenario);
            Ok(())
        }
        "csv" => {
            let scenario = scenario_by_name(&args.scenario)?;
            let mut mech = mechanism_by_name(&args, &scenario)?;
            let result = simulate(mech.as_mut(), &scenario, args.seed);
            print!("{}", result.series.to_csv());
            Ok(())
        }
        "stream" => {
            let scenario = scenario_by_name(&args.scenario)?;
            let mut mech = mechanism_by_name(&args, &scenario)?;
            let cfg = sustainable_fl::ingest::IngestConfig::from_env();
            let run = sustainable_fl::core::streaming::run_stream(
                mech.as_mut(),
                &scenario,
                args.seed,
                &cfg,
            );
            summarize(&run.result, &scenario);
            println!(
                "ingestion        : deadline {:.2}, policy {:?}, buffer {:?}x{}",
                cfg.deadline, cfg.late_policy, cfg.backpressure, cfg.capacity
            );
            println!(
                "arrivals {} / sealed {} (late {}) / deferred {} / dropped {} / shed {} / peak buffer {}",
                run.totals.arrivals,
                run.totals.sealed,
                run.totals.admitted_late,
                run.totals.deferred,
                run.totals.dropped,
                run.totals.shed,
                run.totals.buffer_peak
            );
            Ok(())
        }
        "compare" => {
            let scenario = scenario_by_name(&args.scenario)?;
            let names = [
                "lovm",
                "myopic",
                "greedy",
                "proportional",
                "fixed",
                "random",
            ];
            let mut table = metrics::Table::new(vec![
                "mechanism".into(),
                "welfare".into(),
                "ratio".into(),
                "spend".into(),
                "feasible".into(),
            ]);
            for name in names {
                let a = Args {
                    mechanism: name.into(),
                    ..args.clone()
                };
                let mut mech = mechanism_by_name(&a, &scenario)?;
                let result = simulate(mech.as_mut(), &scenario, args.seed);
                let oracle = offline_benchmark(
                    &result.bids_per_round,
                    &scenario.valuation,
                    scenario.total_budget,
                );
                let welfare = result.ledger.social_welfare();
                let spend = result.ledger.total_payment();
                table.row(vec![
                    result.mechanism.clone(),
                    format!("{welfare:.1}"),
                    format!("{:.3}", competitive_ratio(welfare, &oracle)),
                    format!("{spend:.1}"),
                    if spend <= scenario.total_budget * 1.05 {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ]);
            }
            println!("{}", table.to_markdown());
            Ok(())
        }
        "serve" => {
            ignore_file_size_limit_signal();
            run_server(serve_config(&args, &args.addr))
        }
        "drive" => drive(&args),
        "follow" => {
            ignore_file_size_limit_signal();
            follow(&args)
        }
        "attack" => attack(&args),
        "top" => top(&args),
        "telemetry-check" => telemetry_check(&args),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Runs the strategic-adversary catalog against a bid trace — recorded
/// (`--trace FILE.csv`, header `at,bidder,cost,data,quality`) or seeded
/// (`--workload`/`--bidders`/`--rounds`/`--seed`) — through the real
/// ingest → seal → VCG path, and prints the paired-counterfactual regret
/// table. Ingestion knobs come from the environment (`LOVM_DEADLINE`,
/// `LOVM_LATE_POLICY`, `LOVM_BUFFER`), the topology from `LOVM_SHARDS`.
/// Exits nonzero if any strategy's regret dips below −1e-9 — i.e. if a
/// deviation from truthful play *profited* on this trace. Note the
/// truthfulness theorem speaks when the budget rate is slack (the virtual
/// queue stays empty); a binding `--budget` can legitimately fail.
fn attack(args: &Args) -> Result<(), String> {
    use sustainable_fl::advsim::{
        catalog, gate, regret_table, run_cell, Cell, Trace, TraceWorkload,
    };

    let trace = if args.trace.is_empty() {
        let workload = match args.workload.as_str() {
            "steady" => TraceWorkload::Steady,
            "late-rush" => TraceWorkload::LateRush,
            other => return Err(format!("unknown workload `{other}` (steady, late-rush)")),
        };
        Trace::seeded(workload, args.bidders, args.rounds, args.seed)
    } else {
        let text = std::fs::read_to_string(&args.trace)
            .map_err(|e| format!("cannot read {}: {e}", args.trace))?;
        Trace::from_csv(&text).map_err(|e| format!("{}: {e}", args.trace))?
    };
    let ingest = sustainable_fl::ingest::IngestConfig::from_env();
    let lovm = lovm_config(args);
    let policy = format!(
        "{}@{}",
        match ingest.late_policy {
            sustainable_fl::ingest::LateBidPolicy::Drop => "drop".to_string(),
            sustainable_fl::ingest::LateBidPolicy::DeferToNext => "defer".to_string(),
            sustainable_fl::ingest::LateBidPolicy::GraceWindow { grace } =>
                format!("grace:{grace}"),
        },
        ingest.deadline
    );
    let source = if args.trace.is_empty() {
        format!(
            "seeded {} x {} bidders x {} rounds",
            args.workload, args.bidders, args.rounds
        )
    } else {
        args.trace.clone()
    };
    println!(
        "attack: trace {source}, seed {}, topology {}, policy {policy}, V {}, rho {}, k {}",
        args.seed,
        sustainable_fl::advsim::topology_label(lovm.topology),
        args.v,
        args.budget,
        args.k
    );
    let cell = Cell {
        workload: args.workload.clone(),
        policy,
        topology: lovm.topology,
        ingest,
    };
    let reports: Vec<_> = catalog()
        .iter()
        .map(|s| run_cell(&trace, s, &cell, lovm, args.seed, par::Pool::auto()))
        .collect();
    println!("{}", regret_table(&reports).to_markdown());
    match gate(&reports, 1e-9) {
        Ok(()) => {
            println!("gate: no strategy profited by deviating (all regret >= -1e-9)");
            Ok(())
        }
        Err(msg) => Err(msg),
    }
}

/// The mechanism the `--v`, `--budget` and `--k` flags select.
fn lovm_config(args: &Args) -> LovmConfig {
    LovmConfig {
        v: args.v,
        budget_per_round: args.budget,
        max_winners: Some(args.k),
        ..LovmConfig::default()
    }
}

/// The server configuration: flags for the mechanism, the environment
/// for the journal directory, cadences and ingest settings.
fn serve_config(args: &Args, addr: &str) -> ServeConfig {
    ServeConfig {
        addr: addr.into(),
        journal_dir: journal_dir_from_env(),
        snapshot_every: snapshot_every_from_env(),
        compact_every: compact_every_from_env(),
        lovm: lovm_config(args),
        ingest: sustainable_fl::ingest::IngestConfig::from_env(),
    }
}

/// Ignores SIGXFSZ, so a journal write past the process's file-size limit
/// (`ulimit -f`) fails with `EFBIG` instead of killing the server: the
/// session that wrote it answers a named error and closes, and the next
/// `hello` recovers its journal.
fn ignore_file_size_limit_signal() {
    const SIGXFSZ: i32 = 25;
    const SIG_IGN: usize = 1;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: signal(2) from libc, which std links, with its C signature
    // on Linux (`sighandler_t` is pointer-sized). SIG_IGN installs no
    // handler code, so nothing runs in signal context.
    unsafe { signal(SIGXFSZ, SIG_IGN) };
}

fn run_server(cfg: ServeConfig) -> Result<(), String> {
    let journal_dir = cfg.journal_dir.clone();
    let server = MarketServer::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts poll for this line to learn an ephemeral port.
    println!("listening on {addr}");
    println!("journaling to {}", journal_dir.display());
    server.run().map_err(|e| e.to_string())
}

/// Attaches a live replica to a serving leader (see the module docs):
/// `serve::follow` keeps the replica, logging each commit point, and when
/// the leader's feed ends the replica promotes to a full server on
/// `--serve-addr`.
fn follow(args: &Args) -> Result<(), String> {
    // The replica's session config is the one its promoted server will
    // open, so promotion replays the same files under the same settings.
    let cfg = serve_config(args, &args.serve_addr);
    std::fs::create_dir_all(&cfg.journal_dir).map_err(|e| e.to_string())?;
    let stream =
        TcpStream::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    let log = |applied, s: &serve::MarketSession| {
        let (rounds, digest) = (s.rounds_sealed(), s.digest());
        eprintln!("{applied:?}: replica at {rounds} rounds, digest {digest:016x}");
    };
    serve::follow(stream, &args.session, &cfg.session(&args.session), log)
        .map_err(|e| format!("replica: {e}"))?;
    if args.serve_addr.is_empty() {
        eprintln!("leader gone; exiting (no --serve-addr)");
        return Ok(());
    }
    eprintln!("leader gone; promoting on {}", args.serve_addr);
    run_server(cfg)
}

fn send_line(out: &mut TcpStream, v: JsonValue) -> Result<(), String> {
    let mut line = v.to_string();
    line.push('\n');
    out.write_all(line.as_bytes()).map_err(|e| e.to_string())
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// Reads one response line, failing fast on a server-reported error.
fn read_event(reader: &mut BufReader<TcpStream>) -> Result<(String, JsonValue), String> {
    let raw = read_line(reader)?;
    let v =
        JsonValue::parse(&raw).map_err(|e| format!("malformed response `{raw}`: {}", e.message))?;
    if v.get("event").and_then(JsonValue::as_str) == Some("error") {
        let msg = v
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown error");
        return Err(format!("server error: {msg}"));
    }
    Ok((raw, v))
}

fn drive(args: &Args) -> Result<(), String> {
    // Decorrelates drive bids from every other consumer of the seed.
    const DRIVE_SALT: u64 = 0x6D61_726B_6574_6462;
    let stream =
        TcpStream::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut out = stream;
    send_line(
        &mut out,
        JsonValue::object()
            .field("cmd", "hello")
            .field("session", args.session.as_str()),
    )?;
    let (welcome_raw, welcome) = read_event(&mut reader)?;
    let resumed = welcome
        .get("rounds")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| format!("malformed welcome `{welcome_raw}`"))?;
    // Handshake chatter goes to stderr: stdout carries only the
    // sealed/state lines so interrupted runs concatenate byte-identically.
    eprintln!("{welcome_raw}");

    // Rounds the server already sealed are skipped; the bids of the round
    // it lost in a crash are regenerated *identically* below.
    let start = args.from.max(resumed);
    for round in start..args.to {
        let mut rng = StdRng::seed_from_u64(derive_seed(args.seed ^ DRIVE_SALT, round as u64));
        for bidder in 0..args.bidders {
            let at = round as f64 + rng.random_range(0.05..0.95);
            let cost = rng.random_range(0.5..3.0);
            let data = rng.random_range(50..500usize);
            let quality = rng.random_range(0.5..1.0);
            send_line(
                &mut out,
                JsonValue::object()
                    .field("cmd", "bid")
                    .field("at", at)
                    .field("bidder", bidder)
                    .field("cost", cost)
                    .field("data", data)
                    .field("quality", quality),
            )?;
            read_event(&mut reader)?;
        }
        if args.partial && round + 1 == args.to {
            // Leave the last round's bids journaled but unsealed — the
            // crash-recovery smoke kills the server right after this.
            return Ok(());
        }
        send_line(&mut out, JsonValue::object().field("cmd", "seal"))?;
        let (sealed_raw, _) = read_event(&mut reader)?;
        println!("{sealed_raw}");
    }
    send_line(&mut out, JsonValue::object().field("cmd", "state"))?;
    let (state_raw, _) = read_event(&mut reader)?;
    println!("{state_raw}");
    send_line(&mut out, JsonValue::object().field("cmd", "quit"))?;
    let _ = read_line(&mut reader);
    Ok(())
}

/// `lovm top` — polls a serving market's `stats` command and renders a
/// terminal dashboard: counter rates, gauges, latency histograms with
/// exact quantiles, and bucket-distribution sparklines for the solver
/// and journal hot spots. `--frames N` bounds the run (0 = forever) so
/// CI can take one frame non-interactively; on a TTY each frame redraws
/// in place.
fn top(args: &Args) -> Result<(), String> {
    use std::io::IsTerminal;
    let stream =
        TcpStream::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut out = stream;
    let redraw = std::io::stdout().is_terminal();
    let mut prev: Option<(std::time::Instant, Vec<(String, f64)>)> = None;
    let mut frame = 0usize;
    loop {
        send_line(&mut out, JsonValue::object().field("cmd", "stats"))?;
        let (_, v) = read_event(&mut reader)?;
        let registry = v
            .get("registry")
            .ok_or("stats response carries no registry")?;
        let now = std::time::Instant::now();
        let rates = prev
            .as_ref()
            .map(|(t, c)| (now.duration_since(*t).as_secs_f64(), c.as_slice()));
        let text = render_top(registry, rates, &args.addr);
        if redraw {
            // Clear + home, so the dashboard redraws in place.
            print!("\x1b[2J\x1b[H");
        }
        println!("{text}");
        prev = Some((now, counter_values(registry)));
        frame += 1;
        if args.frames != 0 && frame >= args.frames {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
    send_line(&mut out, JsonValue::object().field("cmd", "quit"))?;
    Ok(())
}

/// The `(name, value)` counter list of a `stats` registry, for rate
/// deltas between frames.
fn counter_values(registry: &JsonValue) -> Vec<(String, f64)> {
    registry
        .get("counters")
        .and_then(JsonValue::entries)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Nanoseconds, humanized (`842ns`, `13.5us`, `2.41ms`, `1.07s`).
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

fn render_top(registry: &JsonValue, rates: Option<(f64, &[(String, f64)])>, addr: &str) -> String {
    let mut text = String::new();
    let enabled = registry
        .get("enabled")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    text.push_str(&format!(
        "lovm top — {addr} — telemetry {}\n\n",
        if enabled {
            "on"
        } else {
            "off (set LOVM_TELEMETRY on the server)"
        }
    ));

    let mut counters = metrics::Table::new(vec!["counter".into(), "total".into(), "per-s".into()]);
    for (name, v) in registry
        .get("counters")
        .and_then(JsonValue::entries)
        .unwrap_or(&[])
    {
        let Some(total) = v.as_f64() else { continue };
        let rate = rates
            .and_then(|(dt, prev)| {
                let before = prev.iter().find(|(k, _)| k == name)?.1;
                (dt > 0.0).then(|| format!("{:.1}", (total - before).max(0.0) / dt))
            })
            .unwrap_or_else(|| "-".into());
        counters.row(vec![name.clone(), format!("{total:.0}"), rate]);
    }
    text.push_str(&counters.to_markdown());
    text.push('\n');

    let mut gauges = metrics::Table::new(vec!["gauge".into(), "value".into()]);
    for (name, v) in registry
        .get("gauges")
        .and_then(JsonValue::entries)
        .unwrap_or(&[])
    {
        let Some(value) = v.as_f64() else { continue };
        gauges.row(vec![name.clone(), format!("{value:.1}")]);
    }
    text.push_str(&gauges.to_markdown());
    text.push('\n');

    let mut hists = metrics::Table::new(vec![
        "histogram".into(),
        "count".into(),
        "p50".into(),
        "p95".into(),
        "p99".into(),
        "max".into(),
    ]);
    let hist_fields = registry
        .get("hists")
        .and_then(JsonValue::entries)
        .unwrap_or(&[]);
    for (name, h) in hist_fields {
        let count = h.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
        if count == 0 {
            continue;
        }
        let q = |key: &str| {
            h.get(key)
                .and_then(JsonValue::as_f64)
                .map_or_else(|| "-".into(), fmt_ns)
        };
        hists.row(vec![
            name.clone(),
            count.to_string(),
            q("p50_ns"),
            q("p95_ns"),
            q("p99_ns"),
            q("max_ns"),
        ]);
    }
    text.push_str(&hists.to_markdown());

    // Bucket-distribution sparklines for the hot spots: per-shard WDP
    // solves, whole rounds, and the fsync cliff.
    for spark in ["solve.shard_ns", "solve.round_ns", "journal.fsync_ns"] {
        let Some(h) = hist_fields.iter().find(|(k, _)| k == spark).map(|(_, h)| h) else {
            continue;
        };
        let counts: Vec<f64> = h
            .get("buckets")
            .and_then(JsonValue::as_array)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|p| p.as_array()?.get(1)?.as_f64())
                    .collect()
            })
            .unwrap_or_default();
        if counts.len() < 2 {
            continue;
        }
        text.push('\n');
        text.push_str(&format!(
            "{spark} — occupied latency buckets, low to high:\n"
        ));
        text.push_str(&metrics::plot::ascii_chart(
            &[(spark, &counts)],
            counts.len().min(64),
            6,
        ));
    }
    text
}

/// `lovm telemetry-check --file PATH` — validates every line of an
/// emitted `LOVM_TELEMETRY` record file: parseable via the same JSON
/// layer the repo journals with, schema-tagged, all contract fields
/// present. Nonzero exit (with the offending line) on the first failure.
fn telemetry_check(args: &Args) -> Result<(), String> {
    if args.file.is_empty() {
        return Err("telemetry-check needs --file PATH".into());
    }
    let text = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let mut checked = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        sustainable_fl::core::obs::validate_round_line(line)
            .map_err(|e| format!("{}:{}: {e}\n  {line}", args.file, i + 1))?;
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("{}: no telemetry records found", args.file));
    }
    println!("{checked} telemetry records validated ({})", args.file);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
