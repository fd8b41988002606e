//! The repository benchmark: end-to-end and per-layer numbers for the
//! LOVM market server and budgeted clears.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --lovm <path>
//!           [--commit <id>] [--quick]
//! ```
//!
//! `--trace 0` measures the workload untraced and reports the end-to-end
//! metrics; `--trace 1` replays the same seeded inputs through each
//! layer's public calls with spans and reports the per-layer metrics.
//! The last stdout line is the result object; the line before it records
//! provenance and sample counts. `perfbench/run.py` builds this and
//! `lovm`, then runs it; see `perfbench/README.md` for the metric map.

mod clear;
mod gen;
mod market;
mod probe;
mod serve;
mod server;
mod stats;
mod trace;

use metrics::json::JsonValue;
use stats::{metrics_json, samples_json, Metric, Samples};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServePipelined,
    BudgetedClear,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve-pipelined" => Workload::ServePipelined,
            "budgeted-clear" => Workload::BudgetedClear,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServePipelined => "serve-pipelined",
            Workload::BudgetedClear => "budgeted-clear",
        }
    }
}

/// Everything a workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Small shapes for the benchmark's own tests; tails may go missing.
    pub quick: bool,
    pub lovm: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    pub threads: usize,
    workload: Workload,
}

impl Ctx {
    pub fn round_bids(&self) -> usize {
        if self.quick {
            100
        } else {
            gen::ROUND_BIDS
        }
    }

    /// Bids per budgeted clear (the E7 size).
    pub fn clear_bids(&self) -> usize {
        if self.quick {
            256
        } else {
            4096
        }
    }

    /// Samples a tail percentile `p` needs before it counts. A timed phase
    /// runs for `--seconds` and then on until it has them, so a slower
    /// machine reports fewer operations per second instead of a missing
    /// tail. Quick runs take what they get.
    pub fn min_samples(&self, p: f64) -> usize {
        if self.quick {
            0
        } else {
            (stats::TAIL_MIN_BEYOND / (1.0 - p)).round() as usize
        }
    }

    /// Where the traced run writes its spans (kept after the run).
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-{}.jsonl",
            self.workload.name(),
            self.seed
        ))
    }
}

/// Idle time before a run starts. Back-to-back serve runs on a 2-CPU
/// machine measured up to 2× worse bid p99 and seal p90 than runs a few
/// seconds apart; the pause keeps one run's teardown out of the next.
const SETTLE: std::time::Duration = std::time::Duration::from_secs(3);

/// Output directory, relative to the checkout root the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

/// What a run measured and checked. Every check and every request counts
/// as attempted; a failed check, an error response, an unanswered
/// request or a refused bid counts as failed.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<(&'static str, u64)>,
    notes: Vec<(&'static str, JsonValue)>,
}

impl Report {
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn check(&mut self, ok: bool, what: &'static str) {
        self.count(1, u64::from(!ok));
        if !ok {
            match self.failures.iter_mut().find(|(w, _)| *w == what) {
                Some(entry) => entry.1 += 1,
                None => self.failures.push((what, 1)),
            }
        }
    }

    pub fn note(&mut self, key: &'static str, value: JsonValue) {
        self.notes.push((key, value));
    }
}

/// The end-to-end measurements every workload reports, each from
/// independent operations of the workload (see `perfbench/README.md`).
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Samples,
    /// Per served round: bids stored ÷ its wall time. The median is robust
    /// to a stall in a few rounds.
    pub round_rate: Samples,
    pub bid_us: Samples,
    /// Per block of `server::P99_BLOCK` acks: their p99.
    pub block_p99_us: Samples,
    pub seal_ms: Samples,
    pub clear_ms: Samples,
    pub recover_s: Samples,
    pub rss_mb: Option<f64>,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let rounds = self.round_rate.count();
        vec![
            Metric::new("setup_s", self.setup_s.median(), "s", self.setup_s.count()),
            Metric::new("bids_per_s", self.round_rate.median(), "bids/s", rounds),
            Metric::new(
                "bid_p50_us",
                self.bid_us.median(),
                "us",
                self.bid_us.count(),
            ),
            Metric::new(
                "bid_p99_us",
                self.block_p99_us.median(),
                "us",
                self.block_p99_us.count(),
            ),
            Metric::new(
                "seal_p50_ms",
                self.seal_ms.median(),
                "ms",
                self.seal_ms.count(),
            ),
            Metric::new(
                "seal_p90_ms",
                self.seal_ms.percentile(0.9),
                "ms",
                self.seal_ms.count(),
            ),
            Metric::new(
                "clear_p50_ms",
                self.clear_ms.median(),
                "ms",
                self.clear_ms.count(),
            ),
            Metric::new(
                "clear_p90_ms",
                self.clear_ms.percentile(0.9),
                "ms",
                self.clear_ms.count(),
            ),
            Metric::new(
                "recover_s",
                self.recover_s.median(),
                "s",
                self.recover_s.count(),
            ),
            Metric::new("peak_rss_mb", self.rss_mb, "MB", 1),
        ]
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    lovm: PathBuf,
    commit: String,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut lovm) = (None, None, None, None, None);
    let mut commit = String::from("unknown");
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            "--lovm" => lovm = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        lovm: lovm.ok_or("--lovm is required")?,
        commit,
        quick,
    })
}

/// Pins every setting the in-process code reads from the environment, so
/// a run never depends on the caller's `LOVM_*` variables. The server
/// child gets the same values explicitly.
fn pin_environment(threads: usize) {
    std::env::remove_var("LOVM_TELEMETRY");
    std::env::set_var("LOVM_SHARDS", "1");
    std::env::set_var("LOVM_THREADS", threads.to_string());
    std::env::set_var("LOVM_SNAPSHOT_EVERY", "0");
    std::env::set_var("LOVM_COMPACT", "0");
    std::env::set_var("LOVM_DEADLINE", "1");
    std::env::set_var("LOVM_LATE_POLICY", "drop");
    std::env::set_var("LOVM_BUFFER", "65536");
}

fn probe_input(ctx: &Ctx) -> probe::ProbeInput {
    // Rounds the traced run replays on serve-pipelined, and clears on
    // budgeted-clear.
    let (serve_rounds, clears) = if ctx.quick { (3, 2) } else { (20, 4) };
    let stream = |rounds: usize| {
        (0..rounds)
            .map(|r| gen::stream_round(ctx.seed, r, ctx.round_bids()))
            .collect()
    };
    match ctx.workload {
        Workload::ServePipelined => probe::ProbeInput {
            rounds: stream(serve_rounds),
            clears: Vec::new(),
            primary: probe::Primary::ServedBid,
        },
        Workload::BudgetedClear => {
            let clears: Vec<_> = (0..clears)
                .map(|c| gen::clear_bids(ctx.seed, c, ctx.clear_bids()))
                .collect();
            probe::ProbeInput {
                rounds: clears
                    .iter()
                    .enumerate()
                    .map(|(c, bids)| gen::clear_as_round(bids, c))
                    .collect(),
                clears,
                primary: probe::Primary::Clear,
            }
        }
    }
}

fn run(args: &Args, ctx: &Ctx) -> std::io::Result<Report> {
    if args.trace {
        return probe::run(ctx, &probe_input(ctx));
    }
    match args.workload {
        Workload::ServePipelined => serve::run(ctx),
        Workload::BudgetedClear => clear::run(ctx),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    pin_environment(threads);
    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        lovm: args.lovm.clone(),
        work: work.clone(),
        threads,
        workload: args.workload,
    };
    if !args.quick {
        std::thread::sleep(SETTLE);
    }
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let missing: Vec<&str> = report
        .metrics
        .iter()
        .filter(|m| m.value.is_none())
        .map(|m| m.name)
        .collect();
    for m in &report.metrics {
        let value = m
            .value
            .map_or_else(|| "missing".to_string(), |v| format!("{v:.6}"));
        eprintln!(
            "  {:<32} {value:>16} {:<7} (n={})",
            m.name, m.unit, m.samples
        );
    }
    for (what, n) in &report.failures {
        eprintln!("perfbench: check failed {n}x: {what}");
    }
    eprintln!(
        "perfbench: {} attempted, {} failed (failed_frac {:.6})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let mut provenance = JsonValue::object()
        .field("workload", args.workload.name())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("quick", args.quick)
        .field("nproc", threads)
        .field("commit", args.commit.as_str())
        .field("samples", samples_json(&report.metrics));
    for (key, value) in &report.notes {
        provenance = provenance.field(key, value.clone());
    }
    let mut missing_list = JsonValue::array();
    for name in &missing {
        missing_list = missing_list.item(*name);
    }
    provenance = provenance.field("missing", missing_list);
    println!("{provenance}");
    let correct = report.failed == 0;
    let result = JsonValue::object()
        .field("correct", correct)
        .field("attempted", report.attempted.max(1))
        .field("failed", report.failed)
        .field("metrics", metrics_json(&report.metrics));
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
