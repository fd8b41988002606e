//! The traced run. It replays a workload's generated inputs through each
//! layer's public calls in-process, with a span around every call, and
//! reconciles the layers against the untraced wall time of the same work.
//! Layers are timed from outside, at their public calls.

use crate::clear;
use crate::gen::{bid_request, Arrival};
use crate::market::{journal_path, lovm_config, same_outcome, session_config};
use crate::serve::WINDOW;
use crate::server::{pipelined, seal_mismatches, start_session, Until};
use crate::stats::Metric;
use crate::trace::Tracer;
use crate::{Ctx, Report};
use auction::pivots::leave_one_out_welfares_view_on;
use auction::{
    Bid, PaymentStrategy, SolverArena, SolverKind, Valuation, VcgAuction, VcgConfig, WdpInstance,
    WdpView,
};
use ingest::{Admission, IngestConfig, RoundCollector};
use journal::{JournalEvent, JournalWriter};
use lovm_core::serve::{MarketSession, SealedOutcome};
use lovm_core::Lovm;
use metrics::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::arrivals::TimedBid;

/// Which untraced operation the layers are reconciled against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    /// A served bid: its wall time outside seals.
    ServedBid,
    /// One budgeted clear.
    Clear,
}

/// A workload's inputs, as the probe replays them.
pub struct ProbeInput {
    pub rounds: Vec<Vec<Arrival>>,
    /// Budgeted clear instances; empty means the rounds' own top-K
    /// instances (what a LOVM seal solves).
    pub clears: Vec<Vec<Bid>>,
    pub primary: Primary,
}

type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

/// A reconciliation row: a layer (or the remainder) and its time per op.
type Row = (&'static str, Option<f64>);

/// Prints one operation's untraced wall time against its layers, the
/// remainder as the last, named row.
fn print_reconciliation(op: &str, wall: f64, rows: &[Row]) {
    eprintln!("reconciliation of one {op}: untraced wall {wall:.4}");
    for (name, v) in rows {
        let v = v.unwrap_or(f64::NAN);
        eprintln!("  {name:<38} {v:>12.4} {:>6.1}%", 100.0 * v / wall);
    }
}

/// Mean self time of the spans named `name` in `scale` units of ns, and
/// their count.
fn mean(times: &SelfTimes, name: &str, scale: f64) -> (Option<f64>, u64) {
    match times.get(name) {
        Some(&(count, total)) if count > 0 => (Some(total as f64 / count as f64 / scale), count),
        _ => (None, 0),
    }
}

fn admission_name(a: Admission) -> &'static str {
    match a {
        Admission::Stored => "stored",
        Admission::Shed => "shed",
        Admission::Blocked => "blocked",
    }
}

/// The served path minus the wire: parse each request, offer it to the
/// session, render its acknowledgement; seal each round.
fn session_pass(
    tr: &mut Tracer,
    dir: &std::path::Path,
    input: &ProbeInput,
    report: &mut Report,
) -> std::io::Result<(Vec<SealedOutcome>, u64, f64)> {
    std::fs::create_dir_all(dir)?;
    let requests: Vec<Vec<String>> = input
        .rounds
        .iter()
        .map(|r| r.iter().map(bid_request).collect())
        .collect();
    let start = Instant::now();
    let mut session = MarketSession::open(session_config(dir))?;
    let mut sealed = Vec::with_capacity(input.rounds.len());
    for (r, (round, lines)) in input.rounds.iter().zip(&requests).enumerate() {
        let round_span = tr.enter("round", r as u64);
        for (i, (a, line)) in round.iter().zip(lines).enumerate() {
            let op = ((r as u64) << 32) | i as u64;
            let bid_span = tr.enter("bid", op);
            let parsed = tr.span("json.request_parse", op, || JsonValue::parse(line));
            report.check(parsed.is_ok(), "a generated request parses");
            let (seq, admission) = tr.span("serve.offer", op, || session.offer(a.at, a.bid))?;
            report.check(
                admission == Admission::Stored,
                "the session stores every bid",
            );
            let ack = tr.span("json.response_render", op, || {
                JsonValue::object()
                    .field("event", "bid")
                    .field("seq", seq)
                    .field("admission", admission_name(admission))
                    .to_string()
            });
            let _ = std::hint::black_box((parsed, ack));
            tr.exit(bid_span);
        }
        sealed.push(tr.span("serve.seal", r as u64, || session.seal())?);
        tr.exit(round_span);
    }
    let digest = session.digest();
    drop(session);
    Ok((sealed, digest, start.elapsed().as_secs_f64()))
}

struct Components {
    /// Each round's sealed bid set.
    sets: Vec<Vec<Bid>>,
    bytes_per_bid: f64,
    rejected: u64,
}

/// The session's parts on their own: collector, mechanism, journal.
fn component_pass(
    tr: &mut Tracer,
    ctx: &Ctx,
    input: &ProbeInput,
    sealed: &[SealedOutcome],
    report: &mut Report,
) -> std::io::Result<Components> {
    let mut collector = RoundCollector::new(&IngestConfig::default());
    let mut lovm = Lovm::new(lovm_config());
    let pool = par::Pool::with_threads(ctx.threads);
    let path = ctx.work.join("probe-components.jsonl");
    let mut writer = JournalWriter::create(&path)?;
    let mut rejected = 0u64;
    let mut seq = 0u64;
    let mut sets = Vec::with_capacity(input.rounds.len());
    for (r, (round, reference)) in input.rounds.iter().zip(sealed).enumerate() {
        for a in round {
            let op = seq;
            let tb = TimedBid {
                at: a.at,
                bid: a.bid,
            };
            if tr.span("ingest.offer", op, || collector.offer_at(seq, tb)) != Admission::Stored {
                rejected += 1;
            }
            let line = tr.span("journal.render", op, || {
                JournalEvent::Arrival {
                    seq,
                    at: a.at,
                    bid: a.bid,
                }
                .to_line()
            });
            tr.span("journal.append", op, || writer.append_raw(&line))?;
            seq += 1;
        }
        let collected = tr.span("ingest.seal", r as u64, || collector.seal_next());
        let outcome = tr.span("lovm.round", r as u64, || {
            lovm.round_on(collected.sealed.bids(), pool)
        });
        report.check(
            same_outcome(&outcome, &reference.outcome),
            "the mechanism alone reproduces the session's round",
        );
        tr.span("journal.commit_lines", r as u64, || {
            let seal = JournalEvent::Seal {
                round: r,
                sealed: collected.sealed.bids().to_vec(),
            };
            let outcome = JournalEvent::Outcome {
                round: r,
                awards: reference.outcome.winners.clone(),
                virtual_welfare: reference.outcome.virtual_welfare,
                spend: reference.outcome.total_payment(),
                backlog: reference.backlog,
                digest: reference.digest,
            };
            writer.append_raw(&seal.to_line())?;
            writer.append_raw(&outcome.to_line())
        })?;
        tr.span("journal.fsync", r as u64, || writer.sync())?;
        sets.push(collected.sealed.bids().to_vec());
    }
    drop(writer);
    let bytes = std::fs::metadata(&path)?.len();
    std::fs::remove_file(&path)?;
    Ok(Components {
        sets,
        bytes_per_bid: bytes as f64 / seq.max(1) as f64,
        rejected,
    })
}

/// DP cells a budgeted knapsack solve fills: candidates that fit the
/// budget with positive weight, times the grid width. Top-K solves fill
/// none.
fn dp_cells(inst: &WdpInstance, kind: SolverKind) -> u64 {
    match (kind, inst.budget) {
        (SolverKind::Knapsack { grid }, Some(budget)) => {
            let m = inst
                .items
                .iter()
                .filter(|it| it.weight > 0.0 && it.cost <= budget + 1e-12)
                .count() as u64;
            m * (grid as u64 + 1)
        }
        _ => 0,
    }
}

struct AuctionPass {
    dp_cells: f64,
    winners: f64,
    /// Mean untraced `run_with_budget_on` wall time, for budgeted clears.
    clear_ms: Option<f64>,
}

/// Winner determination and pivots on each instance: the workload's
/// budgeted clears, or the top-K instance of each sealed round.
fn auction_pass(
    tr: &mut Tracer,
    ctx: &Ctx,
    input: &ProbeInput,
    sets: &[Vec<Bid>],
    report: &mut Report,
) -> AuctionPass {
    let pool = par::Pool::with_threads(ctx.threads);
    let budgeted = !input.clears.is_empty();
    let (instances, kind): (Vec<WdpInstance>, SolverKind) = if budgeted {
        let auction = clear::new_auction();
        let instances = input
            .clears
            .iter()
            .map(|bids| {
                auction
                    .instance(bids, &Valuation::default())
                    .with_budget(clear::budget(bids))
            })
            .collect();
        (instances, clear::SOLVER)
    } else {
        let cfg = lovm_config();
        let auction = VcgAuction::new(VcgConfig {
            max_winners: cfg.max_winners,
            ..VcgConfig::default()
        });
        let instances = sets
            .iter()
            .map(|bids| auction.instance(bids, &cfg.valuation))
            .collect();
        (instances, SolverKind::Exact)
    };
    let mut arena = SolverArena::new();
    let (mut cells, mut winners, mut clear_ms) = (0u64, 0usize, 0.0);
    for (c, inst) in instances.iter().enumerate() {
        let view = WdpView::full(inst);
        let sol = tr.span("auction.solve", c as u64, || arena.solve_view(&view, kind));
        let welfares = tr.span("auction.pivots", c as u64, || {
            leave_one_out_welfares_view_on(
                &view,
                &sol.selected,
                kind,
                PaymentStrategy::Incremental,
                pool,
            )
        });
        std::hint::black_box(welfares);
        cells += dp_cells(inst, kind);
        winners += sol.selected.len();
        // The same clear untraced, right after its layers, for the
        // reconciliation; its winners must be the arena solve's.
        if let Some(bids) = input.clears.get(c) {
            let t0 = Instant::now();
            let outcome = clear::clear(&clear::new_auction(), bids, pool);
            clear_ms += t0.elapsed().as_secs_f64() * 1e3;
            let mut won: Vec<usize> = outcome.winners.iter().map(|a| a.bidder).collect();
            let mut picked: Vec<usize> =
                sol.selected.iter().map(|&i| inst.items[i].bidder).collect();
            won.sort_unstable();
            picked.sort_unstable();
            report.check(won == picked, "the arena solve picks the clear's winners");
        }
    }
    let n = instances.len().max(1) as f64;
    AuctionPass {
        dp_cells: cells as f64 / n,
        winners: winners as f64 / n,
        clear_ms: budgeted.then_some(clear_ms / n),
    }
}

/// Recovery's parts on the session's journal: scan, stream, line parses,
/// then the whole open, which must reproduce the writer's state and leave
/// the file unchanged.
fn recovery_pass(
    tr: &mut Tracer,
    dir: &std::path::Path,
    writer: (u64, usize),
    report: &mut Report,
) -> std::io::Result<()> {
    let path = journal_path(dir);
    let hash = crate::market::file_hash(&path)?;
    let meta = tr.span("journal.scan", 0, || journal::recover_meta(&path))?;
    tr.span("journal.stream", 0, || {
        journal::stream_events(&path, meta.suffix_bytes, meta.committed_bytes, |_| Ok(()))
    })?;
    let text = std::fs::read_to_string(&path)?;
    for (i, line) in text.lines().enumerate() {
        let name = if line.starts_with("{\"event\":\"arrival\"") {
            "json.arrival_line_parse"
        } else if line.starts_with("{\"event\":\"seal\"") {
            "json.seal_line_parse"
        } else {
            continue;
        };
        let event = tr.span(name, i as u64, || JournalEvent::parse_line(line));
        report.check(event.is_some(), "every journal line parses");
    }
    let session = tr.span("serve.open", 0, || MarketSession::open(session_config(dir)))?;
    report.check(
        (session.digest(), session.rounds_sealed()) == writer,
        "recovery reproduces the writer's digest and round count",
    );
    drop(session);
    report.check(
        crate::market::file_hash(&path)? == hash,
        "a clean open leaves the journal unchanged",
    );
    Ok(())
}

pub fn run(ctx: &Ctx, input: &ProbeInput) -> std::io::Result<Report> {
    let mut report = Report::default();

    // The served path, untraced: the wall time the layers must add up to.
    let source = |r: usize| input.rounds[r].clone();
    let (server, mut conn, _, _) =
        start_session(&ctx.lovm, &ctx.work.join("probe-wire"), ctx.threads)?;
    let wire = pipelined(
        &mut conn,
        &source,
        WINDOW,
        0,
        Until::Round(input.rounds.len()),
    );
    drop((conn, server));
    report.count(wire.attempted, wire.failed);

    let (_, _, untraced_s) = session_pass(
        &mut Tracer::new(false),
        &ctx.work.join("probe-untraced"),
        input,
        &mut report,
    )?;
    let mut tr = Tracer::new(true);
    let session_dir = ctx.work.join("probe-session");
    let (sealed, digest, traced_s) = session_pass(&mut tr, &session_dir, input, &mut report)?;
    let bad = seal_mismatches(&wire.sealed, &sealed);
    report.count(sealed.len() as u64, bad);
    let components = component_pass(&mut tr, ctx, input, &sealed, &mut report)?;
    let auction = auction_pass(&mut tr, ctx, input, &components.sets, &mut report);
    recovery_pass(&mut tr, &session_dir, (digest, sealed.len()), &mut report)?;
    tr.write_jsonl(&ctx.spans_path())?;

    let times = tr.self_times();
    let t = |span: &str, scale: f64| mean(&times, span, scale);
    let layer = |name: &'static str, span: &str, scale: f64, unit: &'static str| {
        let (v, n) = t(span, scale);
        Metric::new(name, v, unit, n)
    };
    let (offer_us, _) = t("serve.offer", 1e3);
    let (parse_us, _) = t("json.request_parse", 1e3);
    let (render_us, _) = t("json.response_render", 1e3);
    let (open_s, _) = t("serve.open", 1e9);
    let (scan_s, _) = t("journal.scan", 1e9);
    let (stream_s, _) = t("journal.stream", 1e9);
    let (solve_ms, solves) = t("auction.solve", 1e6);
    let (pivots_ms, _) = t("auction.pivots", 1e6);
    let bid_wall_us = wire.bid_wall_us();
    let in_process_us = offer_us
        .zip(parse_us)
        .zip(render_us)
        .map(|((a, b), c)| a + b + c);
    let wire_us = in_process_us.map(|l| bid_wall_us - l);
    let replay_s = open_s
        .zip(scan_s)
        .zip(stream_s)
        .map(|((o, a), b)| o - a - b);
    let clear_rest_ms = auction
        .clear_ms
        .zip(solve_ms)
        .zip(pivots_ms)
        .map(|((c, s), p)| c - s - p);

    // Reconciliation of the workload's own operation: its untraced wall
    // time against the traced layers, the remainder as the last, named row.
    let (op, wall, rows): (&str, f64, Vec<Row>) = match input.primary {
        Primary::ServedBid => (
            "served bid (us)",
            bid_wall_us,
            vec![
                ("json.request_parse_us", parse_us),
                ("serve.offer_us", offer_us),
                ("json.response_render_us", render_us),
                ("wire.unattributed_us_per_bid", wire_us),
            ],
        ),
        Primary::Clear => (
            "budgeted clear (ms)",
            auction.clear_ms.unwrap_or(f64::NAN),
            vec![
                ("auction.solve_ms", solve_ms),
                ("auction.pivots_ms", pivots_ms),
                ("auction: instance build and awards", clear_rest_ms),
            ],
        ),
    };
    print_reconciliation(op, wall, &rows);
    // Every traced run also reopens its session's journal.
    print_reconciliation(
        "journal open (s)",
        open_s.unwrap_or(f64::NAN),
        &[
            ("journal.scan_s", scan_s),
            ("journal.stream_s", stream_s),
            ("serve.open_replay_s", replay_s),
        ],
    );
    let remainder = rows.last().and_then(|r| r.1);
    let overhead = (traced_s - untraced_s) / untraced_s;
    eprintln!(
        "tracing overhead: session pass {untraced_s:.3} s untraced, {traced_s:.3} s traced ({:+.1}%)",
        overhead * 100.0
    );

    report.metrics = vec![
        layer("json.request_parse_us", "json.request_parse", 1e3, "us"),
        layer("json.response_render_us", "json.response_render", 1e3, "us"),
        layer(
            "json.arrival_line_parse_us",
            "json.arrival_line_parse",
            1e3,
            "us",
        ),
        layer("json.seal_line_parse_ms", "json.seal_line_parse", 1e6, "ms"),
        layer("journal.render_us", "journal.render", 1e3, "us"),
        layer("journal.append_us", "journal.append", 1e3, "us"),
        layer("journal.fsync_ms", "journal.fsync", 1e6, "ms"),
        Metric::new(
            "journal.bytes_per_bid",
            Some(components.bytes_per_bid),
            "B/bid",
            components.sets.iter().map(Vec::len).sum::<usize>() as u64,
        ),
        layer("journal.scan_s", "journal.scan", 1e9, "s"),
        layer("journal.stream_s", "journal.stream", 1e9, "s"),
        layer("ingest.offer_ns", "ingest.offer", 1.0, "ns"),
        layer("ingest.seal_us", "ingest.seal", 1e3, "us"),
        Metric::new(
            "ingest.rejected",
            Some(components.rejected as f64),
            "count",
            1,
        ),
        layer("lovm.round_ms", "lovm.round", 1e6, "ms"),
        layer("serve.offer_us", "serve.offer", 1e3, "us"),
        layer("serve.seal_ms", "serve.seal", 1e6, "ms"),
        Metric::new("serve.open_replay_s", replay_s, "s", 1),
        Metric::new(
            "wire.unattributed_us_per_bid",
            wire_us,
            "us",
            wire.stored_bids,
        ),
        layer("auction.solve_ms", "auction.solve", 1e6, "ms"),
        layer("auction.pivots_ms", "auction.pivots", 1e6, "ms"),
        Metric::new("auction.dp_cells", Some(auction.dp_cells), "count", solves),
        Metric::new("auction.winners", Some(auction.winners), "count", solves),
        Metric::new(
            "recon.unattributed_frac",
            remainder.map(|r| r / wall),
            "ratio",
            1,
        ),
        Metric::new("trace.overhead_frac", Some(overhead), "ratio", 1),
    ];
    Ok(report)
}
