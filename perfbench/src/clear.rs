//! `budgeted-clear`: back-to-back budgeted VCG clears in-process (the E7
//! shape): knapsack winner determination plus leave-one-out pivots. Each
//! clear's bids first arrive as one round served by `lovm serve`.

use crate::gen::{clear_as_round, clear_bids};
use crate::serve::{check_seals, WINDOW};
use crate::server::{pipelined, start_session, ClientRun, Conn, ServerChild, Until};
use crate::{Ctx, EndToEnd, Report};
use auction::{AuctionOutcome, Bid, MarketTopology, SolverKind, Valuation, VcgAuction, VcgConfig};
use journal::Digest;
use metrics::json::JsonValue;
use std::path::Path;
use std::time::{Duration, Instant};

pub const GRID: usize = 4000;
pub const SOLVER: SolverKind = SolverKind::Knapsack { grid: GRID };

/// Budget of a clear: this share of the total reported cost.
pub const BUDGET_SHARE: f64 = 0.05;

/// Clears whose outcomes make up the reported per-seed digest.
const DIGEST_CLEARS: usize = 8;

/// Set-ups timed for `setup_s` before the first clear.
const STARTS: usize = 3;

/// Every this many timed clears, one more set-up and one cold clear are
/// timed, for `setup_s` and `recover_s`, so their samples span the run.
const COLD_EVERY: usize = 10;

pub fn new_auction() -> VcgAuction {
    VcgAuction::new(VcgConfig {
        max_winners: None,
        topology: MarketTopology::Monolithic,
        ..VcgConfig::default()
    })
}

pub fn budget(bids: &[Bid]) -> f64 {
    BUDGET_SHARE * bids.iter().map(|b| b.cost).sum::<f64>()
}

pub fn clear(auction: &VcgAuction, bids: &[Bid], pool: par::Pool) -> AuctionOutcome {
    auction.run_with_budget_on(bids, &Valuation::default(), budget(bids), SOLVER, pool)
}

/// Individually rational (no winner paid below its reported cost) and
/// within budget (winners' reported costs fit the clear's budget).
pub fn outcome_ok(bids: &[Bid], outcome: &AuctionOutcome) -> bool {
    let ir = outcome.winners.iter().all(|a| a.payment >= a.cost - 1e-9);
    let spent: f64 = outcome.winners.iter().map(|a| a.cost).sum();
    ir && spent <= budget(bids) + 1e-9
}

/// Folds an outcome into a running digest, bit for bit.
pub fn fold_outcome(digest: &mut Digest, outcome: &AuctionOutcome) {
    for a in &outcome.winners {
        digest.fold_usize(a.bidder);
        digest.fold_f64(a.payment);
    }
    digest.fold_f64(outcome.virtual_welfare);
}

fn outcome_digest(outcome: &AuctionOutcome) -> u64 {
    let mut digest = Digest::new();
    fold_outcome(&mut digest, outcome);
    digest.value()
}

type SetUp = (ServerChild, Conn, par::Pool, VcgAuction);

/// The server that takes the bids, the worker pool, the first bids and a
/// warm-up clear; returns them and the time they took.
fn set_up(ctx: &Ctx, dir: &Path, report: &mut Report) -> std::io::Result<(SetUp, f64)> {
    let t0 = Instant::now();
    let (server, conn, _, welcome) = start_session(&ctx.lovm, dir, ctx.threads)?;
    report.check(welcome.rounds == 0, "a fresh session welcomes at round 0");
    let pool = par::Pool::with_threads(ctx.threads);
    let auction = new_auction();
    let bids = clear_bids(ctx.seed, 0, ctx.clear_bids());
    std::hint::black_box(clear(&auction, &bids, pool));
    Ok(((server, conn, pool, auction), t0.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut e2e = EndToEnd::default();
    let n = ctx.clear_bids();
    let dir = ctx.work.join("clear");

    // Set-up, a few times; the first one serves the run.
    let mut setups = 0;
    let mut fresh_set_up = |e2e: &mut EndToEnd, report: &mut Report| {
        setups += 1;
        let (set, secs) = set_up(ctx, &dir.join(format!("start{setups}")), report)?;
        e2e.setup_s.push(secs);
        Ok::<_, std::io::Error>(set)
    };
    let (server, mut conn, pool, auction) = fresh_set_up(&mut e2e, &mut report)?;
    for _ in 1..STARTS {
        drop(fresh_set_up(&mut e2e, &mut report)?);
    }

    // Each clear's bids arrive as one served round: sent to the server with
    // the serve workload's window, sealed, and then cleared in-process.
    let source = |c: usize| clear_as_round(&clear_bids(ctx.seed, c, n), c);
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let min_clears = ctx.min_samples(0.9).max(1);
    let bids0 = clear_bids(ctx.seed, 0, n);
    let mut served: Option<ClientRun> = None;
    let mut digest = Digest::new();
    let mut first_digest = None;
    let mut c = 0;
    while c < min_clears || Instant::now() < deadline {
        let round = pipelined(&mut conn, &source, WINDOW, c, Until::Round(c + 1));
        match &mut served {
            Some(s) => s.absorb(round),
            None => served = Some(round),
        }
        let bids = clear_bids(ctx.seed, c, n);
        let t0 = Instant::now();
        let outcome = clear(&auction, &bids, pool);
        e2e.clear_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.check(
            outcome_ok(&bids, &outcome),
            "a clear is IR and within budget",
        );
        if c < DIGEST_CLEARS {
            fold_outcome(&mut digest, &outcome);
        }
        if c == 0 {
            first_digest = Some(outcome_digest(&outcome));
        }
        // A cold clear: a fresh auction and pool, as after a restart, on
        // the first clear's bids, which it must reproduce bit for bit. And
        // a fresh set-up, so both sample the whole run.
        if c % COLD_EVERY == COLD_EVERY - 1 {
            drop(fresh_set_up(&mut e2e, &mut report)?);
            let t0 = Instant::now();
            let cold = clear(&new_auction(), &bids0, par::Pool::with_threads(ctx.threads));
            e2e.recover_s.push(t0.elapsed().as_secs_f64());
            report.check(
                Some(outcome_digest(&cold)) == first_digest,
                "a clear is deterministic per seed",
            );
        }
        c += 1;
    }
    let served = served.expect("at least one clear");
    e2e.rss_mb = crate::market::peak_rss_mb("self");
    e2e.round_rate = served.round_rate.clone();
    e2e.block_p99_us = served.block_p99_us.clone();
    e2e.bid_us = served.bid_rtt_us.clone();
    e2e.seal_ms = served.seal_rtt_ms.clone();
    report.count(served.attempted, served.failed);
    drop(conn);
    drop(server);
    check_seals(&dir, &source, c, &served.sealed, &mut report)?;

    report.note("clears", JsonValue::from(c));
    report.note(
        "outcome_digest",
        JsonValue::from(journal::u64_hex(digest.value())),
    );
    report.metrics = e2e.metrics();
    Ok(report)
}
