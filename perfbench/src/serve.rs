//! `serve-pipelined`: a real `lovm serve` child driven over one TCP
//! connection with a window of requests in flight.

use crate::gen::stream_round;
use crate::market::{collect_rounds, journal_path, lovm_config, run_session, same_outcome};
use crate::server::{
    pipelined, seal_mismatches, start_session, ClientRun, Conn, Sealed, ServerChild, Source, Until,
};
use crate::stats::Samples;
use crate::{Ctx, EndToEnd, Report};
use auction::AuctionOutcome;
use lovm_core::serve::SealedOutcome;
use lovm_core::Lovm;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests in flight on `serve-pipelined`.
pub const WINDOW: usize = 64;

/// Set-ups timed for `setup_s` before the first timed request.
const STARTS: usize = 3;

/// The timed phase is cut into this many segments. Before each one the
/// run starts and restarts servers and repeats the in-process clears, so
/// every metric samples the whole run and not one stretch of the machine's
/// load.
const SEGMENTS: u32 = 5;

/// More set-ups timed for `setup_s` before each segment, so its samples
/// too span the run.
const STARTS_PER_SEGMENT: usize = 2;

/// Restarts timed for `recover_s` before each segment.
const RESTARTS_PER_SEGMENT: usize = 2;

/// How long the in-process clears of the served rounds repeat before each
/// segment.
const CLEAR_SECONDS: f64 = 0.6;

/// Rounds of journal a restart replays for `recover_s`.
const RESTART_ROUNDS: usize = 8;

/// The clear inside each seal: the first `rounds` served rounds' sealed
/// sets cleared in-process by `Lovm::round_on`, on a serial pool, so the
/// figure is the mechanism's own work and not the pool's per-call thread
/// spawns (those show in `seal_*`). Passes repeat for [`CLEAR_SECONDS`],
/// each from a fresh mechanism; the first pass's outcomes go to `first`,
/// and every later pass must reproduce them.
fn clear_passes(
    source: Source<'_>,
    rounds: usize,
    first: &mut Vec<AuctionOutcome>,
    clear_ms: &mut Samples,
    report: &mut Report,
) {
    let until = Instant::now() + Duration::from_secs_f64(CLEAR_SECONDS);
    let mut passes = 0;
    while passes == 0 || Instant::now() < until {
        let mut lovm = Lovm::new(lovm_config());
        let mut same = true;
        let refused = collect_rounds((0..rounds).map(source), |r, sealed| {
            let t0 = Instant::now();
            let outcome = lovm.round_on(sealed, par::Pool::serial());
            clear_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match first.get(r) {
                Some(f) => same &= same_outcome(f, &outcome),
                None => first.push(outcome),
            }
        });
        report.check(refused == 0, "the collector stores every bid");
        report.check(same, "every pass of clears reproduces the first");
        passes += 1;
    }
}

/// Every `sealed` response of the first `rounds` served rounds must match,
/// bit for bit, an in-process session fed the same rounds. Returns the
/// reference's outcomes.
pub fn check_seals(
    dir: &Path,
    source: Source<'_>,
    rounds: usize,
    served: &[Sealed],
    report: &mut Report,
) -> std::io::Result<Vec<SealedOutcome>> {
    let (_, reference, refused) = run_session(&dir.join("reference"), (0..rounds).map(source))?;
    report.check(refused == 0, "the reference session stores every bid");
    let bad = seal_mismatches(served, &reference);
    report.count(rounds as u64, bad);
    Ok(reference)
}

/// A fresh server that has sealed its first round.
struct SetUp {
    server: ServerChild,
    conn: Conn,
    /// Round 0, sent lock-step.
    first: ClientRun,
    dir: PathBuf,
    secs: f64,
}

/// Spawns `lovm serve` on a fresh journal under `dir`, opens the session
/// and drives its first round lock-step: the time until a server is up and
/// has sealed a round, warm.
fn set_up(
    ctx: &Ctx,
    dir: &Path,
    source: Source<'_>,
    report: &mut Report,
) -> std::io::Result<SetUp> {
    let t0 = Instant::now();
    let (server, mut conn, _, welcome) = start_session(&ctx.lovm, dir, ctx.threads)?;
    let first = pipelined(&mut conn, source, 1, 0, Until::Round(1));
    let secs = t0.elapsed().as_secs_f64();
    report.check(welcome.rounds == 0, "a fresh session welcomes at round 0");
    Ok(SetUp {
        server,
        conn,
        first,
        dir: dir.to_path_buf(),
        secs,
    })
}

pub fn run(ctx: &Ctx) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut e2e = EndToEnd::default();
    let dir = ctx.work.join("serve");

    let source = |r: usize| stream_round(ctx.seed, r, ctx.round_bids());

    // Set-up, several times; the last of the first few serves the run.
    let mut setups = 0;
    let mut fresh_set_up = |e2e: &mut EndToEnd, report: &mut Report| {
        setups += 1;
        let set = set_up(ctx, &dir.join(format!("start{setups}")), &source, report)?;
        e2e.setup_s.push(set.secs);
        Ok::<_, std::io::Error>(set)
    };
    let mut started = fresh_set_up(&mut e2e, &mut report)?;
    for _ in 1..STARTS {
        started = fresh_set_up(&mut e2e, &mut report)?;
    }
    let SetUp {
        server,
        mut conn,
        mut first,
        dir: journal_dir,
        ..
    } = started;
    let round0 = first.sealed.first().copied();

    // The session's next rounds, lock-step and untimed. Restarting `lovm
    // serve` on a copy of their journal is `recover_s`: spawn to welcome.
    first.absorb(pipelined(
        &mut conn,
        &source,
        1,
        1,
        Until::Round(RESTART_ROUNDS),
    ));
    report.count(first.attempted, first.failed);
    let restart_dir = dir.join("restart");
    std::fs::create_dir_all(&restart_dir)?;
    std::fs::copy(journal_path(&journal_dir), journal_path(&restart_dir))?;
    let resumed_digest = first.sealed.last().map(|s| s.digest);

    let min_rounds = RESTART_ROUNDS + ctx.min_samples(0.9);
    let segment = Duration::from_secs_f64(ctx.seconds) / SEGMENTS;
    let mut cleared = Vec::with_capacity(min_rounds);
    let mut timed: Option<ClientRun> = None;
    for s in 0..SEGMENTS {
        for _ in 0..STARTS_PER_SEGMENT {
            let set = fresh_set_up(&mut e2e, &mut report)?;
            report.count(set.first.attempted, set.first.failed);
            report.check(
                set.first.sealed.first().copied() == round0,
                "every fresh server seals the same first round",
            );
        }
        for _ in 0..RESTARTS_PER_SEGMENT {
            let (restarted, restart_conn, secs, welcome) =
                start_session(&ctx.lovm, &restart_dir, ctx.threads)?;
            e2e.recover_s.push(secs);
            report.check(
                welcome.rounds == RESTART_ROUNDS && Some(welcome.digest) == resumed_digest,
                "a restarted server resumes at the journal's last sealed round and digest",
            );
            drop((restart_conn, restarted));
        }
        clear_passes(
            &source,
            min_rounds,
            &mut cleared,
            &mut e2e.clear_ms,
            &mut report,
        );
        // The last segment runs on until the tails have their samples.
        let until = Until::Deadline {
            at: Instant::now() + segment,
            min_rounds: if s + 1 == SEGMENTS { min_rounds } else { 0 },
        };
        let from = RESTART_ROUNDS + timed.as_ref().map_or(0, |t| t.rounds_sent);
        let run = pipelined(&mut conn, &source, WINDOW, from, until);
        match &mut timed {
            Some(t) => t.absorb(run),
            None => timed = Some(run),
        }
    }
    let timed = timed.expect("at least one segment");
    e2e.rss_mb = server.peak_rss_mb();
    e2e.round_rate = timed.round_rate.clone();
    e2e.block_p99_us = timed.block_p99_us.clone();
    e2e.bid_us = timed.bid_rtt_us.clone();
    e2e.seal_ms = timed.seal_rtt_ms.clone();
    report.count(timed.attempted, timed.failed);
    drop(conn);
    drop(server);

    let served: Vec<_> = first.sealed.into_iter().chain(timed.sealed).collect();
    let reference = check_seals(
        &dir,
        &source,
        RESTART_ROUNDS + timed.rounds_sent,
        &served,
        &mut report,
    )?;
    report.check(
        cleared
            .iter()
            .zip(&reference)
            .all(|(c, r)| same_outcome(c, &r.outcome)),
        "the mechanism alone reproduces every served round",
    );
    report.metrics = e2e.metrics();
    Ok(report)
}
