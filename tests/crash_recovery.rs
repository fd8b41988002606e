//! The crash-recovery contract, adversarially: truncate a recorded
//! market journal at *every* byte offset of its tail and require that
//! recovery always lands on the last fully-sealed round the prefix
//! commits — digest and backlog bit-identical to an uninterrupted
//! reference at that round — and that the recovered session then
//! continues bit-identically. Run once without snapshots (pure replay)
//! and once with a snapshot cadence whose snapshot file is *ahead* of
//! most truncation points, forcing the fall-back-to-full-replay path.
//!
//! The oracle for "what the prefix commits" is computed here from the
//! raw bytes (complete `outcome` lines), independently of the journal
//! crate's own scanner: each sweep checks the recovered state and the
//! file, which must be the reference's bytes through that outcome line.
//! Then single-pass recovery at its edges: an unparseable line before a
//! snapshot, rounds and tails past the hold cap, and what
//! [`MarketSession::recovery`] reports.

use auction::bid::Bid;
use journal::{Base, Recovery, HOLD_EVENTS};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use sustainable_fl::core::serve::{MarketSession, SealedOutcome, SessionConfig};
use sustainable_fl::core::LovmConfig;

const ROUNDS: usize = 4;
const BIDDERS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "lovm-crash-recovery-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn session_cfg(dir: &Path, snapshot_every: usize) -> SessionConfig {
    let mut cfg = SessionConfig::new(dir.join("market.jsonl"));
    cfg.snapshot = Some(dir.join("market.snapshot.json"));
    cfg.snapshot_every = snapshot_every;
    cfg.lovm = LovmConfig {
        v: 20.0,
        budget_per_round: 2.0,
        max_winners: Some(3),
        ..LovmConfig::default()
    };
    cfg
}

/// Deterministic offers for round `r`: enough variety that every round
/// has winners, losers, and distinct payments.
fn offers_for_round(r: usize) -> Vec<(f64, Bid)> {
    (0..BIDDERS)
        .map(|i| {
            let at = r as f64 + (i as f64 + 0.5) / (BIDDERS as f64 + 1.0);
            let cost = 0.7 + ((r * 5 + i * 3) % 7) as f64 * 0.23;
            let data = 90 + ((r * 17 + i * 41) % 250);
            let quality = 0.6 + ((r + 2 * i) % 4) as f64 * 0.1;
            (at, Bid::new(i, cost, data, quality))
        })
        .collect()
}

fn drive(session: &mut MarketSession, rounds: std::ops::Range<usize>) -> Vec<SealedOutcome> {
    rounds
        .map(|r| {
            for (at, bid) in offers_for_round(r) {
                session.offer(at, bid).unwrap();
            }
            session.seal().unwrap()
        })
        .collect()
}

fn torn_write_property(snapshot_every: usize, tag: &str) {
    // Record the reference: ROUNDS sealed rounds plus one more round's
    // arrivals journaled but never sealed, so the torn region spans
    // uncommitted arrivals as well as mid-line cuts.
    let ref_dir = temp_dir(&format!("{tag}-ref"));
    let mut reference = MarketSession::open(session_cfg(&ref_dir, snapshot_every)).unwrap();
    let ref_outcomes = drive(&mut reference, 0..ROUNDS);
    for (at, bid) in offers_for_round(ROUNDS) {
        reference.offer(at, bid).unwrap();
    }
    drop(reference);
    let journal_bytes = std::fs::read(ref_dir.join("market.jsonl")).unwrap();
    let snapshot_bytes = std::fs::read(ref_dir.join("market.snapshot.json")).ok();
    assert_eq!(
        snapshot_bytes.is_some(),
        snapshot_every > 0,
        "snapshot presence must follow the cadence"
    );

    // Independent oracle: a round is committed iff its outcome line's
    // trailing newline survives the cut.
    let mut outcome_line_ends = Vec::new();
    let mut offset = 0usize;
    for line in journal_bytes.split_inclusive(|&b| b == b'\n') {
        offset += line.len();
        if line.starts_with(br#"{"event":"outcome""#) && line.ends_with(b"\n") {
            outcome_line_ends.push(offset);
        }
    }
    assert_eq!(outcome_line_ends.len(), ROUNDS);
    let expected_rounds = |cut: usize| outcome_line_ends.iter().filter(|&&end| end <= cut).count();

    let crash_dir = temp_dir(&format!("{tag}-crash"));
    let journal_path = crash_dir.join("market.jsonl");
    let snapshot_path = crash_dir.join("market.snapshot.json");
    let mut continued: HashSet<usize> = HashSet::new();
    for cut in 0..=journal_bytes.len() {
        std::fs::write(&journal_path, &journal_bytes[..cut]).unwrap();
        // The snapshot survives the crash in full (its write is atomic);
        // at most cuts it now points past the truncated journal.
        match &snapshot_bytes {
            Some(bytes) => std::fs::write(&snapshot_path, bytes).unwrap(),
            None => {
                std::fs::remove_file(&snapshot_path).ok();
            }
        }
        let mut recovered = MarketSession::open(session_cfg(&crash_dir, snapshot_every))
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let rounds = expected_rounds(cut);
        assert_eq!(
            recovered.recovered_rounds(),
            rounds,
            "cut at byte {cut} must land on the last fully-sealed round"
        );
        let kept = outcome_line_ends
            .iter()
            .copied()
            .filter(|&end| end <= cut)
            .max()
            .unwrap_or(0);
        assert_eq!(
            std::fs::read(&journal_path).unwrap(),
            journal_bytes[..kept],
            "recovery at cut {cut} truncates to the last outcome line"
        );
        let (want_digest, want_backlog) = if rounds == 0 {
            (journal::Digest::new().value(), 0.0)
        } else {
            (
                ref_outcomes[rounds - 1].digest,
                ref_outcomes[rounds - 1].backlog,
            )
        };
        assert_eq!(recovered.digest(), want_digest, "digest at cut {cut}");
        assert_eq!(
            recovered.backlog().to_bits(),
            want_backlog.to_bits(),
            "backlog bits at cut {cut}"
        );
        // Once per distinct landing round: the recovered session must
        // continue bit-identically with the reference (the client
        // re-sends whatever the truncation discarded).
        if continued.insert(rounds) {
            let tail = drive(&mut recovered, rounds..ROUNDS);
            assert_eq!(
                tail,
                ref_outcomes[rounds..].to_vec(),
                "continuation after recovery at cut {cut} diverged"
            );
        }
    }
    // Every landing round occurred, so the sweep really covered the
    // whole spectrum from empty journal to fully committed.
    assert_eq!(continued.len(), ROUNDS + 1);
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn torn_journal_always_recovers_the_last_sealed_round() {
    torn_write_property(0, "plain");
}

/// Same sweep with snapshots on: for cuts before the snapshot's
/// boundary the snapshot is ahead of the journal and recovery must
/// ignore it and fall back to full replay; for cuts after, it
/// fast-forwards — either way landing bit-identically.
#[test]
fn torn_journal_recovers_despite_a_snapshot_from_the_future() {
    torn_write_property(2, "snap");
}

/// The sweep again over a *compacted* journal: the file begins with a
/// compaction header whose embedded snapshot stands in for the dropped
/// prefix. Truncation at every tail byte offset must land exactly where
/// the raw bytes dictate — a cut inside the header falls all the way
/// back to an empty market (the header commits or it doesn't), a cut in
/// the suffix lands on the last committed outcome past the base — and
/// every landing continues bit-identically.
#[test]
fn torn_compacted_journal_always_recovers() {
    let ref_dir = temp_dir("compacted-ref");
    let mut cfg = session_cfg(&ref_dir, 2);
    cfg.compact_every = 3;
    let mut reference = MarketSession::open(cfg).unwrap();
    let ref_outcomes = drive(&mut reference, 0..ROUNDS);
    for (at, bid) in offers_for_round(ROUNDS) {
        reference.offer(at, bid).unwrap();
    }
    drop(reference);
    let journal_bytes = std::fs::read(ref_dir.join("market.jsonl")).unwrap();
    let snapshot_bytes = std::fs::read(ref_dir.join("market.snapshot.json")).unwrap();

    // Independent oracle from the raw bytes: the sealed rounds the
    // (complete) header's embedded snapshot covers, plus every complete
    // outcome line at or before the cut.
    let header_line = journal_bytes
        .split_inclusive(|&b| b == b'\n')
        .next()
        .unwrap();
    assert!(
        header_line.starts_with(br#"{"event":"compact""#) && header_line.ends_with(b"\n"),
        "compaction must have rewritten the journal behind a header"
    );
    let header_end = header_line.len();
    let header =
        metrics::json::JsonValue::parse(std::str::from_utf8(header_line).unwrap().trim()).unwrap();
    let base_rounds = header
        .get("snapshot")
        .and_then(|s| s.get("collector"))
        .and_then(|c| c.get("next_round"))
        .and_then(|r| r.as_usize())
        .unwrap();
    assert!(
        base_rounds > 0 && base_rounds < ROUNDS,
        "the sweep needs sealed rounds on both sides of the base, got base {base_rounds}"
    );
    let mut outcome_line_ends = Vec::new();
    let mut offset = 0usize;
    for line in journal_bytes.split_inclusive(|&b| b == b'\n') {
        offset += line.len();
        if line.starts_with(br#"{"event":"outcome""#) && line.ends_with(b"\n") {
            outcome_line_ends.push(offset);
        }
    }
    assert_eq!(outcome_line_ends.len(), ROUNDS - base_rounds);
    let expected_rounds = |cut: usize| {
        if cut < header_end {
            0
        } else {
            base_rounds + outcome_line_ends.iter().filter(|&&end| end <= cut).count()
        }
    };

    let crash_dir = temp_dir("compacted-crash");
    let journal_path = crash_dir.join("market.jsonl");
    let snapshot_path = crash_dir.join("market.snapshot.json");
    let mut continued: HashSet<usize> = HashSet::new();
    for cut in 0..=journal_bytes.len() {
        std::fs::write(&journal_path, &journal_bytes[..cut]).unwrap();
        // The snapshot file survives every crash in full (atomic write);
        // at most cuts it is now *ahead* of the truncated journal and
        // must be ignored in favour of the header's base.
        std::fs::write(&snapshot_path, &snapshot_bytes).unwrap();
        let mut crash_cfg = session_cfg(&crash_dir, 2);
        crash_cfg.compact_every = 3;
        let mut recovered = MarketSession::open(crash_cfg)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let rounds = expected_rounds(cut);
        assert_eq!(
            recovered.recovered_rounds(),
            rounds,
            "cut at byte {cut} must land on the last committed round"
        );
        let kept = if cut < header_end {
            0
        } else {
            outcome_line_ends
                .iter()
                .copied()
                .filter(|&end| end <= cut)
                .fold(header_end, usize::max)
        };
        assert_eq!(
            std::fs::read(&journal_path).unwrap(),
            journal_bytes[..kept],
            "recovery at cut {cut} truncates to the header or the last outcome line"
        );
        let (want_digest, want_backlog) = if rounds == 0 {
            (journal::Digest::new().value(), 0.0)
        } else {
            (
                ref_outcomes[rounds - 1].digest,
                ref_outcomes[rounds - 1].backlog,
            )
        };
        assert_eq!(recovered.digest(), want_digest, "digest at cut {cut}");
        assert_eq!(
            recovered.backlog().to_bits(),
            want_backlog.to_bits(),
            "backlog bits at cut {cut}"
        );
        if continued.insert(rounds) {
            let tail = drive(&mut recovered, rounds..ROUNDS);
            assert_eq!(
                tail,
                ref_outcomes[rounds..].to_vec(),
                "continuation after recovery at cut {cut} diverged"
            );
        }
    }
    // Landing rounds: the empty market (mid-header cuts), the base, and
    // every suffix round — rounds the compaction dropped cannot recur.
    let want: HashSet<usize> = std::iter::once(0).chain(base_rounds..=ROUNDS).collect();
    assert_eq!(continued, want);
    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Length and FNV-1a hash of the file at `path`.
fn fingerprint(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), fnv1a64(&bytes))
}

/// The journal and snapshot files a session leaves after `PINNED_ROUNDS`
/// sealed rounds plus one round of unsealed arrivals, snapshotting every
/// 2 rounds and compacting every `compact_every` (0: never).
fn pinned_files(compact_every: usize, tag: &str) -> [(usize, u64); 2] {
    const PINNED_ROUNDS: usize = 10;
    let dir = temp_dir(tag);
    let mut cfg = session_cfg(&dir, 2);
    cfg.compact_every = compact_every;
    let mut session = MarketSession::open(cfg).unwrap();
    drive(&mut session, 0..PINNED_ROUNDS);
    for (at, bid) in offers_for_round(PINNED_ROUNDS) {
        session.offer(at, bid).unwrap();
    }
    drop(session);
    let files = [
        fingerprint(&dir.join("market.jsonl")),
        fingerprint(&dir.join("market.snapshot.json")),
    ];
    std::fs::remove_dir_all(&dir).ok();
    files
}

/// What a session writes is pinned to constants, not to a second run of
/// the same build: a change to a journal or snapshot rendering, or to
/// what a compaction copies, fails here. With compaction every 3 rounds
/// the journal is a header embedding the snapshot of rounds 0-7, round 8
/// as the last compaction copied it, round 9 and the unsealed arrivals.
#[test]
fn journal_and_snapshot_bytes_are_pinned() {
    assert_eq!(
        pinned_files(0, "pinned-plain"),
        [(10032, 0xaa7da6d7d9e09a16), (388, 0x7a546c69a7f60b4c)],
        "journal and snapshot (length, FNV-1a) without compaction"
    );
    assert_eq!(
        pinned_files(3, "pinned-compact"),
        [(2552, 0x9dc7f40ae928d4bc), (388, 0x7a546c69a7f60b4c)],
        "journal and snapshot (length, FNV-1a) with compaction every 3 rounds"
    );
}

/// The byte length of each line of `bytes`, newline included.
fn line_lengths(bytes: &[u8]) -> Vec<usize> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::len)
        .collect()
}

/// Lines one round of [`offers_for_round`] writes: arrivals, seal, outcome.
const ROUND_LINES: usize = BIDDERS + 2;

/// A newline-terminated line that does not parse, in round 1 of a 4-round
/// journal whose snapshot sits after round 2, ends the committed prefix:
/// the complete rounds after it do not count, the snapshot is never
/// reached and is ignored, and recovery lands after round 0 with the file
/// truncated to round 0's outcome line.
#[test]
fn an_unparseable_line_ends_the_prefix_before_the_snapshot() {
    let dir = temp_dir("unparseable");
    let cfg = session_cfg(&dir, 3);
    let mut session = MarketSession::open(cfg.clone()).unwrap();
    let outcomes = drive(&mut session, 0..ROUNDS);
    drop(session);
    let snapshot = journal::read_snapshot(dir.join("market.snapshot.json"))
        .unwrap()
        .unwrap();
    assert_eq!(
        snapshot.collector.next_round, 3,
        "the snapshot follows round 2"
    );

    let journal_path = dir.join("market.jsonl");
    let bytes = std::fs::read(&journal_path).unwrap();
    let lengths = line_lengths(&bytes);
    let round0_end: usize = lengths[..ROUND_LINES].iter().sum();
    // Round 1's seal line, cut short but still newline-terminated.
    let seal_start: usize = lengths[..ROUND_LINES + BIDDERS].iter().sum();
    let seal_end = seal_start + lengths[ROUND_LINES + BIDDERS];
    let mut damaged = bytes[..seal_start].to_vec();
    damaged.extend_from_slice(b"{\"event\":\"seal\",\"round\":\n");
    damaged.extend_from_slice(&bytes[seal_end..]);
    std::fs::write(&journal_path, &damaged).unwrap();

    let recovered = MarketSession::open(cfg).unwrap();
    assert_eq!(recovered.recovered_rounds(), 1);
    assert_eq!(recovered.digest(), outcomes[0].digest);
    assert_eq!(recovered.backlog().to_bits(), outcomes[0].backlog.to_bits());
    assert_eq!(recovered.recovery().base, Base::None);
    assert_eq!(std::fs::read(&journal_path).unwrap(), bytes[..round0_end]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Offers `count` re-bids from the round's bidders at round `r`'s first
/// arrival time; the collector keeps each bidder's freshest.
fn rebid(session: &mut MarketSession, r: usize, count: usize) {
    let offers = offers_for_round(r);
    for k in 0..count {
        let (at, bid) = offers[k % offers.len()];
        session.offer(at, bid).unwrap();
    }
}

/// A committed round of more events than recovery holds is read again
/// once its outcome line parses, and an uncommitted tail of more arrivals
/// than that is discarded: recovery lands on the last committed round,
/// bit for bit, and the file keeps exactly the committed bytes.
#[test]
fn rounds_and_tails_past_the_hold_cap_recover() {
    let dir = temp_dir("hold-cap");
    let cfg = session_cfg(&dir, 0);
    let mut session = MarketSession::open(cfg.clone()).unwrap();
    drive(&mut session, 0..2);
    let journal_path = dir.join("market.jsonl");
    let before_big = std::fs::metadata(&journal_path).unwrap().len();
    rebid(&mut session, 2, HOLD_EVENTS + 10);
    let sealed = session.seal().unwrap();
    let events = session.journal_events();
    let committed = std::fs::read(&journal_path).unwrap();
    rebid(&mut session, 3, HOLD_EVENTS + 10);
    drop(session);
    let tail = std::fs::metadata(&journal_path).unwrap().len() - committed.len() as u64;

    let recovered = MarketSession::open(cfg.clone()).unwrap();
    assert_eq!(recovered.recovered_rounds(), 3);
    assert_eq!(recovered.digest(), sealed.digest);
    assert_eq!(recovered.backlog().to_bits(), sealed.backlog.to_bits());
    assert_eq!(std::fs::read(&journal_path).unwrap(), committed);
    let big_round = committed.len() as u64 - before_big;
    assert_eq!(
        recovered.recovery(),
        Recovery {
            base: Base::None,
            // Every line once, the big round's twice.
            bytes_read: committed.len() as u64 + tail + big_round,
            events_replayed: events,
            discarded_bytes: tail,
            committed_bytes: committed.len() as u64,
            committed_events: events,
        }
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery reads each committed byte once — on a journal replayed from
/// the start, one a snapshot covers, and a compacted one — and reports
/// the base it started from and the events it replayed on top. A
/// snapshot ahead of the journal costs the one allowed second pass.
#[test]
fn recovery_reads_the_committed_journal_once() {
    let reopen = |cfg: &SessionConfig| {
        let recovered = MarketSession::open(cfg.clone()).unwrap();
        let len = std::fs::metadata(&cfg.journal).unwrap().len();
        (recovered.recovery(), len)
    };
    let round_events = ROUND_LINES as u64;

    // No snapshot: every event replays.
    let plain = temp_dir("once-plain");
    let cfg = session_cfg(&plain, 0);
    drive(&mut MarketSession::open(cfg.clone()).unwrap(), 0..ROUNDS);
    let (rec, len) = reopen(&cfg);
    let all = ROUNDS as u64 * round_events;
    assert_eq!(
        rec,
        Recovery {
            base: Base::None,
            bytes_read: len,
            events_replayed: all,
            discarded_bytes: 0,
            committed_bytes: len,
            committed_events: all,
        }
    );

    // A snapshot after round 2: only round 3 replays.
    let snap = temp_dir("once-snapshot");
    let cfg = session_cfg(&snap, 3);
    drive(&mut MarketSession::open(cfg.clone()).unwrap(), 0..ROUNDS);
    let (rec, len) = reopen(&cfg);
    assert_eq!(
        rec,
        Recovery {
            base: Base::Snapshot,
            bytes_read: len,
            events_replayed: round_events,
            discarded_bytes: 0,
            committed_bytes: len,
            committed_events: all,
        }
    );

    // Compacted after round 3: the header's base, then round 4. The
    // snapshot file sits at the base too, and wins the tie.
    let compacted = temp_dir("once-compacted");
    let mut cfg = session_cfg(&compacted, 2);
    cfg.compact_every = 2;
    drive(&mut MarketSession::open(cfg.clone()).unwrap(), 0..5);
    let want = |base| Recovery {
        base,
        bytes_read: std::fs::metadata(&cfg.journal).unwrap().len(),
        events_replayed: round_events,
        discarded_bytes: 0,
        committed_bytes: std::fs::metadata(&cfg.journal).unwrap().len(),
        committed_events: 5 * round_events,
    };
    assert_eq!(reopen(&cfg).0, want(Base::Snapshot));
    std::fs::remove_file(cfg.snapshot.as_ref().unwrap()).unwrap();
    assert_eq!(reopen(&cfg).0, want(Base::Compaction));

    // The snapshot after round 2 over a journal cut back to round 1: the
    // first pass never meets it, and a second pass replays from the start.
    let ahead = temp_dir("once-ahead");
    let cfg = session_cfg(&ahead, 3);
    drive(&mut MarketSession::open(cfg.clone()).unwrap(), 0..ROUNDS);
    let bytes = std::fs::read(&cfg.journal).unwrap();
    let two_rounds: usize = line_lengths(&bytes)[..2 * ROUND_LINES].iter().sum();
    std::fs::write(&cfg.journal, &bytes[..two_rounds]).unwrap();
    let (rec, len) = reopen(&cfg);
    assert_eq!(
        rec,
        Recovery {
            base: Base::None,
            bytes_read: 2 * len,
            events_replayed: 2 * round_events,
            discarded_bytes: 0,
            committed_bytes: len,
            committed_events: 2 * round_events,
        }
    );
    for dir in [plain, snap, compacted, ahead] {
        std::fs::remove_dir_all(&dir).ok();
    }
}
