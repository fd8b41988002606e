//! The pinned market configuration every workload shares, and the
//! in-process session runs the checks compare against.

use crate::gen::Arrival;
use auction::{AuctionOutcome, Bid, MarketTopology};
use ingest::{Admission, IngestConfig, RoundCollector};
use journal::Digest;
use lovm_core::serve::{MarketSession, SealedOutcome, SessionConfig};
use lovm_core::LovmConfig;
use std::path::{Path, PathBuf};
use workload::arrivals::TimedBid;

/// Mechanism flags of the served market: `lovm serve --v 20 --budget 2 --k 4`.
pub const SERVE_ARGS: [&str; 6] = ["--v", "20", "--budget", "2", "--k", "4"];

/// Session name every served workload uses.
pub const SESSION: &str = "bench";

/// A snapshot every 32 sealed rounds. Snapshot seals (3%) stay out of
/// `seal_p90_ms`; at `lovm serve`'s default of 8 they are 12.5% of seals,
/// and the p90 flips between plain and snapshot seals.
pub const SNAPSHOT_EVERY: usize = 32;

/// No compaction. Compaction rescans the journal, whose line parse is
/// quadratic in line length, so at any cadence it would dominate the
/// served rounds.
pub const COMPACT_EVERY: usize = 0;

/// The mechanism `SERVE_ARGS` select, with the topology pinned.
pub fn lovm_config() -> LovmConfig {
    LovmConfig {
        v: 20.0,
        budget_per_round: 2.0,
        max_winners: Some(4),
        topology: MarketTopology::Monolithic,
        ..LovmConfig::default()
    }
}

/// The journal file `lovm serve` keeps for [`SESSION`] under `dir`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(format!("{SESSION}.jsonl"))
}

/// The session configuration `lovm serve` builds for [`SESSION`] under
/// `dir` (same file names, same cadences).
pub fn session_config(dir: &Path) -> SessionConfig {
    let mut cfg = SessionConfig::new(journal_path(dir));
    cfg.snapshot = Some(dir.join(format!("{SESSION}.snapshot.json")));
    cfg.snapshot_every = SNAPSHOT_EVERY;
    cfg.compact_every = COMPACT_EVERY;
    cfg.lovm = lovm_config();
    cfg.ingest = IngestConfig::default();
    cfg
}

/// Feeds `rounds` through a fresh in-process session journaling under
/// `dir`, sealing after each; returns every seal's outcome and the number
/// of arrivals that were not stored.
pub fn run_session(
    dir: &Path,
    rounds: impl IntoIterator<Item = Vec<Arrival>>,
) -> std::io::Result<(MarketSession, Vec<SealedOutcome>, u64)> {
    std::fs::create_dir_all(dir)?;
    let mut session = MarketSession::open(session_config(dir))?;
    let mut sealed = Vec::new();
    let mut refused = 0;
    for round in rounds {
        for a in round {
            let (_, admission) = session.offer(a.at, a.bid)?;
            if admission != Admission::Stored {
                refused += 1;
            }
        }
        sealed.push(session.seal()?);
    }
    Ok((session, sealed, refused))
}

/// Feeds `rounds` in order through a fresh collector configured as the
/// served market is, seals after each round, and hands `clear` the round's
/// index and sealed bid set. Returns the arrivals it did not store.
pub fn collect_rounds(
    rounds: impl IntoIterator<Item = Vec<Arrival>>,
    mut clear: impl FnMut(usize, &[Bid]),
) -> u64 {
    let mut collector = RoundCollector::new(&IngestConfig::default());
    let mut seq = 0;
    let mut refused = 0;
    for (r, round) in rounds.into_iter().enumerate() {
        for a in round {
            let tb = TimedBid {
                at: a.at,
                bid: a.bid,
            };
            if collector.offer_at(seq, tb) != Admission::Stored {
                refused += 1;
            }
            seq += 1;
        }
        clear(r, collector.seal_next().sealed.bids());
    }
    refused
}

/// Winners, payments and welfare equal, bit for bit.
pub fn same_outcome(a: &AuctionOutcome, b: &AuctionOutcome) -> bool {
    a.virtual_welfare.to_bits() == b.virtual_welfare.to_bits()
        && a.winners.len() == b.winners.len()
        && a.winners
            .iter()
            .zip(&b.winners)
            .all(|(x, y)| x.bidder == y.bidder && x.payment.to_bits() == y.payment.to_bits())
}

/// Content hash of a file (the check that an open left it untouched).
pub fn file_hash(path: &Path) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let mut digest = Digest::new();
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.fold_u64(u64::from_le_bytes(word));
    }
    digest.fold_usize(bytes.len());
    Ok(digest.value())
}

/// `VmHWM` of a process, in MB (`pid` "self" for this process).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
