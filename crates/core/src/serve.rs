//! The event-sourced market server behind `lovm serve`.
//!
//! A [`MarketSession`] is one long-lived auction market: bids arrive over
//! time, rounds seal on demand, and *every* state transition — arrival,
//! seal, outcome — is journaled as one JSON line (`crates/journal`)
//! before it is applied. The outcome line is fsynced, making it the
//! commit record: a `SIGKILL` at any instant loses at most the un-sealed
//! round in flight, and [`MarketSession::open`] recovers by truncating
//! the torn tail, optionally fast-forwarding from the latest snapshot,
//! and replaying the remaining events through the *same* code path the
//! live server runs — verifying the recomputed digest against every
//! journaled outcome, so a recovered session is bit-identical to one
//! that never crashed.
//!
//! Long-lived sessions stay bounded on disk: every `compact_every`
//! sealed rounds the journal is rewritten to drop the prefix the latest
//! snapshot covers (`journal::compact`'s crash-safe temp → fsync →
//! rename → directory-fsync dance), leaving a self-contained header +
//! post-snapshot suffix that recovery replays transparently.
//!
//! [`MarketServer`] wraps sessions in a zero-dependency
//! `std::net::TcpListener` accept loop: one thread per connection, which
//! reads a request line, decides it and answers on that same thread (a
//! disconnected peer is a graceful stop, never a panic). Responses are
//! buffered and flushed once per burst — when no complete request is
//! waiting, and around every `hello`, `follow` and `seal` — and sockets
//! run with `TCP_NODELAY`, so a flush is one deliberate send that no
//! delayed ACK holds back. Many sessions run concurrently, each with its
//! own journal file keyed by the client-chosen session name, and none
//! waits on another's open or seal (see `Hub`).
//!
//! **Replication.** The journal file is the replication log. All a
//! session shares with its followers is a mark: committed through byte B
//! of the journal file with identity G (its device and inode), published
//! after each open and seal. A connection that says `follow` becomes a
//! feed that opens the file and, once the mark names it, copies committed
//! bytes to its socket: a `bootstrap` line carrying `bytes`, those bytes,
//! a `live` marker, then each range the mark moves past. A compaction
//! renames a new file into place, so the feed bootstraps again on the same
//! connection. A follower ([`follow`], run by `lovm follow`) installs each
//! bootstrap as its journal and replays each live line through the *same*
//! `run_round` code path the leader ran, verifying every journaled digest
//! bitwise, so it can be promoted with state exact to the bit.
//!
//! Environment: `LOVM_JOURNAL` points the CLI at the journal directory,
//! `LOVM_SNAPSHOT_EVERY` sets the snapshot cadence in sealed rounds and
//! `LOVM_COMPACT` the compaction cadence (0 disables either; malformed
//! values panic at startup, a silently ignored override being worse
//! than a crash).

use crate::lovm::{Lovm, LovmConfig};
use auction::bid::Bid;
use auction::outcome::AuctionOutcome;
use ingest::stats::{IngestStats, StreamTotals};
use ingest::{Admission, CollectedRound, IngestConfig, RoundCollector};
use journal::{Commit, Digest, JournalEvent, JournalWriter, OutcomeMark, Recovery, Snapshot};
use metrics::json::JsonValue;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use workload::arrivals::TimedBid;

/// Environment variable naming the server's journal directory.
pub const JOURNAL_ENV: &str = "LOVM_JOURNAL";

/// Environment variable setting the snapshot cadence in sealed rounds
/// (`LOVM_SNAPSHOT_EVERY=8`; 0 disables snapshots).
pub const SNAPSHOT_EVERY_ENV: &str = "LOVM_SNAPSHOT_EVERY";

/// Snapshot cadence from the environment (default 8).
///
/// # Panics
///
/// Panics with a descriptive message when `LOVM_SNAPSHOT_EVERY` is set
/// to anything but an unsigned round count.
pub fn snapshot_every_from_env() -> usize {
    let raw = std::env::var(SNAPSHOT_EVERY_ENV).ok();
    parse_cadence(SNAPSHOT_EVERY_ENV, raw.as_deref(), 8, "snapshots")
}

/// Environment variable setting the journal-compaction cadence in sealed
/// rounds (`LOVM_COMPACT=16`; 0 — the default — disables compaction).
pub const COMPACT_EVERY_ENV: &str = "LOVM_COMPACT";

/// Compaction cadence from the environment (default 0 = disabled).
///
/// # Panics
///
/// Panics with a descriptive message when `LOVM_COMPACT` is set to
/// anything but an unsigned round count.
pub fn compact_every_from_env() -> usize {
    let raw = std::env::var(COMPACT_EVERY_ENV).ok();
    parse_cadence(COMPACT_EVERY_ENV, raw.as_deref(), 0, "compaction")
}

/// Parses the sealed-round cadence `var` holds (`default` when unset);
/// `disables` names what 0 turns off, for the panic message.
fn parse_cadence(var: &str, raw: Option<&str>, default: usize, disables: &str) -> usize {
    match raw {
        None => default,
        Some(raw) => raw.trim().parse::<usize>().unwrap_or_else(|_| {
            panic!("{var} must be a sealed-round count (0 disables {disables}), got `{raw}`")
        }),
    }
}

/// Journal directory from the environment (default `lovm-journal`).
pub fn journal_dir_from_env() -> PathBuf {
    std::env::var_os(JOURNAL_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("lovm-journal"))
}

/// Configuration of one journaled market session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The append-only journal file.
    pub journal: PathBuf,
    /// Snapshot file (`None` disables snapshots entirely).
    pub snapshot: Option<PathBuf>,
    /// Snapshot every this many sealed rounds (0 disables).
    pub snapshot_every: usize,
    /// Compact the journal every this many sealed rounds, dropping the
    /// prefix the latest snapshot covers (0 disables; nonzero requires
    /// snapshots to be enabled).
    pub compact_every: usize,
    /// Mechanism configuration — must match across restarts for the
    /// replay-equality guarantee to hold (the digest check catches a
    /// mismatch at recovery).
    pub lovm: LovmConfig,
    /// Ingestion configuration — same caveat as `lovm`.
    pub ingest: IngestConfig,
}

impl SessionConfig {
    /// A session journaling to `journal`, with the snapshot beside it
    /// (`<journal>.snapshot`) at the default cadence.
    pub fn new(journal: impl Into<PathBuf>) -> Self {
        let journal = journal.into();
        let mut snapshot = journal.clone().into_os_string();
        snapshot.push(".snapshot");
        SessionConfig {
            journal,
            snapshot: Some(PathBuf::from(snapshot)),
            snapshot_every: 8,
            compact_every: 0,
            lovm: LovmConfig::default(),
            ingest: IngestConfig::default(),
        }
    }
}

/// What [`MarketSession::seal`] hands back (and journals).
#[derive(Debug, Clone, PartialEq)]
pub struct SealedOutcome {
    /// Round index just sealed.
    pub round: usize,
    /// Ingestion telemetry of the round.
    pub stats: IngestStats,
    /// The auction outcome.
    pub outcome: AuctionOutcome,
    /// Virtual-queue backlog after the round.
    pub backlog: f64,
    /// Running state digest after the round.
    pub digest: u64,
}

/// One event-sourced market: collector + mechanism + journal (see the
/// module docs for the durability contract).
#[derive(Debug)]
pub struct MarketSession {
    cfg: SessionConfig,
    writer: JournalWriter,
    market: Market,
    rounds_since_snapshot: usize,
    rounds_since_compact: usize,
    recovered_rounds: usize,
    recovery: Recovery,
    /// The most recent snapshot on disk and the mark of the commit
    /// boundary it sits at in the current journal file — where the next
    /// compaction may drop the journal prefix up to.
    last_snapshot: Option<(Snapshot, OutcomeMark)>,
}

/// The market state a journal replays into: everything but the journal.
#[derive(Debug)]
struct Market {
    collector: RoundCollector,
    lovm: Lovm,
    pool: par::Pool,
    digest: Digest,
    welfare: f64,
    spend: f64,
    next_seq: u64,
    /// Session-lifetime ingestion rollup. Folded in `run_round`, which
    /// replay shares — so recovery rebuilds the same totals a session
    /// that never crashed would report via the `stats` command.
    totals: StreamTotals,
}

fn corrupt(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Market {
    /// An empty market, or (`snapshot`) the market a snapshot froze.
    fn new(cfg: &SessionConfig, snapshot: Option<&Snapshot>) -> Market {
        let mut lovm = Lovm::new(cfg.lovm);
        let pool = par::Pool::auto();
        let Some(snap) = snapshot else {
            return Market {
                collector: RoundCollector::new(&cfg.ingest),
                lovm,
                pool,
                digest: Digest::new(),
                welfare: 0.0,
                spend: 0.0,
                next_seq: 0,
                totals: StreamTotals::default(),
            };
        };
        lovm.restore_backlog(snap.backlog);
        Market {
            collector: RoundCollector::restore(&cfg.ingest, &snap.collector),
            lovm,
            pool,
            digest: Digest::resume(snap.digest),
            welfare: snap.welfare,
            spend: snap.spend,
            next_seq: snap.collector.next_seq,
            // Resume the rollup from the snapshot so the fast-forwarded
            // prefix still counts; replay re-absorbs the suffix.
            totals: snap.totals,
        }
    }

    /// Re-applies one committed journal event through the live code
    /// path, verifying outcomes bitwise via the running digest.
    fn replay_event(&mut self, ev: &JournalEvent) -> std::io::Result<()> {
        match ev {
            JournalEvent::Arrival { seq, at, bid } => {
                self.next_seq = self.next_seq.max(seq + 1);
                self.collector
                    .offer_at(*seq, TimedBid { at: *at, bid: *bid });
            }
            JournalEvent::Seal { round, sealed } => {
                let (collected, _) = self.run_round();
                if collected.sealed.round() != *round
                    || collected.sealed.bids() != sealed.as_slice()
                {
                    return Err(corrupt(format!(
                        "replay diverged at the seal of round {round}: the journal's \
                         sealed set does not match the recomputed one"
                    )));
                }
            }
            JournalEvent::Outcome {
                round,
                backlog,
                digest,
                ..
            } => {
                if self.collector.next_round() != round + 1
                    || self.digest.value() != *digest
                    || self.lovm.queue_backlog().to_bits() != backlog.to_bits()
                {
                    return Err(corrupt(format!(
                        "replay diverged at the outcome of round {round}: recomputed \
                         digest {:016x} vs journaled {digest:016x}",
                        self.digest.value()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Seals the next round and folds everything economic — sealed bids,
    /// awards, welfare, spend, backlog — into the running digest. Shared
    /// verbatim by the live path and replay: that sharing *is* the
    /// recovery guarantee.
    fn run_round(&mut self) -> (CollectedRound, AuctionOutcome) {
        let collected = self.collector.seal_next();
        self.totals.absorb(&collected.stats);
        let outcome = self.lovm.round_on(collected.sealed.bids(), self.pool);
        let backlog = self.lovm.queue_backlog();
        self.digest.fold_usize(collected.sealed.round());
        for b in collected.sealed.bids() {
            self.digest.fold_usize(b.bidder);
            self.digest.fold_f64(b.cost);
            self.digest.fold_usize(b.data_size);
            self.digest.fold_f64(b.quality);
        }
        for a in &outcome.winners {
            self.digest.fold_usize(a.bidder);
            self.digest.fold_f64(a.cost);
            self.digest.fold_f64(a.value);
            self.digest.fold_f64(a.payment);
        }
        self.digest.fold_f64(outcome.virtual_welfare);
        self.digest.fold_f64(outcome.total_payment());
        self.digest.fold_f64(backlog);
        self.welfare += outcome.virtual_welfare;
        self.spend += outcome.total_payment();
        (collected, outcome)
    }
}

/// What [`MarketSession::open`] replays its journal into: the market, and
/// the snapshot it last restored from, with that snapshot's mark.
struct Opening<'a> {
    cfg: &'a SessionConfig,
    market: Market,
    restored: Option<(Snapshot, OutcomeMark)>,
}

impl journal::Replay for Opening<'_> {
    fn restore(&mut self, snapshot: &Snapshot, at: OutcomeMark) {
        self.market = Market::new(self.cfg, Some(snapshot));
        self.restored = Some((snapshot.clone(), at));
    }

    fn apply(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        self.market.replay_event(event)
    }
}

impl MarketSession {
    /// Opens (or resumes) the session: recovers the journal in one pass
    /// (`journal::recover`) — truncating any torn or uncommitted tail —
    /// and rebuilds the market state by snapshot fast-forward plus a
    /// buffered streaming replay (memory stays bounded however large the
    /// log), verifying the recomputed digest against every replayed
    /// outcome line. A compacted journal's embedded base snapshot restores
    /// the dropped prefix; a separate snapshot file is used only when it
    /// verifies against a commit boundary and sits further ahead — the
    /// snapshot is an accelerator, never the truth.
    ///
    /// # Errors
    ///
    /// I/O errors, plus `InvalidData` when replay diverges from the
    /// journal (a committed-region corruption or a config mismatch).
    ///
    /// # Panics
    ///
    /// Panics when `compact_every` is nonzero while snapshots are
    /// disabled: compaction can only drop what a snapshot covers.
    pub fn open(cfg: SessionConfig) -> std::io::Result<MarketSession> {
        cfg.ingest.validate();
        assert!(
            cfg.compact_every == 0 || (cfg.snapshot.is_some() && cfg.snapshot_every > 0),
            "journal compaction requires snapshots: set a snapshot path and a \
             nonzero snapshot cadence alongside compact_every"
        );
        let file_snapshot = match &cfg.snapshot {
            Some(path) => journal::read_snapshot(path)?,
            None => None,
        };
        let mut opening = Opening {
            cfg: &cfg,
            market: Market::new(&cfg, None),
            restored: None,
        };
        let recovery = journal::recover(&cfg.journal, file_snapshot, &mut opening)?;
        let Opening {
            market, restored, ..
        } = opening;
        let writer = if cfg.journal.exists() {
            JournalWriter::open_append(
                &cfg.journal,
                recovery.committed_events,
                recovery.committed_bytes,
            )?
        } else {
            JournalWriter::create(&cfg.journal)?
        };
        Ok(MarketSession {
            cfg,
            writer,
            recovered_rounds: market.collector.next_round(),
            market,
            rounds_since_snapshot: 0,
            rounds_since_compact: 0,
            recovery,
            last_snapshot: restored,
        })
    }

    /// Accepts one bid arrival: journals it (write-ahead, flushed but
    /// not yet durable — the next seal's fsync commits it), then offers
    /// it to the collector under a session-owned sequence number.
    ///
    /// # Panics
    ///
    /// Panics, before journaling, unless `at` is finite and `>= 0`: the
    /// collector's domain, which a later seal would otherwise assert.
    pub fn offer(&mut self, at: f64, bid: Bid) -> std::io::Result<(u64, Admission)> {
        assert!(
            ingest::clock::valid_arrival_time(at),
            "arrival time must be finite and >= 0, got {at}"
        );
        let market = &mut self.market;
        let seq = market.next_seq;
        market.next_seq += 1;
        self.writer
            .append_raw(&JournalEvent::Arrival { seq, at, bid }.to_line())?;
        let admission = market.collector.offer_at(seq, TimedBid { at, bid });
        Ok((seq, admission))
    }

    /// Seals the next round: runs the topology-aware VCG path, journals
    /// the seal and outcome lines, fsyncs (the commit point), and runs the
    /// snapshot / compaction cadences.
    pub fn seal(&mut self) -> std::io::Result<SealedOutcome> {
        let observing = telemetry::enabled();
        let solve_start = observing.then(Instant::now);
        let (collected, outcome) = self.market.run_round();
        let solve_ns = elapsed_ns(solve_start);
        let round = collected.sealed.round();
        let backlog = self.market.lovm.queue_backlog();
        let seal_line = JournalEvent::Seal {
            round,
            sealed: collected.sealed.bids().to_vec(),
        }
        .to_line();
        let outcome_line = JournalEvent::Outcome {
            round,
            awards: outcome.winners.clone(),
            virtual_welfare: outcome.virtual_welfare,
            spend: outcome.total_payment(),
            backlog,
            digest: self.market.digest.value(),
        }
        .to_line();
        let persist_start = observing.then(Instant::now);
        self.writer.append_raw(&seal_line)?;
        self.writer.append_raw(&outcome_line)?;
        self.writer.sync()?;
        let persist_ns = elapsed_ns(persist_start);
        self.maybe_snapshot()?;
        self.maybe_compact()?;
        if observing {
            let session = self
                .cfg
                .journal
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string);
            crate::obs::RoundObservation {
                source: "serve",
                session: session.as_deref(),
                round,
                stats: &collected.stats,
                winners: outcome.winners.len(),
                welfare: outcome.virtual_welfare,
                spend: outcome.total_payment(),
                backlog: Some(backlog),
                timings: &[("solve_ns", solve_ns), ("persist_ns", persist_ns)],
            }
            .record();
        }
        Ok(SealedOutcome {
            round,
            stats: collected.stats,
            outcome,
            backlog,
            digest: self.market.digest.value(),
        })
    }

    /// Every `snapshot_every` commit points, writes a snapshot and keeps
    /// the mark of the outcome line it sits at, which the writer just
    /// synced.
    fn maybe_snapshot(&mut self) -> std::io::Result<()> {
        let Some(path) = &self.cfg.snapshot else {
            return Ok(());
        };
        if self.cfg.snapshot_every == 0 {
            return Ok(());
        }
        self.rounds_since_snapshot += 1;
        if self.rounds_since_snapshot < self.cfg.snapshot_every {
            return Ok(());
        }
        self.rounds_since_snapshot = 0;
        let m = &self.market;
        let snap = Snapshot {
            events: self.writer.events(),
            collector: m.collector.export_state(),
            backlog: m.lovm.queue_backlog(),
            welfare: m.welfare,
            spend: m.spend,
            digest: m.digest.value(),
            totals: m.totals,
        };
        journal::write_snapshot(path, &snap)?;
        let mark = OutcomeMark {
            events: snap.events,
            round: m.collector.next_round() - 1,
            digest: snap.digest,
            bytes: self.writer.commit().bytes,
        };
        self.last_snapshot = Some((snap, mark));
        Ok(())
    }

    /// Every `compact_every` sealed rounds, rewrites the journal to drop
    /// the prefix the latest snapshot covers (crash-safe: temp file →
    /// fsync → rename → directory fsync), then reopens the writer on the
    /// new inode so later appends land in the compacted file.
    fn maybe_compact(&mut self) -> std::io::Result<()> {
        if self.cfg.compact_every == 0 {
            return Ok(());
        }
        self.rounds_since_compact += 1;
        if self.rounds_since_compact < self.cfg.compact_every {
            return Ok(());
        }
        self.rounds_since_compact = 0;
        let Some((snap, mark)) = &mut self.last_snapshot else {
            return Ok(());
        };
        let stats = journal::compact(&self.cfg.journal, snap, mark)?;
        // The snapshot now sits at the header's end. The rename (if the
        // journal did not already start there) replaced the inode the
        // writer held open; a seal leaves no uncommitted tail, so the new
        // file is all committed.
        mark.bytes = stats.suffix_bytes;
        self.writer =
            JournalWriter::open_append(&self.cfg.journal, self.writer.events(), stats.bytes_after)?;
        Ok(())
    }

    /// Applies one replicated journal line from the leader's committed
    /// feed: appends it verbatim to the local journal (keeping the
    /// replica byte-identical) and replays it through the same
    /// `run_round` code path the leader ran, verifying every journaled
    /// digest bitwise. Returns `Some((round, digest))` when the line was
    /// an outcome — the follower's commit point, where it fsyncs and
    /// runs its own snapshot/compaction cadences.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the line does not parse or the replayed state
    /// diverges from the journaled digest (leader/follower mismatch).
    pub fn apply_replicated(&mut self, line: &str) -> std::io::Result<Option<(usize, u64)>> {
        let Some(ev) = JournalEvent::parse_line(line) else {
            return Err(corrupt(format!(
                "replicated line is not a journal event: {line}"
            )));
        };
        self.writer.append_raw(line)?;
        self.market.replay_event(&ev)?;
        if let JournalEvent::Outcome { round, digest, .. } = &ev {
            self.writer.sync()?;
            self.maybe_snapshot()?;
            self.maybe_compact()?;
            return Ok(Some((*round, *digest)));
        }
        Ok(None)
    }

    /// Rounds sealed so far (including recovered ones).
    pub fn rounds_sealed(&self) -> usize {
        self.market.collector.next_round()
    }

    /// Rounds the session resumed with at [`MarketSession::open`].
    pub fn recovered_rounds(&self) -> usize {
        self.recovered_rounds
    }

    /// What [`MarketSession::open`]'s recovery did: the base it started
    /// from, the journal bytes it read, the events it replayed and the
    /// tail bytes it discarded.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Running state digest (see `journal::Digest`).
    pub fn digest(&self) -> u64 {
        self.market.digest.value()
    }

    /// Current virtual-queue backlog.
    pub fn backlog(&self) -> f64 {
        self.market.lovm.queue_backlog()
    }

    /// Cumulative virtual welfare over all sealed rounds.
    pub fn welfare(&self) -> f64 {
        self.market.welfare
    }

    /// Cumulative payments over all sealed rounds.
    pub fn total_spend(&self) -> f64 {
        self.market.spend
    }

    /// Committed + appended journal events.
    pub fn journal_events(&self) -> u64 {
        self.writer.events()
    }

    /// Session-lifetime ingestion rollup — every sealed round's stats
    /// folded through [`StreamTotals::absorb`], recovered rounds
    /// included. The `stats` wire command reports this.
    pub fn stream_totals(&self) -> &StreamTotals {
        &self.market.totals
    }
}

/// Nanoseconds since an optional start instant (0 when not measuring).
fn elapsed_ns(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

// ---------------------------------------------------------------------
// The wire protocol: one JSON object per line, both directions.
// ---------------------------------------------------------------------

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
enum Request {
    Hello { session: String },
    Follow { session: String },
    Bid { at: f64, bid: Bid },
    Seal,
    State,
    Stats,
    Quit,
}

fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Parses one request line. Total: hostile input yields `Err`, never a
/// panic — a bid and its arrival time go through the journal's decoder,
/// whose domain is the one `Bid::new` and the collector assert.
fn parse_request(line: &str) -> Result<Request, String> {
    let v = JsonValue::parse(line).map_err(|e| format!("bad json: {}", e.message))?;
    let cmd = v
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or("missing `cmd`")?;
    match cmd {
        "hello" | "follow" => {
            let session = v
                .get("session")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{cmd} needs a `session` name"))?;
            if !valid_session_name(session) {
                return Err(format!(
                    "session name must be 1-64 chars of [A-Za-z0-9_-], got `{session}`"
                ));
            }
            let session = session.to_string();
            Ok(if cmd == "hello" {
                Request::Hello { session }
            } else {
                Request::Follow { session }
            })
        }
        "bid" => Ok(Request::Bid {
            at: journal::event::decode_at(&v)?,
            bid: journal::event::decode_bid(&v)?,
        }),
        "seal" => Ok(Request::Seal),
        "state" => Ok(Request::State),
        "stats" => Ok(Request::Stats),
        "quit" => Ok(Request::Quit),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

fn admission_name(a: Admission) -> &'static str {
    match a {
        Admission::Stored => "stored",
        Admission::Shed => "shed",
        Admission::Blocked => "blocked",
    }
}

fn error_response(message: &str) -> JsonValue {
    JsonValue::object()
        .field("event", "error")
        .field("message", message)
}

fn sealed_response(s: &SealedOutcome) -> JsonValue {
    let mut winners = JsonValue::array();
    for a in &s.outcome.winners {
        winners = winners.item(
            JsonValue::object()
                .field("bidder", a.bidder)
                .field("payment", a.payment),
        );
    }
    JsonValue::object()
        .field("event", "sealed")
        .field("round", s.round)
        .field("sealed", s.stats.sealed)
        .field("winners", winners)
        .field("welfare", s.outcome.virtual_welfare)
        .field("spend", s.outcome.total_payment())
        .field("backlog", s.backlog)
        .field("digest", journal::u64_hex(s.digest))
}

/// The session summary `welcome`, `state` and `stats.session` share,
/// appended to `head`: rounds, then (`with_money`) welfare and spend,
/// then backlog and digest.
fn session_summary(head: JsonValue, s: &MarketSession, with_money: bool) -> JsonValue {
    let mut v = head.field("rounds", s.rounds_sealed());
    if with_money {
        v = v
            .field("welfare", s.welfare())
            .field("spend", s.total_spend());
    }
    v.field("backlog", s.backlog())
        .field("digest", journal::u64_hex(s.digest()))
}

/// The `stats` response: the process-wide telemetry registry (counters,
/// gauges, histograms — what `lovm top` renders), plus the session's
/// lifetime ingestion rollup when asked from inside one. Works before
/// `hello` too, so a monitor can poll a server it never drives.
fn stats_response(session: Option<&MarketSession>) -> JsonValue {
    let mut v = JsonValue::object()
        .field("event", "stats")
        .field("registry", crate::obs::registry_json());
    if let Some(s) = session {
        v = v.field(
            "session",
            session_summary(JsonValue::object(), s, true)
                .field("totals", crate::obs::totals_json(s.stream_totals())),
        );
    }
    v
}

fn respond(out: &mut impl Write, v: JsonValue) -> std::io::Result<()> {
    let mut line = v.to_string();
    line.push('\n');
    out.write_all(line.as_bytes())
}

// ---------------------------------------------------------------------
// The accept loop.
// ---------------------------------------------------------------------

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port — read it
    /// back from [`MarketServer::local_addr`]).
    pub addr: String,
    /// Directory holding one journal (+ snapshot) per session name.
    pub journal_dir: PathBuf,
    /// Snapshot cadence in sealed rounds (0 disables).
    pub snapshot_every: usize,
    /// Journal-compaction cadence in sealed rounds (0 disables; nonzero
    /// requires a nonzero snapshot cadence).
    pub compact_every: usize,
    /// Mechanism configuration shared by every session.
    pub lovm: LovmConfig,
    /// Ingestion configuration shared by every session.
    pub ingest: IngestConfig,
}

impl ServeConfig {
    /// A server on `addr` journaling under `journal_dir`, defaults
    /// elsewhere.
    pub fn new(addr: impl Into<String>, journal_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            journal_dir: journal_dir.into(),
            snapshot_every: 8,
            compact_every: 0,
            lovm: LovmConfig::default(),
            ingest: IngestConfig::default(),
        }
    }

    /// Session `name`'s configuration: journal `<name>.jsonl` and snapshot
    /// `<name>.snapshot.json` under `journal_dir`, with the server's
    /// cadences, mechanism and ingest settings.
    pub fn session(&self, name: &str) -> SessionConfig {
        SessionConfig {
            journal: self.journal_dir.join(format!("{name}.jsonl")),
            snapshot: Some(self.journal_dir.join(format!("{name}.snapshot.json"))),
            snapshot_every: self.snapshot_every,
            compact_every: self.compact_every,
            lovm: self.lovm,
            ingest: self.ingest,
        }
    }
}

/// Server-wide session table: a row for each session a connection serves,
/// with the mark its open and seals publish (its journal writer's
/// [`Commit`]), and the condvar that wakes follower feeds when one moves.
///
/// The lock guards the table and nothing else: opens, seals, snapshots
/// and compactions run without it. A session's claim orders its own
/// writes, since only the connection holding it touches its files. A feed
/// copies from the file it opened only once the mark names that file.
#[derive(Debug, Default)]
struct Hub {
    marks: Mutex<HashMap<String, Option<Commit>>>,
    moved: Condvar,
}

impl Hub {
    /// Takes the hub lock. A panic under it cannot leave a row half
    /// written, so a poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Option<Commit>>> {
        self.marks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims session `name` for one connection, adding its row: false
    /// when another connection serves it.
    fn claim(&self, name: &str) -> bool {
        let mut marks = self.lock();
        !marks.contains_key(name) && marks.insert(name.to_string(), None).is_none()
    }

    /// Frees session `name` for the next `hello`, dropping its row.
    fn release(&self, name: &str) {
        self.lock().remove(name);
    }

    /// Publishes session `name`'s mark and wakes its feeds.
    fn publish(&self, name: &str, mark: Commit) {
        self.lock().insert(name.to_string(), Some(mark));
        self.moved.notify_all();
    }

    /// Waits up to [`FEED_POLL`] for session `name`'s mark to differ
    /// from `seen`; returns the new mark, or `None` when it did not move.
    fn wait_for_commit(&self, name: &str, seen: Commit) -> Option<Commit> {
        let mark = |marks: &HashMap<String, Option<Commit>>| marks.get(name).copied().flatten();
        let (marks, _) = self
            .moved
            .wait_timeout_while(self.lock(), FEED_POLL, |marks| {
                mark(marks).is_none_or(|m| m == seen)
            })
            .unwrap_or_else(PoisonError::into_inner);
        mark(&marks).filter(|m| *m != seen)
    }
}

/// The TCP market server (see module docs).
#[derive(Debug)]
pub struct MarketServer {
    listener: TcpListener,
    cfg: ServeConfig,
    hub: Arc<Hub>,
}

/// A session opened by `hello`. Fields drop in order: the session closes
/// its journal before the claim frees the name for the next `hello`.
struct OpenSession {
    session: MarketSession,
    claim: SessionClaim,
}

/// A connection's claim on a session name, released when the connection
/// ends, however it ends.
struct SessionClaim {
    name: String,
    hub: Arc<Hub>,
}

impl Drop for SessionClaim {
    fn drop(&mut self) {
        self.hub.release(&self.name);
    }
}

impl MarketServer {
    /// Creates the journal directory and binds the listener.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<MarketServer> {
        std::fs::create_dir_all(&cfg.journal_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(MarketServer {
            listener,
            cfg,
            hub: Arc::default(),
        })
    }

    /// The actually-bound address (resolves an ephemeral `:0` port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one thread per connection: it reads,
    /// decides and answers on that thread. `TCP_NODELAY` is on, because
    /// the connection buffers its responses and each flush is one
    /// deliberate burst (see [`handle_connection`]).
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let Ok(stream) = stream else { continue };
            let cfg = self.cfg.clone();
            let hub = Arc::clone(&self.hub);
            std::thread::spawn(move || {
                // A dropped peer is a normal way for a connection to end.
                let _ = handle_connection(stream, &cfg, &hub);
            });
        }
        Ok(())
    }
}

/// Longest request line the server reads, newline excluded: 1 MiB. A
/// longer line gets an `error` and the connection is closed, so one peer
/// cannot make the server buffer without bound.
const MAX_LINE: usize = 1 << 20;

/// How one capped line read ended.
enum Framed {
    /// `line` holds a whole line, its newline stripped.
    Line,
    /// The stream ended; `line` holds its unterminated tail, if any.
    Eof,
    /// The line is longer than the cap.
    TooLong,
}

/// Reads the rest of one `\n`-framed line into `line`, which may hold its
/// start from a read that would have blocked. At most `cap` bytes of line
/// are read: one more tells an over-long line from a full one.
fn read_framed(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Framed> {
    let limit = (cap + 1).saturating_sub(line.len()) as u64;
    reader.by_ref().take(limit).read_until(b'\n', line)?;
    Ok(if line.last() == Some(&b'\n') {
        line.pop();
        Framed::Line
    } else if line.len() > cap {
        Framed::TooLong
    } else {
        Framed::Eof
    })
}

/// What one read of a connection's request stream yields.
enum Line {
    /// A non-blank line: its request, or why it is refused.
    Request(Result<Request, String>),
    /// A blank line, or (on a non-blocking poll) no complete line yet.
    Skip,
    /// EOF, a read error, or the read after an over-long line.
    End,
}

/// A connection's request lines, framed in one place: at most
/// [`MAX_LINE`] bytes each, blank lines skipped, and a line that is not
/// UTF-8 refused without ending the connection.
struct Requests {
    reader: BufReader<TcpStream>,
    /// The line being read; a partial line survives a non-blocking poll.
    line: Vec<u8>,
    /// Set by an over-long line: it is refused, and nothing after it is
    /// read.
    ended: bool,
}

impl Requests {
    fn new(stream: TcpStream) -> Self {
        Requests {
            reader: BufReader::new(stream),
            line: Vec::new(),
            ended: false,
        }
    }

    /// Whether the next [`Requests::read`] can finish without waiting on
    /// the socket.
    fn has_line(&self) -> bool {
        self.ended || self.reader.buffer().contains(&b'\n')
    }

    /// Reads the next line, blocking until it is complete.
    fn read(&mut self) -> Line {
        if self.ended {
            return Line::End;
        }
        match read_framed(&mut self.reader, &mut self.line, MAX_LINE) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Line::Skip,
            Err(_) => return Line::End,
            Ok(Framed::Eof) if self.line.is_empty() => return Line::End,
            Ok(Framed::TooLong) => {
                self.ended = true;
                return Line::Request(Err(format!("line longer than {MAX_LINE} bytes")));
            }
            // A whole line, or the stream's unterminated last one.
            Ok(_) => {}
        }
        let request = match std::str::from_utf8(&self.line) {
            Ok(line) if line.trim().is_empty() => None,
            Ok(line) => Some(parse_request(line)),
            Err(e) => Some(Err(format!("line is not valid UTF-8: {e}"))),
        };
        self.line.clear();
        request.map_or(Line::Skip, Line::Request)
    }

    /// Reads the next line if it is already complete, without waiting:
    /// bytes of an unfinished line stay in `line` for the next poll.
    fn poll(&mut self) -> std::io::Result<Line> {
        self.reader.get_ref().set_nonblocking(true)?;
        let line = self.read();
        self.reader.get_ref().set_nonblocking(false)?;
        Ok(line)
    }
}

/// Runs one connection's request loop. Before `hello` only `stats`,
/// `follow` and `quit` do anything; `hello` opens the named session, and
/// from then on the same loop serves its bids, seals and queries.
///
/// Responses are buffered and flushed once per burst: when no complete
/// request line is waiting, before the read blocks. A request that touches
/// the journal file (`hello`, `follow`, `seal`) is flushed around as well,
/// so the acks before it do not wait out a seal, and its own answer leaves
/// at once.
fn handle_connection(stream: TcpStream, cfg: &ServeConfig, hub: &Arc<Hub>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut requests = Requests::new(stream.try_clone()?);
    let mut out = BufWriter::new(stream);
    let mut open: Option<OpenSession> = None;
    loop {
        if !requests.has_line() {
            out.flush()?;
        }
        let request = match requests.read() {
            Line::Request(request) => request,
            Line::Skip => continue,
            // The peer is gone: quit like a polite client.
            Line::End => break,
        };
        let flush_around = matches!(
            request,
            Ok(Request::Hello { .. } | Request::Follow { .. } | Request::Seal)
        );
        if flush_around {
            out.flush()?;
        }
        let response = match (request, open.as_mut()) {
            (Err(msg), _) => error_response(&msg),
            (Ok(Request::Quit), _) => break,
            // Server-wide stats work before a session is named, so a
            // monitor like `lovm top` never has to claim one.
            (Ok(Request::Stats), o) => stats_response(o.map(|o| &o.session)),
            (Ok(Request::Hello { .. } | Request::Follow { .. }), Some(_)) => {
                error_response("already in a session")
            }
            (Ok(Request::Follow { session }), None) => {
                return run_follower_feed(requests, out, cfg, hub, &session);
            }
            (Ok(Request::Hello { session }), None) => match open_session(cfg, hub, session) {
                Ok(opened) => {
                    let o = open.insert(opened);
                    let head = JsonValue::object()
                        .field("event", "welcome")
                        .field("session", o.claim.name.as_str());
                    session_summary(head, &o.session, false)
                }
                Err(refusal) => {
                    respond(&mut out, error_response(&refusal))?;
                    return out.flush();
                }
            },
            (Ok(_), None) => error_response("say hello first"),
            (Ok(Request::Bid { at, bid }), Some(o)) => match o.session.offer(at, bid) {
                Ok((seq, admission)) => JsonValue::object()
                    .field("event", "bid")
                    .field("seq", seq)
                    .field("admission", admission_name(admission)),
                Err(e) => {
                    let message = format!("the bid was not journaled: {e}");
                    return close_with_error(&mut out, &message, e);
                }
            },
            (Ok(Request::Seal), Some(o)) => {
                let before = o.session.writer.commit();
                let sealed = o.session.seal();
                // A seal that fails after its commit fsync (in the snapshot
                // or the compaction) still committed its round.
                let commit = o.session.writer.commit();
                if commit != before {
                    hub.publish(&o.claim.name, commit);
                }
                match sealed {
                    Ok(sealed) => sealed_response(&sealed),
                    Err(e) => {
                        let round = o.session.rounds_sealed() - 1;
                        let message = if commit != before {
                            format!("round {round} committed, then its seal failed: {e}")
                        } else {
                            format!("round {round} was not committed: {e}")
                        };
                        return close_with_error(&mut out, &message, e);
                    }
                }
            }
            (Ok(Request::State), Some(o)) => session_summary(
                JsonValue::object().field("event", "state"),
                &o.session,
                true,
            ),
        };
        respond(&mut out, response)?;
        if flush_around {
            out.flush()?;
        }
    }
    respond(&mut out, JsonValue::object().field("event", "bye"))?;
    out.flush()
}

/// Answers `message` as an `error` and ends the connection with `cause`:
/// a session whose journal write failed holds state its journal may not,
/// so it closes, and the next `hello` reopens it from the journal.
fn close_with_error(
    out: &mut impl Write,
    message: &str,
    cause: std::io::Error,
) -> std::io::Result<()> {
    respond(out, error_response(message))?;
    out.flush()?;
    Err(cause)
}

/// Claims session `name` for this connection and opens it, or says why
/// not: another connection serves it, or its journal does not recover.
fn open_session(cfg: &ServeConfig, hub: &Arc<Hub>, name: String) -> Result<OpenSession, String> {
    if !hub.claim(&name) {
        return Err(format!("session `{name}` is already being served"));
    }
    let claim = SessionClaim {
        name: name.clone(),
        hub: Arc::clone(hub),
    };
    // Recovery may truncate the journal's uncommitted tail; a feed copies
    // only committed bytes, which it leaves alone.
    let session = MarketSession::open(cfg.session(&name))
        .map_err(|e| format!("cannot open session `{name}`: {e}"))?;
    hub.publish(&name, session.writer.commit());
    Ok(OpenSession { session, claim })
}

/// How often an idle feed polls its follower's socket.
const FEED_POLL: Duration = Duration::from_millis(200);

/// Serves one follower connection: a bootstrap, then each byte range the
/// session's mark moves past, copied from the file the bootstrap pinned;
/// a mark on another file bootstraps again. Every [`FEED_POLL`] without a
/// move polls the follower's socket: EOF or `quit` ends the feed, and any
/// other line is answered `followers only listen`.
fn run_follower_feed(
    mut requests: Requests,
    mut out: BufWriter<TcpStream>,
    cfg: &ServeConfig,
    hub: &Hub,
    session: &str,
) -> std::io::Result<()> {
    let path = cfg.session(session).journal;
    let (mut file, mut seen) = send_bootstrap(&mut out, hub, &path, session)?;
    loop {
        match hub.wait_for_commit(session, seen) {
            Some(mark) => match &file {
                Some(pinned) if mark.file == seen.file => {
                    copy_journal(pinned, mark.bytes - seen.bytes, &mut out)?;
                    seen = mark;
                }
                _ => (file, seen) = send_bootstrap(&mut out, hub, &path, session)?,
            },
            None => match requests.poll()? {
                Line::Request(Ok(Request::Quit)) | Line::End => return Ok(()),
                Line::Request(_) => respond(&mut out, error_response("followers only listen"))?,
                // An unpinned feed tries again.
                Line::Skip if file.is_none() => {
                    (file, seen) = send_bootstrap(&mut out, hub, &path, session)?;
                }
                Line::Skip => {}
            },
        }
        out.flush()?;
    }
}

/// Opens session `name`'s journal at `path`, creating it empty if missing
/// (never truncating one a concurrent `hello` just made), and reads its
/// mark. Returns the file if the mark names it, else `None`: a
/// compaction's rename and the publish of its mark fell either side of
/// the open. A session without a mark is not sealing or compacting, so a
/// scan finds its committed length; the guard lives through the `match`,
/// so the session's first publish waits for the scan.
fn pin_journal(hub: &Hub, path: &Path, name: &str) -> std::io::Result<(Option<File>, Commit)> {
    if !path.exists() {
        File::options().append(true).create(true).open(path)?;
        journal::fsync_parent_dir(path);
    }
    let file = File::open(path)?;
    let mark = match hub.lock().get(name).copied().flatten() {
        Some(mark) => mark,
        None => Commit::of(&file, journal::scan_meta(path)?.committed_bytes)?,
    };
    let pinned = Commit::of(&file, mark.bytes)? == mark;
    Ok((pinned.then_some(file), mark))
}

/// Pins the journal (see [`pin_journal`]) and, when the mark names the
/// pinned file, sends `bootstrap`, the committed bytes and `live`. Returns
/// the pinned file, read up to the mark, and the mark.
fn send_bootstrap(
    out: &mut impl Write,
    hub: &Hub,
    path: &Path,
    session: &str,
) -> std::io::Result<(Option<File>, Commit)> {
    let (file, mark) = pin_journal(hub, path, session)?;
    if let Some(file) = &file {
        let head = JsonValue::object()
            .field("event", "bootstrap")
            .field("session", session)
            .field("bytes", mark.bytes);
        respond(out, head)?;
        copy_journal(file, mark.bytes, out)?;
        respond(out, JsonValue::object().field("event", "live"))?;
        out.flush()?;
    }
    Ok((file, mark))
}

/// Copies the next `len` bytes of a pinned journal file to a feed: the
/// committed bytes of a file never change.
fn copy_journal(file: &File, len: u64, out: &mut impl Write) -> std::io::Result<()> {
    if std::io::copy(&mut file.take(len), out)? < len {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// What a follower just applied; [`follow`] reports each to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replicated {
    /// A bootstrap replaced the replica's journal.
    Bootstrap,
    /// One live round committed.
    Round,
}

/// Longest feed line a follower reads, given the most bids its replica
/// has held at once. A round seals only bids its collector holds, queued,
/// parked or deferred, under either backpressure; so a seal line holds at
/// most that many entries, its outcome line at most as many awards, and an
/// arrival line one bid. An entry renders in at most 1 KiB: four numbers
/// of at most 327 characters (an `f64` prints every digit), plus keys;
/// four more entries' worth covers a line's own fields, `bootstrap` and
/// `live`.
fn feed_line_cap(held: usize) -> usize {
    const ENTRY_BYTES: usize = 1 << 10;
    held.saturating_add(4).saturating_mul(ENTRY_BYTES)
}

/// Keeps a live replica of session `name` from the leader feed it
/// requests on `stream`: installs each bootstrap (see
/// [`install_bootstrap`]) and replays each live line through
/// [`MarketSession::apply_replicated`], telling `on_commit` of both.
/// Returns when the feed ends: the leader is gone.
///
/// # Errors
///
/// I/O errors, and `InvalidData` for a feed line longer than the bids the
/// replica holds allow, a line out of place, or a replay that diverges.
pub fn follow(
    stream: TcpStream,
    name: &str,
    cfg: &SessionConfig,
    mut on_commit: impl FnMut(Replicated, &MarketSession),
) -> std::io::Result<()> {
    let request = JsonValue::object()
        .field("cmd", "follow")
        .field("session", name);
    respond(&mut &stream, request)?;
    let mut feed = BufReader::new(stream);
    let (mut line, mut replica, mut held) = (Vec::new(), None::<MarketSession>, 0);
    loop {
        if let Some(session) = &replica {
            held = held.max(session.market.collector.outstanding());
        }
        let cap = feed_line_cap(held);
        line.clear();
        match read_framed(&mut feed, &mut line, cap)? {
            Framed::Line => {}
            // A torn last line is dropped: it was never committed here.
            Framed::Eof => return Ok(()),
            Framed::TooLong => return Err(corrupt(format!("feed line longer than {cap} bytes"))),
        }
        let text = std::str::from_utf8(&line)
            .map_err(|e| corrupt(format!("feed line is not UTF-8: {e}")))?;
        if text.starts_with(r#"{"event":"bootstrap","#) {
            let bytes = JsonValue::parse(text)
                .ok()
                .and_then(|v| v.get("bytes")?.as_u64());
            let bytes = bytes.ok_or_else(|| corrupt(format!("malformed bootstrap `{text}`")))?;
            let Some(session) = install_bootstrap(&mut feed, bytes, cfg, replica.take())? else {
                return Ok(());
            };
            on_commit(Replicated::Bootstrap, &session);
            replica = Some(session);
        } else if text != r#"{"event":"live"}"# {
            let Some(session) = replica.as_mut() else {
                return Err(corrupt(format!("expected a bootstrap, got `{text}`")));
            };
            if session.apply_replicated(text)?.is_some() {
                on_commit(Replicated::Round, session);
            }
        }
    }
}

/// Installs a bootstrap of `bytes` journal bytes from `feed`: they land in
/// a temp file beside the journal and are fsynced; only then is the old
/// `replica` dropped, the temp file renamed over the journal, and the
/// replica reopened. Returns `None`, with the old journal in place, when
/// the feed ends mid-bootstrap.
fn install_bootstrap(
    feed: &mut impl BufRead,
    bytes: u64,
    cfg: &SessionConfig,
    replica: Option<MarketSession>,
) -> std::io::Result<Option<MarketSession>> {
    let mut tmp = cfg.journal.clone().into_os_string();
    tmp.push(".bootstrap.tmp");
    let mut file = File::create(&tmp)?;
    if std::io::copy(&mut feed.by_ref().take(bytes), &mut file)? < bytes {
        std::fs::remove_file(&tmp)?;
        return Ok(None);
    }
    file.sync_data()?;
    drop(replica);
    std::fs::rename(&tmp, &cfg.journal)?;
    journal::fsync_parent_dir(&cfg.journal);
    MarketSession::open(cfg.clone()).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Seek, SeekFrom};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lovm-serve-test-{}-{tag}-{n}", std::process::id()));
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

    /// Deterministic offers for round `r`: a handful of bidders whose
    /// costs/sizes vary by round, timestamped inside the round span.
    fn offers_for_round(r: usize) -> Vec<(f64, Bid)> {
        (0..5)
            .map(|i| {
                let at = r as f64 + (i as f64 + 0.5) / 6.0;
                let cost = 0.6 + ((r * 7 + i * 3) % 11) as f64 * 0.21;
                let data = 80 + ((r * 13 + i * 29) % 300);
                let quality = 0.55 + ((r + i) % 5) as f64 * 0.09;
                (at, Bid::new(i, cost, data, quality))
            })
            .collect()
    }

    /// A journal's committed prefix, compaction header included: what a
    /// follower's bootstrap copies.
    fn committed_prefix(path: &Path) -> String {
        let committed = journal::scan_meta(path).unwrap().committed_bytes as usize;
        let mut text = std::fs::read_to_string(path).unwrap();
        text.truncate(committed);
        text
    }

    fn drive_rounds(
        session: &mut MarketSession,
        rounds: std::ops::Range<usize>,
    ) -> Vec<SealedOutcome> {
        rounds
            .map(|r| {
                for (at, bid) in offers_for_round(r) {
                    session.offer(at, bid).unwrap();
                }
                session.seal().unwrap()
            })
            .collect()
    }

    #[test]
    fn snapshot_every_parses_or_panics() {
        let parse = |raw| parse_cadence(SNAPSHOT_EVERY_ENV, raw, 8, "snapshots");
        assert_eq!(parse(None), 8);
        assert_eq!(parse(Some("0")), 0);
        assert_eq!(parse(Some(" 12 ")), 12);
        for bad in ["abc", "", "-1", "2.5", "8 rounds"] {
            let result = std::panic::catch_unwind(|| parse(Some(bad)));
            assert!(result.is_err(), "`{bad}` must panic");
        }
    }

    #[test]
    fn compact_every_parses_or_panics() {
        let parse = |raw| parse_cadence(COMPACT_EVERY_ENV, raw, 0, "compaction");
        assert_eq!(parse(None), 0);
        assert_eq!(parse(Some("0")), 0);
        assert_eq!(parse(Some(" 16 ")), 16);
        for bad in ["abc", "", "-1", "2.5", "16 rounds"] {
            let result = std::panic::catch_unwind(|| parse(Some(bad)));
            assert!(result.is_err(), "`{bad}` must panic");
        }
        let _ = std::panic::catch_unwind(|| {
            let mut cfg = SessionConfig::new("unused.jsonl");
            cfg.snapshot = None;
            cfg.compact_every = 2;
            let _ = MarketSession::open(cfg);
        })
        .expect_err("compaction without snapshots must panic");
    }

    /// The tentpole bound: with compaction on, sealing many more rounds
    /// than the snapshot cadence keeps the on-disk journal pinned to the
    /// post-snapshot suffix — while state, recovery, and continuation
    /// stay bit-identical to an uncompacted twin.
    #[test]
    fn compaction_bounds_the_journal() {
        let full_dir = temp_dir("nocompact");
        let comp_dir = temp_dir("compact");
        let mut full = MarketSession::open(session_cfg(&full_dir, 2)).unwrap();
        let mut comp_cfg = session_cfg(&comp_dir, 2);
        comp_cfg.compact_every = 2;
        let mut compacted = MarketSession::open(comp_cfg.clone()).unwrap();

        const ROUNDS: usize = 24;
        let full_out = drive_rounds(&mut full, 0..ROUNDS);
        let comp_out = drive_rounds(&mut compacted, 0..ROUNDS);
        assert_eq!(comp_out, full_out);
        assert_eq!(compacted.digest(), full.digest());
        assert_eq!(compacted.journal_events(), full.journal_events());

        // The journal is bounded by the cadences, not by history length:
        // at most snapshot_every + compact_every rounds of suffix remain
        // (7 lines per round here), versus 24 rounds in the twin.
        let full_bytes = std::fs::metadata(full_dir.join("market.jsonl"))
            .unwrap()
            .len();
        let comp_bytes = std::fs::metadata(comp_dir.join("market.jsonl"))
            .unwrap()
            .len();
        assert!(
            comp_bytes * 4 < full_bytes,
            "compaction must bound the journal: {comp_bytes} vs {full_bytes} bytes"
        );
        let meta = journal::scan_meta(comp_dir.join("market.jsonl")).unwrap();
        let base = meta.base.clone().expect("a compacted journal has a base");
        assert!(base.events > 0, "the base must cover a nonempty prefix");
        assert!(
            meta.committed_events - meta.base_events() <= 7 * 4,
            "suffix holds {} events, more than the cadence bound",
            meta.committed_events - meta.base_events()
        );

        // Crash with un-sealed arrivals in flight; the reopened session
        // recovers from the compacted journal and continues bitwise.
        for (at, bid) in offers_for_round(ROUNDS) {
            compacted.offer(at, bid).unwrap();
        }
        drop(compacted);
        let mut recovered = MarketSession::open(comp_cfg).unwrap();
        assert_eq!(recovered.recovered_rounds(), ROUNDS);
        assert_eq!(recovered.digest(), full.digest());
        let cont = drive_rounds(&mut recovered, ROUNDS..ROUNDS + 2);
        let full_cont = drive_rounds(&mut full, ROUNDS..ROUNDS + 2);
        assert_eq!(cont, full_cont);
        assert_eq!(recovered.welfare().to_bits(), full.welfare().to_bits());
        std::fs::remove_dir_all(&full_dir).ok();
        std::fs::remove_dir_all(&comp_dir).ok();
    }

    /// The replication contract end to end, minus the sockets: bootstrap
    /// a follower from the leader's committed journal, stream each
    /// sealed round's batch through `apply_replicated`, kill the leader,
    /// promote the follower, and the promoted session continues
    /// bit-identically with a reference that never crashed.
    #[test]
    fn follower_replays_and_promotes_bit_identically() {
        let leader_dir = temp_dir("leader");
        let follower_dir = temp_dir("follower");
        let mut leader_cfg = session_cfg(&leader_dir, 2);
        leader_cfg.compact_every = 2;
        let mut leader = MarketSession::open(leader_cfg).unwrap();
        drive_rounds(&mut leader, 0..3);

        // Bootstrap: the leader's committed journal bytes, copied verbatim
        // (compaction header included) into the follower's journal.
        let leader_journal = leader_dir.join("market.jsonl");
        std::fs::write(
            follower_dir.join("market.jsonl"),
            committed_prefix(&leader_journal),
        )
        .unwrap();
        let mut follower_cfg = session_cfg(&follower_dir, 2);
        follower_cfg.compact_every = 2;
        let mut follower = MarketSession::open(follower_cfg.clone()).unwrap();
        assert_eq!(follower.rounds_sealed(), 3);
        assert_eq!(follower.digest(), leader.digest());

        // Live: every sealed round's committed batch replays through the
        // same code path, the journaled digest checked at each outcome.
        for r in 3..6 {
            // The round's lines are the bytes past the journal file's
            // committed length. A compaction at this seal renames a new
            // file into place, but the one opened here keeps them.
            let mut pinned = std::fs::File::open(&leader_journal).unwrap();
            pinned
                .seek(SeekFrom::Start(leader.writer.commit().bytes))
                .unwrap();
            for (at, bid) in offers_for_round(r) {
                leader.offer(at, bid).unwrap();
            }
            let sealed = leader.seal().unwrap();
            let mut batch = String::new();
            pinned.read_to_string(&mut batch).unwrap();
            assert!(!batch.is_empty(), "a seal commits its lines");
            let mut committed = None;
            for line in batch.lines() {
                if let Some(commit) = follower.apply_replicated(line).unwrap() {
                    committed = Some(commit);
                }
            }
            assert_eq!(committed, Some((r, sealed.digest)));
            assert_eq!(follower.digest(), leader.digest());
            assert_eq!(follower.backlog().to_bits(), leader.backlog().to_bits());
        }

        // The leader dies; promotion is just opening the replica journal
        // as a serving session.
        let dead_digest = leader.digest();
        let dead_welfare = leader.welfare();
        drop(leader);
        drop(follower);
        let mut promoted = MarketSession::open(follower_cfg).unwrap();
        assert_eq!(promoted.recovered_rounds(), 6);
        assert_eq!(promoted.digest(), dead_digest);
        assert_eq!(promoted.welfare().to_bits(), dead_welfare.to_bits());

        let cont = drive_rounds(&mut promoted, 6..8);
        let ref_dir = temp_dir("follower-ref");
        let mut reference = MarketSession::open(session_cfg(&ref_dir, 2)).unwrap();
        let expect = drive_rounds(&mut reference, 0..8);
        assert_eq!(cont, expect[6..].to_vec());
        assert_eq!(promoted.digest(), reference.digest());
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    /// The tentpole contract: kill a session mid-round, reopen it, and
    /// the recovered server continues bit-identically with a reference
    /// that never crashed — with and without snapshots in play.
    #[test]
    fn crash_recovery_is_bit_identical() {
        for snapshot_every in [0usize, 2] {
            let ref_dir = temp_dir("ref");
            let crash_dir = temp_dir("crash");
            let mut reference = MarketSession::open(session_cfg(&ref_dir, snapshot_every)).unwrap();
            let ref_outcomes = drive_rounds(&mut reference, 0..7);

            let mut victim = MarketSession::open(session_cfg(&crash_dir, snapshot_every)).unwrap();
            let pre_crash = drive_rounds(&mut victim, 0..4);
            assert_eq!(pre_crash, ref_outcomes[..4].to_vec());
            // Round 4 in flight: arrivals journaled but never sealed —
            // then the crash (drop without sealing).
            for (at, bid) in offers_for_round(4) {
                victim.offer(at, bid).unwrap();
            }
            drop(victim);

            let mut recovered =
                MarketSession::open(session_cfg(&crash_dir, snapshot_every)).unwrap();
            assert_eq!(recovered.recovered_rounds(), 4);
            assert_eq!(recovered.digest(), ref_outcomes[3].digest);
            assert_eq!(
                recovered.backlog().to_bits(),
                ref_outcomes[3].backlog.to_bits()
            );
            // The unsealed arrivals were truncated; the client re-sends
            // them and the continuation matches the reference bitwise.
            let continued = drive_rounds(&mut recovered, 4..7);
            assert_eq!(continued, ref_outcomes[4..].to_vec());
            assert_eq!(recovered.digest(), reference.digest());
            assert_eq!(recovered.welfare().to_bits(), reference.welfare().to_bits());
            assert_eq!(
                recovered.total_spend().to_bits(),
                reference.total_spend().to_bits()
            );
            std::fs::remove_dir_all(&ref_dir).ok();
            std::fs::remove_dir_all(&crash_dir).ok();
        }
    }

    /// `offer` refuses an arrival time outside the collector's domain at
    /// the call, before journaling anything, so the session carries on
    /// exactly as if the call had not been made.
    #[test]
    fn offer_refuses_out_of_domain_time_before_journaling() {
        let dir = temp_dir("offer-domain");
        let ref_dir = temp_dir("offer-domain-ref");
        let mut session = MarketSession::open(session_cfg(&dir, 2)).unwrap();
        for at in [-1e-9, f64::NAN, f64::INFINITY] {
            let offered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.offer(at, Bid::new(0, 1.0, 10, 0.5))
            }));
            assert!(offered.is_err(), "offer at {at} must panic");
        }
        assert_eq!(session.journal_events(), 0);
        let mut reference = MarketSession::open(session_cfg(&ref_dir, 2)).unwrap();
        assert_eq!(
            drive_rounds(&mut session, 0..2),
            drive_rounds(&mut reference, 0..2)
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    /// A recovery-of-a-recovery is still exact (the journal keeps
    /// growing across generations of the process).
    #[test]
    fn repeated_recoveries_keep_continuing() {
        let dir = temp_dir("regen");
        let mut all = Vec::new();
        for generation in 0..4usize {
            let mut session = MarketSession::open(session_cfg(&dir, 2)).unwrap();
            assert_eq!(session.rounds_sealed(), generation * 2);
            all.extend(drive_rounds(
                &mut session,
                generation * 2..generation * 2 + 2,
            ));
        }
        let ref_dir = temp_dir("regen-ref");
        let mut reference = MarketSession::open(session_cfg(&ref_dir, 2)).unwrap();
        let expect = drive_rounds(&mut reference, 0..8);
        assert_eq!(all, expect);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    /// A snapshot pointing past the journal's committed prefix (its
    /// fsynced rename survived a crash that tore the journal tail) is
    /// ignored and recovery falls back to full replay.
    #[test]
    fn snapshot_ahead_of_journal_falls_back_to_replay() {
        let dir = temp_dir("ahead");
        let mut session = MarketSession::open(session_cfg(&dir, 2)).unwrap();
        drive_rounds(&mut session, 0..4);
        let digest_r2 = {
            // Reference digest at round 2: replay a fresh twin.
            let tw = temp_dir("ahead-twin");
            let mut twin = MarketSession::open(session_cfg(&tw, 0)).unwrap();
            let outs = drive_rounds(&mut twin, 0..2);
            std::fs::remove_dir_all(&tw).ok();
            outs[1].digest
        };
        drop(session);
        // Truncate the journal back to round 1's outcome while keeping
        // the (now too-new) snapshot from round 3 in place.
        let journal_path = dir.join("market.jsonl");
        let prefix = committed_prefix(&journal_path);
        let lines: Vec<String> = prefix.lines().map(str::to_string).collect();
        let keep: Vec<&String> = {
            let mut outcomes = 0;
            lines
                .iter()
                .take_while(|l| {
                    let done = outcomes >= 2;
                    if l.contains("\"event\":\"outcome\"") {
                        outcomes += 1;
                    }
                    !done
                })
                .collect()
        };
        let mut text = keep
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        text.push('\n');
        std::fs::write(&journal_path, text).unwrap();
        let recovered = MarketSession::open(session_cfg(&dir, 2)).unwrap();
        assert_eq!(recovered.recovered_rounds(), 2);
        assert_eq!(recovered.digest(), digest_r2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_parsing_is_total() {
        assert_eq!(
            parse_request(r#"{"cmd":"hello","session":"m-1"}"#),
            Ok(Request::Hello {
                session: "m-1".into()
            })
        );
        assert_eq!(
            parse_request(
                r#"{"cmd":"bid","at":0.5,"bidder":3,"cost":1.25,"data":100,"quality":0.9}"#
            ),
            Ok(Request::Bid {
                at: 0.5,
                bid: Bid::new(3, 1.25, 100, 0.9)
            })
        );
        assert_eq!(parse_request(r#"{"cmd":"seal"}"#), Ok(Request::Seal));
        assert_eq!(parse_request(r#"{"cmd":"state"}"#), Ok(Request::State));
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"cmd":"quit"}"#), Ok(Request::Quit));
        // Hostile input errors instead of panicking (out-of-domain bids
        // would assert inside Bid::new).
        for bad in [
            "not json",
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"hello","session":"../escape"}"#,
            r#"{"cmd":"hello","session":""}"#,
            r#"{"cmd":"bid","at":0.5,"bidder":0,"cost":-1,"data":1,"quality":0.5}"#,
            r#"{"cmd":"bid","at":0.5,"bidder":0,"cost":1,"data":1,"quality":1.5}"#,
            r#"{"cmd":"bid","at":1e999,"bidder":0,"cost":1,"data":1,"quality":0.5}"#,
            r#"{"cmd":"bid","at":-1e-9,"bidder":0,"cost":1,"data":1,"quality":0.5}"#,
            r#"{"cmd":"bid","at":0.5,"bidder":1.5,"cost":1,"data":1,"quality":0.5}"#,
            r#"{"cmd":"bid","at":0.5,"bidder":0,"cost":1,"data":-1,"quality":0.5}"#,
            r#"{"cmd":"bid","at":0.5,"bidder":0,"cost":1e999,"data":1,"quality":0.5}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    fn send(out: &mut TcpStream, line: &str) {
        out.write_all(line.as_bytes()).unwrap();
        out.write_all(b"\n").unwrap();
    }

    fn bid_line(at: f64, bid: Bid) -> String {
        format!(
            r#"{{"cmd":"bid","at":{at},"bidder":{},"cost":{},"data":{},"quality":{}}}"#,
            bid.bidder, bid.cost, bid.data_size, bid.quality
        )
    }

    fn read_event(reader: &mut BufReader<TcpStream>) -> JsonValue {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        JsonValue::parse(line.trim()).unwrap()
    }

    fn event_of(v: &JsonValue) -> &str {
        v.get("event").and_then(JsonValue::as_str).unwrap_or("")
    }

    /// A server journaling under a fresh temp dir, running on its own
    /// thread; returns its address and the dir.
    fn start_server(tag: &str) -> (SocketAddr, PathBuf) {
        let dir = temp_dir(tag);
        (serve(ServeConfig::new("127.0.0.1:0", &dir)), dir)
    }

    /// Runs a server on its own thread; returns its address.
    fn serve(cfg: ServeConfig) -> SocketAddr {
        let server = MarketServer::bind(cfg).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        addr
    }

    /// A client connection whose reads time out, so a server that stops
    /// answering fails the test instead of hanging it.
    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// Opens `session`, bids round 0 and seals it; returns every response
    /// line verbatim.
    fn drive_round_zero(
        out: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        session: &str,
    ) -> Vec<String> {
        let mut transcript = Vec::new();
        send(out, &format!(r#"{{"cmd":"hello","session":"{session}"}}"#));
        transcript.push(read_raw_line(reader));
        for (at, bid) in offers_for_round(0) {
            send(out, &bid_line(at, bid));
            transcript.push(read_raw_line(reader));
        }
        send(out, r#"{"cmd":"seal"}"#);
        transcript.push(read_raw_line(reader));
        transcript
    }

    /// Out-of-domain input is answered on its own connection and leaves
    /// the server whole. A negative arrival time used to pass the wire
    /// check and panic the seal while it held the hub lock; the poisoned
    /// lock then panicked every later `hello`, on any session.
    #[test]
    fn tcp_negative_arrival_is_refused_without_poisoning_the_server() {
        let (clean, clean_dir) = start_server("tcp-domain-clean");
        let (mut out, mut reader) = connect(clean);
        let reference = drive_round_zero(&mut out, &mut reader, "b");
        assert!(reference.last().unwrap().contains(r#""event":"sealed""#));

        let (addr, dir) = start_server("tcp-domain");
        let (mut a_out, mut a_in) = connect(addr);
        let (mut b_out, mut b_in) = connect(addr);
        send(&mut a_out, r#"{"cmd":"hello","session":"a"}"#);
        assert_eq!(event_of(&read_event(&mut a_in)), "welcome");
        send(
            &mut a_out,
            r#"{"cmd":"bid","at":-1e-9,"bidder":0,"cost":1,"data":10,"quality":0.5}"#,
        );
        let refused = read_event(&mut a_in);
        assert_eq!(event_of(&refused), "error");
        let message = refused.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(message.contains("`at`"), "{message}");
        send(&mut a_out, r#"{"cmd":"seal"}"#);
        let sealed = read_event(&mut a_in);
        assert_eq!(event_of(&sealed), "sealed");
        assert_eq!(sealed.get("sealed").unwrap().as_usize(), Some(0));

        // The concurrent session B, connected before A's seal, then runs
        // exactly as on a clean server.
        assert_eq!(drive_round_zero(&mut b_out, &mut b_in, "b"), reference);
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A line of exactly `MAX_LINE` bytes is still served; one byte more
    /// gets a named error and the connection closes.
    #[test]
    fn tcp_over_long_line_is_refused_and_closes_the_connection() {
        let (addr, dir) = start_server("tcp-long");
        let (mut out, mut reader) = connect(addr);
        let mut full = String::from(r#"{"cmd":"stats"}"#);
        full.push_str(&" ".repeat(MAX_LINE - full.len()));
        send(&mut out, &full);
        assert_eq!(event_of(&read_event(&mut reader)), "stats");

        send(&mut out, &"x".repeat(MAX_LINE + 1));
        let refused = read_event(&mut reader);
        assert_eq!(event_of(&refused), "error");
        let message = refused.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(message.contains("longer than 1048576 bytes"), "{message}");
        // At most a `bye` follows, then the server closes its end (a
        // reset is a close too: the line's tail was never read).
        let mut rest = Vec::new();
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => rest.push(line),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => panic!("the connection must close, got {e}"),
            }
        }
        assert!(
            rest.iter().all(|l| l.trim() == r#"{"event":"bye"}"#),
            "{rest:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A line that is not UTF-8 gets a named error and the connection
    /// keeps serving.
    #[test]
    fn tcp_invalid_utf8_is_refused_and_the_connection_continues() {
        let (addr, dir) = start_server("tcp-utf8");
        let (mut out, mut reader) = connect(addr);
        out.write_all(b"{\"cmd\":\"st\xffts\"}\n").unwrap();
        let refused = read_event(&mut reader);
        assert_eq!(event_of(&refused), "error");
        let message = refused.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(message.contains("not valid UTF-8"), "{message}");
        send(&mut out, r#"{"cmd":"stats"}"#);
        assert_eq!(event_of(&read_event(&mut reader)), "stats");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end over real sockets: a session drives rounds, quits,
    /// reconnects, and resumes with the same digest; a concurrent claim
    /// of a busy session name is refused.
    #[test]
    fn tcp_sessions_survive_reconnection() {
        let (addr, dir) = start_server("tcp");
        let (mut out, mut reader) = connect(addr);
        send(&mut out, r#"{"cmd":"hello","session":"alpha"}"#);
        let welcome = read_event(&mut reader);
        assert_eq!(welcome.get("event").unwrap().as_str(), Some("welcome"));
        assert_eq!(welcome.get("rounds").unwrap().as_usize(), Some(0));

        // A second connection cannot claim the same live session.
        let (mut out2, mut reader2) = connect(addr);
        send(&mut out2, r#"{"cmd":"hello","session":"alpha"}"#);
        let refused = read_event(&mut reader2);
        assert_eq!(refused.get("event").unwrap().as_str(), Some("error"));
        drop((out2, reader2));

        for (at, bid) in offers_for_round(0) {
            send(&mut out, &bid_line(at, bid));
            let ack = read_event(&mut reader);
            assert_eq!(ack.get("event").unwrap().as_str(), Some("bid"));
            assert_eq!(ack.get("admission").unwrap().as_str(), Some("stored"));
        }
        send(&mut out, r#"{"cmd":"seal"}"#);
        let sealed = read_event(&mut reader);
        assert_eq!(sealed.get("event").unwrap().as_str(), Some("sealed"));
        assert_eq!(sealed.get("round").unwrap().as_usize(), Some(0));
        let digest = sealed.get("digest").unwrap().as_str().unwrap().to_string();
        send(&mut out, r#"{"cmd":"quit"}"#);
        let bye = read_event(&mut reader);
        assert_eq!(bye.get("event").unwrap().as_str(), Some("bye"));
        drop((out, reader));

        // Reconnect: the journal brings the session back, same digest.
        let (mut out, mut reader) = connect(addr);
        send(&mut out, r#"{"cmd":"hello","session":"alpha"}"#);
        let welcome = read_event(&mut reader);
        assert_eq!(welcome.get("rounds").unwrap().as_usize(), Some(1));
        assert_eq!(
            welcome.get("digest").unwrap().as_str(),
            Some(digest.as_str())
        );
        // Garbage on the wire is answered, not fatal.
        send(&mut out, "not json at all");
        let err = read_event(&mut reader);
        assert_eq!(err.get("event").unwrap().as_str(), Some("error"));
        send(&mut out, r#"{"cmd":"state"}"#);
        let state = read_event(&mut reader);
        assert_eq!(state.get("event").unwrap().as_str(), Some("state"));
        assert_eq!(state.get("rounds").unwrap().as_usize(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: the session-lifetime rollup conserves — every offered
    /// arrival lands in exactly one of the totals' buckets — and a
    /// recovered session rebuilds the identical rollup by replay.
    #[test]
    fn stream_totals_conserve_and_survive_recovery() {
        let dir = temp_dir("totals");
        let mut cfg = session_cfg(&dir, 2);
        // A tight deadline with deferral so the rollup sees more than
        // the happy path: late bids defer, re-bids supersede them.
        cfg.ingest.deadline = 0.6;
        cfg.ingest.late_policy = ingest::LateBidPolicy::DeferToNext;
        let mut session = MarketSession::open(cfg.clone()).unwrap();
        let mut offered = 0usize;
        let mut per_round = Vec::new();
        for r in 0..6usize {
            for k in 0..10usize {
                let at = r as f64 + (k as f64 + 0.5) / 10.0;
                let bid = Bid::new(k % 6, 0.8 + k as f64 * 0.1, 100 + 10 * k, 0.8);
                session.offer(at, bid).unwrap();
                offered += 1;
            }
            per_round.push(session.seal().unwrap().stats);
        }
        // One empty flush seal so the final round's deferred bids land
        // in a sealed set instead of sitting outstanding.
        per_round.push(session.seal().unwrap().stats);
        let totals = *session.stream_totals();
        assert_eq!(totals, StreamTotals::from_rounds(&per_round));
        assert_eq!(totals.rounds, 7);
        assert!(totals.deferred > 0, "the deadline must defer some bids");
        assert!(totals.superseded > 0, "re-bids must supersede deferrals");
        // Conservation: every offered arrival sealed, dropped, was
        // superseded, or was shed — nothing vanishes or double-counts.
        assert_eq!(
            totals.sealed + totals.dropped + totals.superseded + totals.shed,
            offered
        );
        drop(session);
        let recovered = MarketSession::open(cfg).unwrap();
        assert_eq!(*recovered.stream_totals(), totals);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `stats` command answers both before `hello` (registry only)
    /// and inside a session (adding the lifetime rollup), and the
    /// response parses back through the same JSON layer.
    #[test]
    fn tcp_stats_reports_registry_and_session_totals() {
        let (addr, dir) = start_server("tcp-stats");
        let (mut out, mut reader) = connect(addr);

        // Pre-hello: a monitor polls server-wide stats without claiming
        // a session.
        send(&mut out, r#"{"cmd":"stats"}"#);
        let stats = read_event(&mut reader);
        assert_eq!(stats.get("event").unwrap().as_str(), Some("stats"));
        let registry = stats.get("registry").expect("stats carries the registry");
        for key in ["enabled", "counters", "gauges", "hists"] {
            assert!(registry.get(key).is_some(), "registry missing {key}");
        }
        assert!(stats.get("session").is_none(), "no session claimed yet");

        send(&mut out, r#"{"cmd":"hello","session":"gamma"}"#);
        read_event(&mut reader);
        for round in 0..2 {
            for (at, bid) in offers_for_round(round) {
                send(&mut out, &bid_line(at, bid));
                read_event(&mut reader);
            }
            send(&mut out, r#"{"cmd":"seal"}"#);
            read_event(&mut reader);
        }
        send(&mut out, r#"{"cmd":"stats"}"#);
        let stats = read_event(&mut reader);
        let session = stats.get("session").expect("in-session stats add totals");
        assert_eq!(session.get("rounds").unwrap().as_usize(), Some(2));
        let totals = session.get("totals").unwrap();
        assert_eq!(totals.get("rounds").unwrap().as_usize(), Some(2));
        assert_eq!(totals.get("arrivals").unwrap().as_usize(), Some(10));
        assert_eq!(totals.get("sealed").unwrap().as_usize(), Some(10));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn read_raw_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end_matches('\n').to_string()
    }

    /// The requests of two rounds and a final `state`, as wire lines.
    fn two_round_script(session: &str) -> Vec<String> {
        let mut script = vec![format!(r#"{{"cmd":"hello","session":"{session}"}}"#)];
        for round in 0..2 {
            for (at, bid) in offers_for_round(round) {
                script.push(bid_line(at, bid));
            }
            script.push(r#"{"cmd":"seal"}"#.to_string());
        }
        script.push(r#"{"cmd":"state"}"#.to_string());
        script
    }

    /// A client that writes every request in one burst gets the same
    /// responses, line for line, as one that waits for each answer.
    #[test]
    fn tcp_pipelined_requests_match_lock_step() {
        let script = two_round_script("p");
        let (lock_addr, lock_dir) = start_server("tcp-lockstep");
        let (mut out, mut reader) = connect(lock_addr);
        let lock_step: Vec<String> = script
            .iter()
            .map(|line| {
                send(&mut out, line);
                read_raw_line(&mut reader)
            })
            .collect();

        let (addr, dir) = start_server("tcp-pipelined");
        let (mut out, mut reader) = connect(addr);
        let burst: String = script.iter().map(|line| format!("{line}\n")).collect();
        out.write_all(burst.as_bytes()).unwrap();
        let pipelined: Vec<String> = script.iter().map(|_| read_raw_line(&mut reader)).collect();
        assert_eq!(pipelined, lock_step);
        assert!(
            lock_step[6].contains(r#""event":"sealed""#),
            "{lock_step:?}"
        );
        std::fs::remove_dir_all(&lock_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A follower that sends a request is told it only listens, and its
    /// feed keeps streaming: the next sealed batch still arrives.
    #[test]
    fn tcp_follower_that_talks_is_refused_and_keeps_streaming() {
        let (addr, dir) = start_server("tcp-follow-talk");
        let (mut out, mut reader) = connect(addr);
        drive_round_zero(&mut out, &mut reader, "delta");

        let (mut fout, mut freader) = connect(addr);
        send(&mut fout, r#"{"cmd":"follow","session":"delta"}"#);
        let boot = read_event(&mut freader);
        let n = boot.get("bytes").unwrap().as_usize().unwrap();
        freader.read_exact(&mut vec![0u8; n]).unwrap();
        assert_eq!(event_of(&read_event(&mut freader)), "live");

        send(&mut fout, r#"{"cmd":"stats"}"#);
        let refused = read_event(&mut freader);
        assert_eq!(event_of(&refused), "error");
        let message = refused.get("message").and_then(JsonValue::as_str).unwrap();
        assert_eq!(message, "followers only listen");

        for (at, bid) in offers_for_round(1) {
            send(&mut out, &bid_line(at, bid));
            read_event(&mut reader);
        }
        send(&mut out, r#"{"cmd":"seal"}"#);
        let sealed = read_event(&mut reader);
        let digest = sealed.get("digest").unwrap().as_str().unwrap().to_string();
        // 5 arrivals + seal + outcome = 7 lines, outcome last.
        let batch: Vec<String> = (0..7).map(|_| read_raw_line(&mut freader)).collect();
        let outcome = JournalEvent::parse_line(&batch[6]).unwrap();
        assert!(
            matches!(outcome, JournalEvent::Outcome { round: 1, digest: d, .. }
                if journal::u64_hex(d) == digest),
            "the batch must end in round 1's outcome, got {outcome:?}"
        );
        drop((fout, freader, out, reader));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Over real sockets: a `follow` connection bootstraps the committed
    /// journal verbatim, goes live, and then receives every newly sealed
    /// round's lines — ending in the outcome whose digest the driver saw.
    #[test]
    fn tcp_follower_streams_committed_lines() {
        let (addr, dir) = start_server("tcp-follow");

        // A driver seals round 0 first, so the follower has a backlog.
        let (mut out, mut reader) = connect(addr);
        send(&mut out, r#"{"cmd":"hello","session":"beta"}"#);
        read_event(&mut reader);
        for (at, bid) in offers_for_round(0) {
            send(&mut out, &bid_line(at, bid));
            read_event(&mut reader);
        }
        send(&mut out, r#"{"cmd":"seal"}"#);
        read_event(&mut reader);

        let (mut fout, mut freader) = connect(addr);
        send(&mut fout, r#"{"cmd":"follow","session":"beta"}"#);
        let boot = read_event(&mut freader);
        assert_eq!(boot.get("event").unwrap().as_str(), Some("bootstrap"));
        let n = boot.get("bytes").unwrap().as_usize().unwrap();
        let mut backlog = vec![0u8; n];
        freader.read_exact(&mut backlog).unwrap();
        assert_eq!(
            backlog,
            committed_prefix(&dir.join("beta.jsonl")).into_bytes(),
            "bootstrap must be the committed journal, byte for byte"
        );
        let live = read_event(&mut freader);
        assert_eq!(live.get("event").unwrap().as_str(), Some("live"));

        // Seal round 1 on the driver; the batch streams to the follower.
        for (at, bid) in offers_for_round(1) {
            send(&mut out, &bid_line(at, bid));
            read_event(&mut reader);
        }
        send(&mut out, r#"{"cmd":"seal"}"#);
        let sealed = read_event(&mut reader);
        let digest = sealed.get("digest").unwrap().as_str().unwrap().to_string();
        // 5 arrivals + seal + outcome = 7 lines, outcome last.
        let batch: Vec<String> = (0..7).map(|_| read_raw_line(&mut freader)).collect();
        let outcome = JournalEvent::parse_line(batch.last().unwrap()).unwrap();
        match outcome {
            JournalEvent::Outcome {
                round,
                digest: journaled,
                ..
            } => {
                assert_eq!(round, 1);
                assert_eq!(journal::u64_hex(journaled), digest);
            }
            other => panic!("the batch must end in the outcome, got {other:?}"),
        }
        drop((fout, freader, out, reader));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A follower keeps up with a leader that compacts every two rounds
    /// while it seals: each compaction renames a new journal file into
    /// place, the feed re-bootstraps on the same connection, and after
    /// every round the replica's digest and backlog match the leader's.
    #[test]
    fn tcp_follower_rebootstraps_across_compactions() {
        let dir = temp_dir("tcp-follow-compact");
        let mut leader_cfg = ServeConfig::new("127.0.0.1:0", &dir);
        leader_cfg.snapshot_every = 2;
        leader_cfg.compact_every = 2;
        leader_cfg.lovm = session_cfg(&dir, 2).lovm;
        let mut replica_cfg = leader_cfg.clone();
        replica_cfg.journal_dir = temp_dir("tcp-follow-compact-replica");
        let addr = serve(leader_cfg);

        let (mut out, mut reader) = connect(addr);
        drive_round_zero(&mut out, &mut reader, "omega");
        let (feed, rx, follower) = spawn_follower(addr, "omega", replica_cfg.session("omega"));

        let mut rebootstraps = 0;
        let mut last = (0, 0, 0);
        for r in 1..9 {
            for (at, bid) in offers_for_round(r) {
                send(&mut out, &bid_line(at, bid));
                read_event(&mut reader);
            }
            send(&mut out, r#"{"cmd":"seal"}"#);
            last = sealed_state(&read_event(&mut reader));
            // Wait until the replica holds this round.
            loop {
                let (applied, state) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
                if r > 1 && applied == Replicated::Bootstrap {
                    rebootstraps += 1;
                }
                if state.0 == r + 1 {
                    assert_eq!(state, last, "replica after round {r}");
                    break;
                }
            }
        }
        assert!(
            rebootstraps >= 3,
            "each compaction re-bootstraps the feed, saw {rebootstraps}"
        );
        // The leader compacted at its last seal, so the replica's journal
        // is the fresh bootstrap: the leader's committed bytes.
        feed.shutdown(std::net::Shutdown::Both).unwrap();
        follower.join().unwrap().unwrap();
        let replica_journal = replica_cfg.session("omega").journal;
        assert_eq!(
            std::fs::read_to_string(&replica_journal).unwrap(),
            committed_prefix(&dir.join("omega.jsonl"))
        );
        // Promoted, the replica resumes at the leader's last round.
        let promoted = MarketSession::open(replica_cfg.session("omega")).unwrap();
        let state = (
            promoted.rounds_sealed(),
            promoted.digest(),
            promoted.backlog().to_bits(),
        );
        assert_eq!(state, last);
        drop((out, reader));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&replica_cfg.journal_dir).ok();
    }

    /// A replica's rounds, digest and backlog bits.
    type ReplicaState = (usize, u64, u64);

    /// The replica state a leader's `sealed` response implies.
    fn sealed_state(sealed: &JsonValue) -> ReplicaState {
        let round = sealed.get("round").unwrap().as_usize().unwrap();
        let digest = sealed.get("digest").unwrap().as_str().unwrap();
        let backlog = sealed.get("backlog").unwrap().as_f64().unwrap();
        let digest = journal::u64_from_hex(digest).unwrap();
        (round + 1, digest, backlog.to_bits())
    }

    /// Follows session `name` at `addr` into `cfg` on its own thread,
    /// sending each commit point it applies on the returned channel.
    /// Shutting the returned stream down ends the feed.
    fn spawn_follower(
        addr: SocketAddr,
        name: &'static str,
        cfg: SessionConfig,
    ) -> (
        TcpStream,
        std::sync::mpsc::Receiver<(Replicated, ReplicaState)>,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let stream = TcpStream::connect(addr).unwrap();
        let feed = stream.try_clone().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let follower = std::thread::spawn(move || {
            follow(stream, name, &cfg, |applied, s| {
                let state = (s.rounds_sealed(), s.digest(), s.backlog().to_bits());
                tx.send((applied, state)).unwrap();
            })
        });
        (feed, rx, follower)
    }

    /// Opens `session` on a new connection, retrying while the server
    /// still releases the claim of the connection that closed it.
    fn hello(addr: SocketAddr, session: &str) -> (TcpStream, BufReader<TcpStream>) {
        for _ in 0..500 {
            let (mut out, mut reader) = connect(addr);
            send(
                &mut out,
                &format!(r#"{{"cmd":"hello","session":"{session}"}}"#),
            );
            if event_of(&read_event(&mut reader)) == "welcome" {
                return (out, reader);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("session `{session}` was never released");
    }

    /// A client reconnect reopens the session on the same journal file,
    /// which recovery truncates in place, so a follower attached across
    /// reconnects is bootstrapped once and then sent only new rounds. It
    /// attaches before the session's first `hello`, which finds the
    /// journal the feed created.
    #[test]
    fn tcp_follower_bootstraps_once_across_client_reconnects() {
        let (addr, dir) = start_server("tcp-follow-reconnect");
        let replica = ServeConfig::new("", temp_dir("tcp-follow-reconnect-replica"));
        let (feed, rx, follower) = spawn_follower(addr, "rho", replica.session("rho"));
        let mut applied = vec![rx.recv_timeout(Duration::from_secs(30)).unwrap()];
        let mut sealed = vec![(0, Digest::new().value(), 0.0f64.to_bits())];
        for r in 0..4 {
            let (mut out, mut reader) = hello(addr, "rho");
            for (at, bid) in offers_for_round(r) {
                send(&mut out, &bid_line(at, bid));
                read_event(&mut reader);
            }
            send(&mut out, r#"{"cmd":"seal"}"#);
            sealed.push(sealed_state(&read_event(&mut reader)));
            // An arrival left unsealed, which the next reopen truncates.
            let (at, bid) = offers_for_round(r + 1)[0];
            send(&mut out, &bid_line(at, bid));
            read_event(&mut reader);
            drop((out, reader));
            applied.push(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        feed.shutdown(std::net::Shutdown::Both).unwrap();
        follower.join().unwrap().unwrap();
        applied.extend(rx.try_iter());
        let (kinds, states): (Vec<_>, Vec<_>) = applied.into_iter().unzip();
        assert_eq!(kinds[0], Replicated::Bootstrap);
        assert_eq!(kinds[1..], [Replicated::Round; 4], "no second bootstrap");
        assert_eq!(states, sealed);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&replica.journal_dir).ok();
    }

    /// Under the default `Backpressure::Block`, arrivals past a full
    /// buffer are parked and sealed in the next round, so a round can seal
    /// far more bids than the buffer holds. The follower's line cap
    /// follows the bids its replica holds, so it replicates such a round.
    #[test]
    fn tcp_follower_replicates_a_blocked_burst_past_capacity() {
        let dir = temp_dir("tcp-follow-burst");
        let mut cfg = ServeConfig::new("127.0.0.1:0", &dir);
        cfg.ingest.capacity = 4;
        cfg.lovm = session_cfg(&dir, 2).lovm;
        let mut replica = cfg.clone();
        replica.journal_dir = temp_dir("tcp-follow-burst-replica");
        let addr = serve(cfg);
        let (feed, rx, follower) = spawn_follower(addr, "burst", replica.session("burst"));
        let (mut out, mut reader) = hello(addr, "burst");
        for i in 0..300 {
            let bid = Bid::new(i, 0.6 + (i % 11) as f64 * 0.21, 80 + i, 0.6);
            send(&mut out, &bid_line((i as f64 + 0.5) / 300.0, bid));
            read_event(&mut reader);
        }
        let mut sealed = Vec::new();
        for _ in 0..2 {
            send(&mut out, r#"{"cmd":"seal"}"#);
            sealed.push(read_event(&mut reader));
        }
        assert_eq!(sealed[1].get("sealed").unwrap().as_usize(), Some(296));
        let (_, state) = rx.iter().find(|(_, state)| state.0 == 2).unwrap();
        assert_eq!(state, sealed_state(&sealed[1]));
        feed.shutdown(std::net::Shutdown::Both).unwrap();
        follower.join().unwrap().unwrap();
        drop((out, reader));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&replica.journal_dir).ok();
    }

    /// A leader for one follower: it checks the `follow` request for
    /// session `market`, sends `feed`, then (with `endless`) one line that
    /// never ends, until the follower hangs up, and closes.
    fn fake_leader(feed: String, endless: bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let leader = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(conn.try_clone().unwrap())
                .read_line(&mut request)
                .unwrap();
            assert_eq!(request, "{\"cmd\":\"follow\",\"session\":\"market\"}\n");
            conn.write_all(feed.as_bytes()).unwrap();
            let chunk = [b'x'; 1 << 16];
            while endless && conn.write_all(&chunk).is_ok() {}
        });
        (addr, leader)
    }

    /// A bootstrap line for `bytes` journal bytes.
    fn bootstrap_line(bytes: usize) -> String {
        format!("{{\"event\":\"bootstrap\",\"session\":\"market\",\"bytes\":{bytes}}}\n")
    }

    /// A follower frames feed lines with a cap from the bids its replica
    /// holds: a leader that sends a valid bootstrap and then a line that
    /// never ends gets a named error, not a follower that reads on.
    #[test]
    fn follower_refuses_an_endless_feed_line() {
        let leader_dir = temp_dir("endless-leader");
        let mut leader = MarketSession::open(session_cfg(&leader_dir, 2)).unwrap();
        drive_rounds(&mut leader, 0..1);
        let journal = committed_prefix(&leader_dir.join("market.jsonl"));
        let feed = bootstrap_line(journal.len()) + &journal + "{\"event\":\"live\"}\n";
        let (addr, fake_leader) = fake_leader(feed, true);

        let follower_dir = temp_dir("endless-follower");
        let cfg = session_cfg(&follower_dir, 2);
        let mut installed = None;
        let err = follow(TcpStream::connect(addr).unwrap(), "market", &cfg, |_, s| {
            installed = Some((s.rounds_sealed(), s.market.collector.outstanding()))
        })
        .unwrap_err();
        let (rounds, held) = installed.expect("the bootstrap was installed");
        assert_eq!(rounds, 1);
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let cap = feed_line_cap(held);
        assert!(
            err.to_string()
                .contains(&format!("feed line longer than {cap} bytes")),
            "{err}"
        );
        fake_leader.join().unwrap();
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    /// A leader that dies partway through a bootstrap leaves the
    /// follower's journal as it was: the follower returns, and its replica
    /// opens at the round it last committed.
    #[test]
    fn follower_keeps_its_journal_when_the_leader_dies_mid_bootstrap() {
        let leader_dir = temp_dir("torn-boot-leader");
        let leader_journal = leader_dir.join("market.jsonl");
        let mut leader = MarketSession::open(session_cfg(&leader_dir, 2)).unwrap();
        drive_rounds(&mut leader, 0..1);
        let first = committed_prefix(&leader_journal);
        drive_rounds(&mut leader, 1..2);
        let second = committed_prefix(&leader_journal);
        let mut feed = bootstrap_line(first.len()) + &first + "{\"event\":\"live\"}\n";
        feed += &second[first.len()..];
        feed += &bootstrap_line(second.len());
        feed += &second[..second.len() / 2];
        let (addr, fake_leader) = fake_leader(feed, false);

        let follower_dir = temp_dir("torn-boot-follower");
        let cfg = session_cfg(&follower_dir, 2);
        let mut commits = Vec::new();
        follow(
            TcpStream::connect(addr).unwrap(),
            "market",
            &cfg,
            |applied, s| commits.push((applied, s.rounds_sealed())),
        )
        .unwrap();
        fake_leader.join().unwrap();
        assert_eq!(
            commits,
            [(Replicated::Bootstrap, 1), (Replicated::Round, 2)]
        );
        assert_eq!(std::fs::read_to_string(&cfg.journal).unwrap(), second);
        let replica = MarketSession::open(cfg).unwrap();
        assert_eq!(replica.rounds_sealed(), 2);
        assert_eq!(replica.digest(), leader.digest());
        let files: Vec<_> = std::fs::read_dir(&follower_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["market.jsonl"], "no temp file is left behind");
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    /// A panic while the hub lock is held poisons it; the server takes
    /// the lock as it is, and another session still opens, bids and
    /// seals exactly as on a clean server.
    #[test]
    fn tcp_poisoned_hub_lock_still_serves() {
        let (clean, clean_dir) = start_server("tcp-poison-clean");
        let (mut out, mut reader) = connect(clean);
        let reference = drive_round_zero(&mut out, &mut reader, "b");

        let dir = temp_dir("tcp-poison");
        let server = MarketServer::bind(ServeConfig::new("127.0.0.1:0", &dir)).unwrap();
        let addr = server.local_addr().unwrap();
        let hub = Arc::clone(&server.hub);
        let poisoner = std::thread::spawn(move || {
            let _held = hub.lock();
            panic!("a session panics under the hub lock");
        });
        assert!(poisoner.join().is_err());
        assert!(server.hub.marks.is_poisoned());
        std::thread::spawn(move || server.run());

        let (mut out, mut reader) = connect(addr);
        assert_eq!(drive_round_zero(&mut out, &mut reader, "b"), reference);
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The feed's pin check: a journal renamed over before its mark is
    /// published is not ready, and nothing is copied from it; once the mark
    /// names the file, the feed pins it and sends its committed bytes.
    #[test]
    fn feed_pins_a_journal_only_under_its_own_mark() {
        let dir = temp_dir("pin");
        let path = dir.join("market.jsonl");
        std::fs::write(&path, "old\n").unwrap();
        let hub = Hub::default();
        let old = Commit::of(&File::open(&path).unwrap(), 4).unwrap();
        hub.publish("market", old);
        let tmp = dir.join("market.jsonl.tmp");
        std::fs::write(&tmp, "new!\ntail").unwrap();
        std::fs::rename(&tmp, &path).unwrap();

        let (file, mark) = pin_journal(&hub, &path, "market").unwrap();
        assert!(file.is_none(), "a mark on another file pins nothing");
        assert_eq!(mark, old);
        let mut out = Vec::new();
        let (file, _) = send_bootstrap(&mut out, &hub, &path, "market").unwrap();
        assert!(file.is_none() && out.is_empty(), "nothing is copied");

        let new = Commit::of(&File::open(&path).unwrap(), 5).unwrap();
        hub.publish("market", new);
        let (file, mark) = pin_journal(&hub, &path, "market").unwrap();
        assert!(file.is_some(), "the mark names the opened file");
        assert_eq!(mark, new);
        send_bootstrap(&mut out, &hub, &path, "market").unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"event\":\"bootstrap\",\"session\":\"market\",\"bytes\":5}\nnew!\n{\"event\":\"live\"}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One session's seal holds no lock another session needs. Session
    /// A's snapshot temp file is a FIFO, so A's seal blocks opening it
    /// until a reader comes; meanwhile session B opens, bids and seals
    /// exactly as on a clean server. Once the FIFO is read, A's seal fails
    /// (a FIFO cannot be fsynced) after its round committed: A gets an
    /// error saying so and its connection ends; B seals again, and A
    /// reopens at round 1.
    #[test]
    fn tcp_blocked_seal_does_not_stop_another_session() {
        let script = |session: &str| {
            let mut lines = vec![format!(r#"{{"cmd":"hello","session":"{session}"}}"#)];
            for r in 0..2 {
                lines.extend(
                    offers_for_round(r)
                        .into_iter()
                        .map(|(at, bid)| bid_line(at, bid)),
                );
                lines.push(r#"{"cmd":"seal"}"#.to_string());
            }
            lines
        };
        let run = |out: &mut TcpStream, reader: &mut BufReader<TcpStream>, lines: &[String]| {
            let mut transcript = Vec::new();
            for line in lines {
                send(out, line);
                transcript.push(read_raw_line(reader));
            }
            transcript
        };
        let server_cfg = |dir: &Path| {
            let mut cfg = ServeConfig::new("127.0.0.1:0", dir);
            cfg.snapshot_every = 1;
            cfg
        };
        let b_script = script("B");
        let (round0, round1) = b_script.split_at(7);

        let clean_dir = temp_dir("tcp-blocked-clean");
        let (mut out, mut reader) = connect(serve(server_cfg(&clean_dir)));
        let reference = run(&mut out, &mut reader, &b_script);

        let dir = temp_dir("tcp-blocked");
        let fifo = dir.join("A.snapshot.json.tmp");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.unwrap().success(), "mkfifo {}", fifo.display());
        let addr = serve(server_cfg(&dir));
        let (mut a_out, mut a_in) = connect(addr);
        let a_script = script("A");
        run(&mut a_out, &mut a_in, &a_script[..6]);
        send(&mut a_out, &a_script[6]);
        // A's round 0 is committed once its outcome line is in the
        // journal; its seal then goes on to the snapshot and blocks.
        let a_journal = dir.join("A.jsonl");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !std::fs::read_to_string(&a_journal)
            .unwrap()
            .contains(r#""event":"outcome""#)
        {
            assert!(Instant::now() < deadline, "A's round 0 never committed");
            std::thread::sleep(Duration::from_millis(5));
        }

        let (mut b_out, mut b_in) = connect(addr);
        b_out
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut transcript = run(&mut b_out, &mut b_in, round0);
        assert_eq!(transcript, reference[..7], "B while A's seal is blocked");

        std::io::read_to_string(File::open(&fifo).unwrap()).unwrap();
        // A's seal failed after its commit: A is told so, then closed.
        let failed = read_event(&mut a_in);
        assert_eq!(event_of(&failed), "error");
        let message = failed.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(message.starts_with("round 0 committed"), "{message}");
        assert_eq!(
            a_in.read_line(&mut String::new()).unwrap(),
            0,
            "A's connection closed"
        );
        transcript.extend(run(&mut b_out, &mut b_in, round1));
        assert_eq!(transcript, reference);
        let (mut a_out, mut a_in) = hello(addr, "A");
        send(&mut a_out, r#"{"cmd":"state"}"#);
        assert_eq!(
            read_event(&mut a_in).get("rounds").unwrap().as_usize(),
            Some(1)
        );
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
