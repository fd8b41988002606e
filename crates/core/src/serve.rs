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
//! `std::net::TcpListener` accept loop: one thread per connection, each
//! connection a reader-producer feeding a bounded `mpsc` channel into
//! the market loop (the same producer/consumer discipline as
//! `ingest::ThreadedDriver` — a disconnected peer is a graceful stop,
//! never a panic). Many sessions run concurrently, each with its own
//! journal file keyed by the client-chosen session name.
//!
//! **Replication.** A connection that says `follow` instead of `hello`
//! becomes a live replica feed: the server sends the session's committed
//! journal verbatim (a `bootstrap` line, the raw backlog, a `live`
//! marker), then every newly committed round's lines the instant its
//! seal fsyncs. A follower process ([`MarketSession::apply_replicated`],
//! `lovm follow`) replays each line through the *same* `run_round` code
//! path the leader ran, verifying every journaled digest bitwise, and
//! keeps its own journal — so when the leader dies the follower can be
//! promoted to serve the session with state exact to the bit. The
//! replay-equality machinery is the oracle: leader and follower agree
//! because they are the same computation.
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
use journal::{Digest, JournalEvent, JournalWriter, Snapshot};
use metrics::json::JsonValue;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
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
    collector: RoundCollector,
    lovm: Lovm,
    pool: par::Pool,
    digest: Digest,
    welfare: f64,
    spend: f64,
    next_seq: u64,
    rounds_since_snapshot: usize,
    rounds_since_compact: usize,
    recovered_rounds: usize,
    /// The most recent snapshot on disk — the boundary the next
    /// compaction may drop the journal prefix up to.
    last_snapshot: Option<Snapshot>,
    /// Raw journal lines appended since the last commit (the feed unit
    /// replication publishes per sealed round).
    pending_lines: Vec<String>,
    /// The lines the last seal committed, until a publisher drains them.
    last_commit_lines: Vec<String>,
    /// Session-lifetime ingestion rollup. Folded in `run_round`, which
    /// replay shares — so recovery rebuilds the same totals a session
    /// that never crashed would report via the `stats` command.
    totals: StreamTotals,
}

fn corrupt(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl MarketSession {
    /// Opens (or resumes) the session: recovers the journal — truncating
    /// any torn or uncommitted tail — then rebuilds the market state by
    /// snapshot fast-forward plus a buffered streaming replay (memory
    /// stays bounded however large the log), verifying the recomputed
    /// digest against every replayed outcome line. A compacted journal's
    /// embedded base snapshot restores the dropped prefix; a separate
    /// snapshot file is used only when it verifies against a commit
    /// boundary and sits further ahead — the snapshot is an accelerator,
    /// never the truth.
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
        let meta = journal::recover_meta(&cfg.journal)?;
        let file_snapshot = match &cfg.snapshot {
            Some(path) => journal::read_snapshot(path)?.filter(|s| meta.snapshot_covers(s)),
            None => None,
        };
        // The compaction base is itself a snapshot (it rode into the
        // journal inside the header); fast-forward from whichever
        // verified snapshot sits further ahead.
        let snapshot = match (file_snapshot, meta.base.clone()) {
            (Some(f), Some(b)) => Some(if f.events >= b.events { f } else { b }),
            (f, b) => f.or(b),
        };
        let writer = if cfg.journal.exists() {
            JournalWriter::open_append(&cfg.journal, meta.committed_events)?
        } else {
            JournalWriter::create(&cfg.journal)?
        };
        let mut lovm = Lovm::new(cfg.lovm);
        let (collector, digest, welfare, spend, next_seq, replay_from_bytes) = match &snapshot {
            Some(snap) => {
                lovm.restore_backlog(snap.backlog);
                (
                    RoundCollector::restore(&cfg.ingest, cfg.ingest.capacity, &snap.collector),
                    Digest::resume(snap.digest),
                    snap.welfare,
                    snap.spend,
                    snap.collector.next_seq,
                    meta.replay_offset(snap),
                )
            }
            None => (
                RoundCollector::new(&cfg.ingest),
                Digest::new(),
                0.0,
                0.0,
                0,
                0,
            ),
        };
        // Resume the rollup from the snapshot so the fast-forwarded
        // prefix still counts; replay below re-absorbs the suffix.
        let resumed_totals = snapshot.as_ref().map(|s| s.totals).unwrap_or_default();
        let mut session = MarketSession {
            cfg,
            writer,
            collector,
            lovm,
            pool: par::Pool::auto(),
            digest,
            welfare,
            spend,
            next_seq,
            rounds_since_snapshot: 0,
            rounds_since_compact: 0,
            recovered_rounds: 0,
            last_snapshot: snapshot,
            pending_lines: Vec::new(),
            last_commit_lines: Vec::new(),
            totals: resumed_totals,
        };
        let journal_path = session.cfg.journal.clone();
        journal::stream_events(
            &journal_path,
            replay_from_bytes,
            meta.committed_bytes,
            |ev| session.replay_event(ev),
        )?;
        session.recovered_rounds = session.collector.next_round();
        Ok(session)
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
        let seq = self.next_seq;
        self.next_seq += 1;
        let line = JournalEvent::Arrival { seq, at, bid }.to_line();
        self.writer.append_raw(&line)?;
        self.pending_lines.push(line);
        let admission = self.collector.offer_at(seq, TimedBid { at, bid });
        Ok((seq, admission))
    }

    /// Seals the next round: runs the topology-aware VCG path, journals
    /// the seal and outcome lines, fsyncs (the commit point), stages the
    /// round's committed lines for replication, and runs the snapshot /
    /// compaction cadences.
    pub fn seal(&mut self) -> std::io::Result<SealedOutcome> {
        let observing = telemetry::enabled();
        let solve_start = observing.then(Instant::now);
        let (collected, outcome) = self.run_round();
        let solve_ns = elapsed_ns(solve_start);
        let round = collected.sealed.round();
        let backlog = self.lovm.queue_backlog();
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
            digest: self.digest.value(),
        }
        .to_line();
        let persist_start = observing.then(Instant::now);
        self.writer.append_raw(&seal_line)?;
        self.pending_lines.push(seal_line);
        self.writer.append_raw(&outcome_line)?;
        self.pending_lines.push(outcome_line);
        self.writer.sync()?;
        let persist_ns = elapsed_ns(persist_start);
        // Everything staged since the last seal is now durable: hand it
        // to the replication feed as one committed batch.
        self.last_commit_lines = std::mem::take(&mut self.pending_lines);
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
            digest: self.digest.value(),
        })
    }

    /// Drains the journal lines the last seal committed — the per-round
    /// batch a replication publisher forwards to followers.
    pub fn take_committed_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.last_commit_lines)
    }

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
        let snap = Snapshot {
            events: self.writer.events(),
            collector: self.collector.export_state(),
            backlog: self.lovm.queue_backlog(),
            welfare: self.welfare,
            spend: self.spend,
            digest: self.digest.value(),
            totals: self.totals,
        };
        journal::write_snapshot(path, &snap)?;
        self.last_snapshot = Some(snap);
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
        let Some(snap) = self.last_snapshot.clone() else {
            return Ok(());
        };
        let stats = journal::compact(&self.cfg.journal, &snap)?;
        if stats.dropped_events > 0 {
            // The rename replaced the inode the writer held open.
            self.writer = JournalWriter::open_append(&self.cfg.journal, self.writer.events())?;
        }
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
        self.replay_event(&ev)?;
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
        self.collector.next_round()
    }

    /// Rounds the session resumed with at [`MarketSession::open`].
    pub fn recovered_rounds(&self) -> usize {
        self.recovered_rounds
    }

    /// Running state digest (see `journal::Digest`).
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// Current virtual-queue backlog.
    pub fn backlog(&self) -> f64 {
        self.lovm.queue_backlog()
    }

    /// Cumulative virtual welfare over all sealed rounds.
    pub fn welfare(&self) -> f64 {
        self.welfare
    }

    /// Cumulative payments over all sealed rounds.
    pub fn total_spend(&self) -> f64 {
        self.spend
    }

    /// Committed + appended journal events.
    pub fn journal_events(&self) -> u64 {
        self.writer.events()
    }

    /// Session-lifetime ingestion rollup — every sealed round's stats
    /// folded through [`StreamTotals::absorb`], recovered rounds
    /// included. The `stats` wire command reports this.
    pub fn stream_totals(&self) -> &StreamTotals {
        &self.totals
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

fn respond(out: &mut TcpStream, v: JsonValue) -> std::io::Result<()> {
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

/// Server-wide replication hub: per-session lists of follower feeds.
///
/// The hub mutex is also the server's *ordering* lock: seals, snapshot
/// and compaction renames, session opens (truncating recovery), and
/// follower bootstrap reads all happen while holding it — so a follower
/// registering mid-stream sees every committed line exactly once (the
/// bootstrap read and the feed registration are atomic with respect to
/// any concurrent seal).
#[derive(Debug, Default)]
struct HubState {
    followers: HashMap<String, Vec<mpsc::Sender<Vec<String>>>>,
}

impl HubState {
    /// Sends one committed batch to every live follower of `session`,
    /// dropping feeds whose receiver has gone away.
    fn publish(&mut self, session: &str, lines: Vec<String>) {
        if lines.is_empty() {
            return;
        }
        let Some(feeds) = self.followers.get_mut(session) else {
            return;
        };
        feeds.retain(|tx| tx.send(lines.clone()).is_ok());
        if feeds.is_empty() {
            self.followers.remove(session);
        }
    }
}

type Hub = Arc<Mutex<HubState>>;

/// The TCP market server (see module docs).
#[derive(Debug)]
pub struct MarketServer {
    listener: TcpListener,
    cfg: ServeConfig,
    active: Arc<Mutex<HashSet<String>>>,
    hub: Hub,
}

/// A session opened by `hello`. Fields drop in order: the session closes
/// its journal before the claim frees the name for the next `hello`.
struct OpenSession {
    session: MarketSession,
    claim: SessionClaim,
}

/// Releases a claimed session name when the connection ends, however it
/// ends.
struct SessionClaim {
    name: String,
    active: Arc<Mutex<HashSet<String>>>,
}

impl Drop for SessionClaim {
    fn drop(&mut self) {
        self.active.lock().unwrap().remove(&self.name);
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
            active: Arc::new(Mutex::new(HashSet::new())),
            hub: Arc::new(Mutex::new(HubState::default())),
        })
    }

    /// The actually-bound address (resolves an ephemeral `:0` port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one handler thread per connection.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let Ok(stream) = stream else { continue };
            let cfg = self.cfg.clone();
            let active = Arc::clone(&self.active);
            let hub = Arc::clone(&self.hub);
            std::thread::spawn(move || {
                // A dropped peer is a normal way for a connection to end.
                let _ = handle_connection(stream, &cfg, active, hub);
            });
        }
        Ok(())
    }
}

/// Longest request line the server reads, newline excluded: 1 MiB. A
/// longer line gets an `error` and the connection is closed, so one peer
/// cannot make the reader buffer without bound.
const MAX_LINE: usize = 1 << 20;

/// The connection's reader half, a producer feeding the bounded channel
/// like `ingest::ThreadedDriver` (it stops once the market loop is gone).
/// An over-long line ends the connection; an invalid-UTF-8 one does not.
fn read_requests(stream: TcpStream, tx: mpsc::SyncSender<Result<Request, String>>) {
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from a full one.
        let limit = MAX_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE {
            let _ = tx.send(Err(format!("line longer than {MAX_LINE} bytes")));
            break;
        }
        let request = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse_request(line),
            Err(e) => Err(format!("line is not valid UTF-8: {e}")),
        };
        if tx.send(request).is_err() {
            return;
        }
    }
    // EOF (or a read error) quits the session like a polite client.
    let _ = tx.send(Ok(Request::Quit));
}

/// Runs one connection's request loop. Before `hello` only `stats`,
/// `follow` and `quit` do anything; `hello` opens the named session, and
/// from then on the same loop serves its bids, seals and queries.
fn handle_connection(
    stream: TcpStream,
    cfg: &ServeConfig,
    active: Arc<Mutex<HashSet<String>>>,
    hub: Hub,
) -> std::io::Result<()> {
    let reader = stream.try_clone()?;
    let mut out = stream;
    let (tx, rx) = mpsc::sync_channel::<Result<Request, String>>(cfg.ingest.capacity.min(4096));
    std::thread::spawn(move || read_requests(reader, tx));

    let mut open: Option<OpenSession> = None;
    loop {
        // A reader that went away quits like a polite client.
        let request = rx.recv().unwrap_or(Ok(Request::Quit));
        let response = match (request, open.as_mut()) {
            (Err(msg), _) => error_response(&msg),
            (Ok(Request::Quit), _) => {
                let _ = respond(&mut out, JsonValue::object().field("event", "bye"));
                return Ok(());
            }
            // Server-wide stats work before a session is named, so a
            // monitor like `lovm top` never has to claim one.
            (Ok(Request::Stats), o) => stats_response(o.map(|o| &o.session)),
            (Ok(Request::Hello { .. } | Request::Follow { .. }), Some(_)) => {
                error_response("already in a session")
            }
            (Ok(Request::Follow { session }), None) => {
                return run_follower_feed(out, &rx, cfg, &hub, &session);
            }
            (Ok(Request::Hello { session }), None) => {
                match open_session(cfg, &active, &hub, session) {
                    Ok(opened) => {
                        let o = open.insert(opened);
                        let head = JsonValue::object()
                            .field("event", "welcome")
                            .field("session", o.claim.name.as_str());
                        session_summary(head, &o.session, false)
                    }
                    Err(refusal) => {
                        respond(&mut out, error_response(&refusal))?;
                        return Ok(());
                    }
                }
            }
            (Ok(_), None) => error_response("say hello first"),
            (Ok(Request::Bid { at, bid }), Some(o)) => {
                let (seq, admission) = o.session.offer(at, bid)?;
                JsonValue::object()
                    .field("event", "bid")
                    .field("seq", seq)
                    .field("admission", admission_name(admission))
            }
            (Ok(Request::Seal), Some(o)) => {
                // Seal and publish under the hub lock so every follower
                // sees committed batches in seal order, with no window
                // between the fsync and the feed.
                let sealed = {
                    let mut hub_state = hub.lock().expect("no session panics under the hub lock");
                    let sealed = o.session.seal()?;
                    hub_state.publish(&o.claim.name, o.session.take_committed_lines());
                    sealed
                };
                sealed_response(&sealed)
            }
            (Ok(Request::State), Some(o)) => session_summary(
                JsonValue::object().field("event", "state"),
                &o.session,
                true,
            ),
        };
        respond(&mut out, response)?;
    }
}

/// Claims session `name` for this connection and opens it, or says why
/// not: another connection serves it, or its journal does not recover.
fn open_session(
    cfg: &ServeConfig,
    active: &Arc<Mutex<HashSet<String>>>,
    hub: &Hub,
    name: String,
) -> Result<OpenSession, String> {
    if !active.lock().unwrap().insert(name.clone()) {
        return Err(format!("session `{name}` is already being served"));
    }
    let claim = SessionClaim {
        name,
        active: Arc::clone(active),
    };
    // Open under the hub lock: recovery truncates the journal's torn
    // tail, which must not race a follower's bootstrap read.
    let opened = {
        let _ordering = hub.lock().expect("no session panics under the hub lock");
        MarketSession::open(cfg.session(&claim.name))
    };
    match opened {
        Ok(session) => Ok(OpenSession { session, claim }),
        Err(e) => Err(format!("cannot open session `{}`: {e}", claim.name)),
    }
}

/// Serves one follower connection: bootstrap (the committed journal,
/// verbatim), a `live` marker, then every newly committed round's lines
/// as the leader seals them. Registering the feed and reading the
/// backlog happen under the same hub lock any seal publishes under, so
/// the stream has no duplicates and no gaps.
fn run_follower_feed(
    mut out: TcpStream,
    rx: &mpsc::Receiver<Result<Request, String>>,
    cfg: &ServeConfig,
    hub: &Hub,
    session: &str,
) -> std::io::Result<()> {
    let journal_path = cfg.session(session).journal;
    let (backlog, feed_rx) = {
        let mut hub_state = hub.lock().expect("no session panics under the hub lock");
        let backlog = journal::committed_lines(&journal_path)?;
        let (feed_tx, feed_rx) = mpsc::channel::<Vec<String>>();
        hub_state
            .followers
            .entry(session.to_string())
            .or_default()
            .push(feed_tx);
        (backlog, feed_rx)
    };
    respond(
        &mut out,
        JsonValue::object()
            .field("event", "bootstrap")
            .field("session", session)
            .field("lines", backlog.len()),
    )?;
    for line in &backlog {
        let mut framed = line.clone();
        framed.push('\n');
        out.write_all(framed.as_bytes())?;
    }
    respond(&mut out, JsonValue::object().field("event", "live"))?;
    loop {
        match feed_rx.recv_timeout(Duration::from_millis(200)) {
            Ok(batch) => {
                let mut framed = String::new();
                for line in &batch {
                    framed.push_str(line);
                    framed.push('\n');
                }
                out.write_all(framed.as_bytes())?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Reap a departed follower: its reader thread sends Quit
                // at EOF (or the channel just disconnects).
                match rx.try_recv() {
                    Ok(Ok(Request::Quit)) | Err(mpsc::TryRecvError::Disconnected) => {
                        return Ok(());
                    }
                    Ok(_) => {
                        respond(&mut out, error_response("followers only listen"))?;
                    }
                    Err(mpsc::TryRecvError::Empty) => {}
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
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

        // Bootstrap: the leader's committed journal, written verbatim
        // (compaction header included) into the follower's journal.
        let backlog = journal::committed_lines(leader_dir.join("market.jsonl")).unwrap();
        let mut text = String::new();
        for line in &backlog {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(follower_dir.join("market.jsonl"), text).unwrap();
        let mut follower_cfg = session_cfg(&follower_dir, 2);
        follower_cfg.compact_every = 2;
        let mut follower = MarketSession::open(follower_cfg.clone()).unwrap();
        assert_eq!(follower.rounds_sealed(), 3);
        assert_eq!(follower.digest(), leader.digest());

        // Live: every sealed round's committed batch replays through the
        // same code path, the journaled digest checked at each outcome.
        for r in 3..6 {
            for (at, bid) in offers_for_round(r) {
                leader.offer(at, bid).unwrap();
            }
            let sealed = leader.seal().unwrap();
            let batch = leader.take_committed_lines();
            assert!(!batch.is_empty(), "a seal publishes its lines");
            let mut committed = None;
            for line in &batch {
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
        let lines = journal::committed_lines(&journal_path).unwrap();
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
        let server = MarketServer::bind(ServeConfig::new("127.0.0.1:0", &dir)).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        (addr, dir)
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
        let n = boot.get("lines").unwrap().as_usize().unwrap();
        let backlog: Vec<String> = (0..n).map(|_| read_raw_line(&mut freader)).collect();
        assert_eq!(
            backlog,
            journal::committed_lines(dir.join("beta.jsonl")).unwrap(),
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
}
