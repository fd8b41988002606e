//! The append-only journal file: durable writes, torn-tail recovery,
//! and prefix compaction.
//!
//! **Durability contract.** Arrival lines are written and flushed (so the
//! OS holds them), but only a seal commits: [`JournalWriter::sync`] runs
//! `fdatasync` after the round's seal + outcome lines, making the
//! *outcome line* the commit record. Recovery scans the file front to
//! back and keeps exactly the prefix ending at the last complete outcome
//! line; everything after it — torn half-lines from a crashed write,
//! arrivals that were never sealed, a seal line whose outcome never made
//! it out — is truncated and never replayed. Clients re-send bids the
//! server never acknowledged a seal for; the collector's freshest-bid
//! dedupe makes those re-sends idempotent. File *creation* and every
//! rename are followed by a parent-directory fsync, so a crash right
//! after cannot lose the directory entry of data already on stable
//! storage.
//!
//! **Compaction.** [`compact`] bounds the journal to the suffix a
//! snapshot does not cover: it writes a header line embedding the
//! snapshot itself (so the compacted journal stays *self-contained* —
//! recovery never depends on the separate snapshot file surviving),
//! followed by the raw bytes of every event past the snapshot boundary,
//! to a temp file in the same directory; fsyncs it; renames it over the
//! journal; and fsyncs the directory. A crash at any instant leaves
//! either the old journal or the new one, never a torn mix. A scan of a
//! compacted journal reports the header as [`JournalMeta::base`] and
//! indexes events from the base offset onward.

use crate::event::JournalEvent;
use crate::snapshot::Snapshot;
use metrics::json::JsonValue;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Fsyncs the parent directory of `path` (best effort): makes a just
/// created or just renamed directory entry durable. Some filesystems
/// refuse directory fsync; the rename's atomicity already guarantees
/// consistency, so a refusal is not fatal.
pub(crate) fn fsync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Appends [`JournalEvent`]s to a journal file, one JSON line each.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    events: u64,
}

impl JournalWriter {
    /// Creates (or truncates) a journal at `path`, fsyncing the parent
    /// directory so the file entry itself survives a crash.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = File::create(&path)?;
        file.sync_all()?;
        fsync_parent_dir(&path);
        Ok(JournalWriter {
            file: BufWriter::new(file),
            path,
            events: 0,
        })
    }

    /// Opens an existing journal for appending after recovery;
    /// `recovered_events` is the committed *logical* event count the
    /// recovery scan returned — including any compacted-away prefix —
    /// so event numbering continues from there.
    pub fn open_append(path: impl Into<PathBuf>, recovered_events: u64) -> std::io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(JournalWriter {
            file: BufWriter::new(file),
            path,
            events: recovered_events,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical events appended (or recovered, or compacted away) so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Appends one event line and flushes it to the OS. Not yet durable —
    /// call [`JournalWriter::sync`] at the seal to commit.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        self.append_raw(&event.to_line())
    }

    /// Appends one pre-rendered event line verbatim (the replication
    /// path: a follower's journal stays byte-identical to the leader's
    /// feed). The line must not contain a newline.
    pub fn append_raw(&mut self, line: &str) -> std::io::Result<()> {
        let _append_span = telemetry::hist!("journal.append_ns").span();
        debug_assert!(!line.contains('\n'), "one event per line");
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.events += 1;
        Ok(())
    }

    /// Forces everything appended so far to stable storage (`fdatasync`).
    /// Called once per sealed round, after the outcome line: the fsync
    /// boundary *is* the durability boundary.
    pub fn sync(&mut self) -> std::io::Result<()> {
        // fsync stalls are the canonical serve-loop latency cliff; this
        // span is what `lovm top` renders as `journal.fsync_ns`.
        let _fsync_span = telemetry::hist!("journal.fsync_ns").span();
        self.file.flush()?;
        self.file.get_ref().sync_data()
    }
}

// ---------------------------------------------------------------------
// The compaction header.
// ---------------------------------------------------------------------

/// Renders the compaction header line: the snapshot the dropped prefix
/// is summarized by, embedded so the journal is self-contained.
fn compact_header_line(snapshot: &Snapshot) -> String {
    JsonValue::object()
        .field("event", "compact")
        .field("snapshot", snapshot.to_json())
        .to_string()
}

/// Parses a compaction header line; `None` on anything else.
fn parse_compact_header(line: &str) -> Option<Snapshot> {
    let v = JsonValue::parse(line).ok()?;
    if v.get("event")?.as_str()? != "compact" {
        return None;
    }
    Snapshot::from_json(v.get("snapshot")?)
}

// ---------------------------------------------------------------------
// Scanning: one buffered pass, bounded memory.
// ---------------------------------------------------------------------

/// Byte/event coordinates of one committed outcome line — the marks a
/// scan leaves so recovery can verify a snapshot and seek straight to
/// its boundary without rereading the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeMark {
    /// Logical event count through this outcome (compacted prefix
    /// included): a snapshot with `events == this` sits exactly here.
    pub events: u64,
    /// Round index of the outcome.
    pub round: usize,
    /// Running state digest the outcome recorded.
    pub digest: u64,
    /// Byte offset just past the outcome's newline.
    pub bytes: u64,
}

/// What a bounded-memory scan learns about a journal file: the commit
/// boundary, the compaction base (if any), and one [`OutcomeMark`] per
/// committed round — but *not* the events themselves, which recovery
/// streams separately via [`stream_events`] so RSS never scales with
/// log size.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalMeta {
    /// The snapshot a compaction header embedded, if the journal was
    /// compacted: events before `base.events` were dropped from disk and
    /// live only as this state summary.
    pub base: Option<Snapshot>,
    /// Byte offset where event lines start (just past the header line;
    /// 0 when there is no header).
    pub suffix_bytes: u64,
    /// Byte length of the committed prefix (header included).
    pub committed_bytes: u64,
    /// Logical committed event count, compacted prefix included.
    pub committed_events: u64,
    /// Bytes past the commit point (torn lines, unsealed arrivals, a
    /// dangling seal) that recovery discards.
    pub discarded_bytes: u64,
    /// One mark per committed outcome line, in order.
    pub outcomes: Vec<OutcomeMark>,
    /// Round index of the last committed outcome — falling back to the
    /// compaction base's last covered round when the suffix has none.
    pub last_sealed_round: Option<usize>,
}

impl JournalMeta {
    fn empty() -> JournalMeta {
        JournalMeta {
            base: None,
            suffix_bytes: 0,
            committed_bytes: 0,
            committed_events: 0,
            discarded_bytes: 0,
            outcomes: Vec::new(),
            last_sealed_round: None,
        }
    }

    /// Logical event count the compacted-away prefix holds (0 when the
    /// journal was never compacted).
    pub fn base_events(&self) -> u64 {
        self.base.as_ref().map_or(0, |s| s.events)
    }

    /// Whether `snapshot` sits exactly on a commit boundary of this
    /// journal with a bitwise-matching digest — either the compaction
    /// base itself or one of the committed outcome marks. Only such a
    /// snapshot may fast-forward recovery.
    pub fn snapshot_covers(&self, snapshot: &Snapshot) -> bool {
        if snapshot.events == 0 {
            return false;
        }
        if let Some(base) = &self.base {
            if snapshot.events == base.events {
                return snapshot.digest == base.digest;
            }
        }
        self.outcomes
            .iter()
            .any(|m| m.events == snapshot.events && m.digest == snapshot.digest)
    }

    /// Byte offset replay starts at when fast-forwarding from
    /// `snapshot` (which must satisfy [`JournalMeta::snapshot_covers`]).
    pub fn replay_offset(&self, snapshot: &Snapshot) -> u64 {
        if snapshot.events == self.base_events() {
            return self.suffix_bytes;
        }
        self.outcomes
            .iter()
            .find(|m| m.events == snapshot.events)
            .map(|m| m.bytes)
            .expect("replay_offset requires a covering snapshot")
    }
}

/// Scans a journal in one buffered pass without modifying it (see
/// [`recover_meta`] for the truncating variant), keeping only per-round
/// marks in memory. A missing file reads as an empty journal.
pub fn scan_meta(path: impl AsRef<Path>) -> std::io::Result<JournalMeta> {
    let file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalMeta::empty()),
        Err(e) => return Err(e),
    };
    let total_bytes = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(128 * 1024, file);
    let mut meta = JournalMeta::empty();
    let mut offset = 0u64;
    let mut events = 0u64;
    let mut buf = Vec::new();
    let mut first = true;
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break; // clean EOF
        }
        if buf.last() != Some(&b'\n') {
            break; // no terminator: torn tail
        }
        let Ok(line) = std::str::from_utf8(&buf[..n - 1]) else {
            break;
        };
        if first {
            first = false;
            if let Some(snap) = parse_compact_header(line) {
                offset += n as u64;
                events = snap.events;
                meta.last_sealed_round = snap.collector.next_round.checked_sub(1);
                meta.base = Some(snap);
                meta.suffix_bytes = offset;
                // The header commits by construction: compaction fsyncs
                // it before the rename that makes it visible.
                meta.committed_bytes = offset;
                meta.committed_events = events;
                continue;
            }
        }
        let Some(event) = JournalEvent::parse_line(line) else {
            break;
        };
        offset += n as u64;
        events += 1;
        if let JournalEvent::Outcome { round, digest, .. } = event {
            meta.committed_bytes = offset;
            meta.committed_events = events;
            meta.last_sealed_round = Some(round);
            meta.outcomes.push(OutcomeMark {
                events,
                round,
                digest,
                bytes: offset,
            });
        }
    }
    meta.discarded_bytes = total_bytes - meta.committed_bytes;
    Ok(meta)
}

/// Recovers a journal in place: scans for the committed prefix and
/// truncates the file to it, so torn or uncommitted trailing lines can
/// never be replayed.
pub fn recover_meta(path: impl AsRef<Path>) -> std::io::Result<JournalMeta> {
    let mut meta = scan_meta(path.as_ref())?;
    if meta.discarded_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path.as_ref())?;
        file.set_len(meta.committed_bytes)?;
        file.sync_data()?;
        meta.discarded_bytes = 0;
    }
    Ok(meta)
}

/// Streams the committed events in `[from_bytes, to_bytes)` to `f` in
/// file order, one buffered line at a time — replay for journals of any
/// size without slurping them. The range must lie on line boundaries
/// inside the committed prefix (as [`JournalMeta`] offsets do).
pub fn stream_events(
    path: impl AsRef<Path>,
    from_bytes: u64,
    to_bytes: u64,
    mut f: impl FnMut(&JournalEvent) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if from_bytes >= to_bytes {
        return Ok(());
    }
    let mut file = File::open(path.as_ref())?;
    file.seek(SeekFrom::Start(from_bytes))?;
    let mut reader = BufReader::with_capacity(128 * 1024, file);
    let mut offset = from_bytes;
    let mut buf = Vec::new();
    while offset < to_bytes {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        let line = std::str::from_utf8(&buf[..n.saturating_sub(1)]).ok();
        let event = line.and_then(JournalEvent::parse_line).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("committed journal region is unreadable at byte {offset}"),
            )
        })?;
        f(&event)?;
        offset += n as u64;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Raw committed lines (diagnostics, replication bootstrap).
// ---------------------------------------------------------------------

/// Reads a journal's full committed contents as raw lines — compaction
/// header included — for diagnostics and the replication bootstrap
/// (replay uses [`stream_events`]).
pub fn committed_lines(path: impl AsRef<Path>) -> std::io::Result<Vec<String>> {
    let meta = scan_meta(path.as_ref())?;
    if meta.committed_bytes == 0 {
        return Ok(Vec::new());
    }
    let mut file = File::open(path.as_ref())?;
    let mut buf = vec![0u8; meta.committed_bytes as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut buf)?;
    let text = String::from_utf8(buf).expect("committed prefix is valid UTF-8");
    Ok(text.lines().map(str::to_string).collect())
}

// ---------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------

/// What [`compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Events the rewrite dropped from disk (now covered by the header).
    pub dropped_events: u64,
    /// Journal bytes before the rewrite.
    pub bytes_before: u64,
    /// Journal bytes after the rewrite.
    pub bytes_after: u64,
}

fn corrupt(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Rewrites the journal to drop the prefix `snapshot` covers, via the
/// crash-safe dance: write a temp file in the same directory (header
/// line embedding the snapshot, then the raw bytes of everything past
/// its boundary — uncommitted tail included, so in-flight arrivals keep
/// their existing crash semantics), fsync the file, rename it over the
/// journal, fsync the directory. Returns without touching the file when
/// the snapshot covers nothing the journal still stores.
///
/// The caller must not hold buffered writes on the journal and must
/// reopen any [`JournalWriter`] afterwards (the rename changed the
/// inode an open writer points at).
///
/// # Errors
///
/// `InvalidData` when `snapshot` does not sit bitwise on one of the
/// journal's commit boundaries — compacting to an unverified state
/// would silently corrupt every future recovery.
pub fn compact(path: impl AsRef<Path>, snapshot: &Snapshot) -> std::io::Result<CompactStats> {
    let _compact_span = telemetry::hist!("journal.compact_ns").span();
    telemetry::counter!("journal.compactions").add(1);
    let path = path.as_ref();
    let meta = scan_meta(path)?;
    if snapshot.events <= meta.base_events() {
        return Ok(CompactStats {
            dropped_events: 0,
            bytes_before: meta.committed_bytes + meta.discarded_bytes,
            bytes_after: meta.committed_bytes + meta.discarded_bytes,
        });
    }
    if !meta.snapshot_covers(snapshot) {
        return Err(corrupt(format!(
            "compaction snapshot at event {} (digest {:016x}) does not sit on a \
             commit boundary of {}",
            snapshot.events,
            snapshot.digest,
            path.display()
        )));
    }
    let boundary = meta.replay_offset(snapshot);
    let bytes_before = meta.committed_bytes + meta.discarded_bytes;

    let mut tmp = path.to_path_buf();
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".compact.tmp");
    tmp.set_file_name(name);
    let bytes_after;
    {
        let mut out = BufWriter::new(File::create(&tmp)?);
        let mut header = compact_header_line(snapshot);
        header.push('\n');
        out.write_all(header.as_bytes())?;
        let mut src = File::open(path)?;
        src.seek(SeekFrom::Start(boundary))?;
        std::io::copy(&mut src, &mut out)?;
        out.flush()?;
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_data()?;
        bytes_after = file.metadata()?.len();
    }
    std::fs::rename(&tmp, path)?;
    fsync_parent_dir(path);
    Ok(CompactStats {
        dropped_events: snapshot.events - meta.base_events(),
        bytes_before,
        bytes_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use auction::bid::Bid;
    use auction::outcome::Award;
    use ingest::CollectorState;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per test (no external tempfile crate).
    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lovm-journal-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn arrival(seq: u64, at: f64, bidder: usize) -> JournalEvent {
        JournalEvent::Arrival {
            seq,
            at,
            bid: Bid::new(bidder, 1.0 + bidder as f64 * 0.25, 100, 0.9),
        }
    }

    fn round_events(round: usize) -> Vec<JournalEvent> {
        let b0 = Bid::new(0, 1.0, 100, 0.9);
        let b1 = Bid::new(1, 1.25, 100, 0.9);
        vec![
            arrival(round as u64 * 2, round as f64 + 0.2, 0),
            arrival(round as u64 * 2 + 1, round as f64 + 0.4, 1),
            JournalEvent::Seal {
                round,
                sealed: vec![b0, b1],
            },
            JournalEvent::Outcome {
                round,
                awards: vec![Award {
                    bidder: 0,
                    cost: 1.0,
                    value: 2.1,
                    payment: 1.3,
                }],
                virtual_welfare: 4.2,
                spend: 1.3,
                backlog: 0.5 + round as f64,
                digest: 0x1234_5678_9abc_def0 ^ round as u64,
            },
        ]
    }

    /// A snapshot sitting at the commit boundary after `rounds` rounds
    /// of the `round_events` fixture (4 events per round).
    fn boundary_snapshot(rounds: usize) -> Snapshot {
        Snapshot {
            events: rounds as u64 * 4,
            collector: CollectorState {
                next_round: rounds,
                next_seq: rounds as u64 * 2,
                offered: rounds as u64 * 2,
                queued: Vec::new(),
                pending: Vec::new(),
            },
            backlog: 0.5 + (rounds - 1) as f64,
            welfare: 4.2 * rounds as f64,
            spend: 1.3 * rounds as f64,
            digest: 0x1234_5678_9abc_def0 ^ (rounds - 1) as u64,
            totals: ingest::StreamTotals::default(),
        }
    }

    /// The committed events `meta` spans past the compaction header, read
    /// the way recovery reads them.
    fn committed_events(path: &Path, meta: &JournalMeta) -> Vec<JournalEvent> {
        let mut events = Vec::new();
        stream_events(path, meta.suffix_bytes, meta.committed_bytes, |ev| {
            events.push(ev.clone());
            Ok(())
        })
        .unwrap();
        events
    }

    fn write_rounds(path: &Path, rounds: std::ops::Range<usize>) -> Vec<JournalEvent> {
        let mut w = if rounds.start == 0 {
            JournalWriter::create(path).unwrap()
        } else {
            JournalWriter::open_append(path, rounds.start as u64 * 4).unwrap()
        };
        let mut all = Vec::new();
        for r in rounds {
            for ev in round_events(r) {
                w.append(&ev).unwrap();
                all.push(ev);
            }
            w.sync().unwrap();
        }
        all
    }

    #[test]
    fn write_scan_round_trips() {
        let path = temp_path("roundtrip");
        let all = write_rounds(&path, 0..3);
        let rec = scan_meta(&path).unwrap();
        assert_eq!(committed_events(&path, &rec), all);
        assert_eq!(rec.base, None);
        assert_eq!(rec.discarded_bytes, 0);
        assert_eq!(rec.last_sealed_round, Some(2));
        let meta = scan_meta(&path).unwrap();
        assert_eq!(meta.committed_events, 12);
        assert_eq!(meta.suffix_bytes, 0);
        assert_eq!(meta.outcomes.len(), 3);
        assert_eq!(meta.outcomes[2].events, 12);
        assert_eq!(meta.outcomes[2].round, 2);
        assert_eq!(
            meta.outcomes[2].bytes, meta.committed_bytes,
            "last outcome mark ends the committed prefix"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_reads_empty() {
        let path = temp_path("missing");
        let rec = scan_meta(&path).unwrap();
        assert!(committed_events(&path, &rec).is_empty());
        assert_eq!(rec.committed_bytes, 0);
        assert_eq!(rec.last_sealed_round, None);
    }

    #[test]
    fn uncommitted_tail_is_discarded_and_truncated() {
        let path = temp_path("tail");
        let committed = write_rounds(&path, 0..1);
        // A round in flight: two arrivals and a seal, but no outcome —
        // then the crash. Recovery must land on round 0.
        let mut w = JournalWriter::open_append(&path, 4).unwrap();
        w.append(&arrival(2, 1.2, 0)).unwrap();
        w.append(&JournalEvent::Seal {
            round: 1,
            sealed: vec![Bid::new(0, 1.0, 100, 0.9)],
        })
        .unwrap();
        drop(w);
        // Plus a torn half-line, as a crashed buffered write leaves.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(br#"{"event":"outcome","round":1,"awa"#)
                .unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let rec = recover_meta(&path).unwrap();
        assert_eq!(committed_events(&path, &rec), committed);
        assert_eq!(rec.last_sealed_round, Some(0));
        // The file itself was truncated to the commit point.
        let after = std::fs::metadata(&path).unwrap().len();
        assert_eq!(after, rec.committed_bytes);
        assert!(after < before);
        // A second recovery is a no-op fixpoint: same committed prefix,
        // nothing left to discard.
        let again = recover_meta(&path).unwrap();
        assert_eq!(
            committed_events(&path, &again),
            committed_events(&path, &rec)
        );
        assert_eq!(again.committed_bytes, rec.committed_bytes);
        assert_eq!(again.discarded_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_recovery_continues_the_log() {
        let path = temp_path("resume");
        write_rounds(&path, 0..1);
        let mut w = JournalWriter::open_append(&path, 4).unwrap();
        w.append(&arrival(7, 1.1, 3)).unwrap(); // uncommitted
        drop(w);
        let rec = recover_meta(&path).unwrap();
        let mut w =
            JournalWriter::open_append(&path, committed_events(&path, &rec).len() as u64).unwrap();
        assert_eq!(w.events(), 4);
        for ev in round_events(1) {
            w.append(&ev).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let full = scan_meta(&path).unwrap();
        assert_eq!(committed_events(&path, &full).len(), 8);
        assert_eq!(full.last_sealed_round, Some(1));
        assert_eq!(full.discarded_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_lines_match_event_rendering() {
        let path = temp_path("lines");
        let events = write_rounds(&path, 0..1);
        let lines = committed_lines(&path).unwrap();
        let expect: Vec<String> = events.iter().map(JournalEvent::to_line).collect();
        assert_eq!(lines, expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_events_matches_scan_over_any_boundary() {
        let path = temp_path("stream");
        let all = write_rounds(&path, 0..3);
        let meta = scan_meta(&path).unwrap();
        for (i, mark) in meta.outcomes.iter().enumerate() {
            let mut tail = Vec::new();
            stream_events(&path, mark.bytes, meta.committed_bytes, |ev| {
                tail.push(ev.clone());
                Ok(())
            })
            .unwrap();
            assert_eq!(tail, all[(i + 1) * 4..].to_vec(), "from outcome {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_the_covered_prefix_and_stays_recoverable() {
        let path = temp_path("compact");
        let all = write_rounds(&path, 0..3);
        let snap = boundary_snapshot(2);
        let before = std::fs::metadata(&path).unwrap().len();
        let stats = compact(&path, &snap).unwrap();
        assert_eq!(stats.dropped_events, 8);
        assert_eq!(stats.bytes_before, before);
        assert!(stats.bytes_after < before);

        let rec = scan_meta(&path).unwrap();
        assert_eq!(rec.base, Some(snap.clone()));
        assert_eq!(
            committed_events(&path, &rec),
            all[8..].to_vec(),
            "suffix survives verbatim"
        );
        assert_eq!(rec.last_sealed_round, Some(2));
        let meta = scan_meta(&path).unwrap();
        assert_eq!(meta.base_events(), 8);
        assert_eq!(meta.committed_events, 12);
        assert_eq!(meta.outcomes.len(), 1);
        assert_eq!(meta.outcomes[0].events, 12);
        // The snapshot still covers: at its own (now-base) boundary.
        assert!(meta.snapshot_covers(&snap));
        assert_eq!(meta.replay_offset(&snap), meta.suffix_bytes);
        // The header renders as the first committed line.
        let lines = committed_lines(&path).unwrap();
        assert!(
            lines[0].starts_with(r#"{"event":"compact""#),
            "{}",
            lines[0]
        );
        assert_eq!(lines.len(), 1 + 4);

        // Appending continues the logical numbering.
        let mut w = JournalWriter::open_append(&path, meta.committed_events).unwrap();
        for ev in round_events(3) {
            w.append(&ev).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let meta = scan_meta(&path).unwrap();
        assert_eq!(meta.committed_events, 16);
        assert_eq!(meta.last_sealed_round, Some(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_idempotent_and_layers() {
        let path = temp_path("recompact");
        write_rounds(&path, 0..2);
        let snap1 = boundary_snapshot(1);
        assert!(compact(&path, &snap1).unwrap().dropped_events == 4);
        // Same snapshot again: covers nothing new, file untouched.
        let len = std::fs::metadata(&path).unwrap().len();
        let again = compact(&path, &snap1).unwrap();
        assert_eq!(again.dropped_events, 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        // A later snapshot compacts on top of the previous base.
        write_rounds(&path, 2..4);
        let snap3 = boundary_snapshot(3);
        assert_eq!(compact(&path, &snap3).unwrap().dropped_events, 8);
        let rec = scan_meta(&path).unwrap();
        assert_eq!(rec.base, Some(snap3));
        assert_eq!(committed_events(&path, &rec), round_events(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_refuses_an_unanchored_snapshot() {
        let path = temp_path("badsnap");
        write_rounds(&path, 0..2);
        // Off-boundary event count.
        let mut snap = boundary_snapshot(1);
        snap.events = 3;
        assert!(compact(&path, &snap).is_err());
        // Right count, wrong digest: a diverged history must be refused.
        let mut snap = boundary_snapshot(1);
        snap.digest ^= 1;
        assert!(compact(&path, &snap).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_preserves_the_uncommitted_tail() {
        let path = temp_path("compact-tail");
        write_rounds(&path, 0..2);
        let mut w = JournalWriter::open_append(&path, 8).unwrap();
        w.append(&arrival(9, 2.2, 3)).unwrap(); // flushed, unsealed
        drop(w);
        compact(&path, &boundary_snapshot(1)).unwrap();
        let meta = scan_meta(&path).unwrap();
        assert!(
            meta.discarded_bytes > 0,
            "in-flight arrivals must survive the rewrite"
        );
        let rec = scan_meta(&path).unwrap();
        assert_eq!(committed_events(&path, &rec), round_events(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_after_compaction_recovers_to_the_header() {
        let path = temp_path("compact-torn");
        write_rounds(&path, 0..2);
        let snap = boundary_snapshot(2);
        compact(&path, &snap).unwrap();
        // Tear everything after the header: the base alone remains.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(br#"{"event":"arrival","seq":8,"at":2.1,"bi"#)
                .unwrap();
        }
        let rec = recover_meta(&path).unwrap();
        assert_eq!(rec.base, Some(snap));
        assert!(committed_events(&path, &rec).is_empty());
        assert_eq!(
            rec.last_sealed_round,
            Some(1),
            "the base still names the last covered round"
        );
        assert_eq!(rec.discarded_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_header_only_parses_first() {
        // A compact header appearing mid-file reads as torn, not as a
        // second base.
        let path = temp_path("midheader");
        write_rounds(&path, 0..1);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let mut line = compact_header_line(&boundary_snapshot(1));
            line.push('\n');
            f.write_all(line.as_bytes()).unwrap();
        }
        let rec = scan_meta(&path).unwrap();
        assert_eq!(rec.base, None);
        assert_eq!(committed_events(&path, &rec).len(), 4);
        assert!(rec.discarded_bytes > 0);
        std::fs::remove_file(&path).ok();
    }
}
