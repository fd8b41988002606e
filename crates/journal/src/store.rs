//! The append-only journal file: durable writes, torn-tail recovery,
//! prefix compaction, and the one crash-safe file replace.
//!
//! **Durability contract.** Arrival lines are written and flushed (so the
//! OS holds them), but only a seal commits: [`JournalWriter::sync`] runs
//! `fdatasync` after the round's seal + outcome lines, making the
//! *outcome line* the commit record. Recovery ([`recover`]) reads the file
//! front to back once, parsing each line once, and keeps exactly the
//! prefix ending at the last complete outcome line; everything after it —
//! torn half-lines from a crashed write, arrivals that were never sealed,
//! a seal line whose outcome never made it out — is truncated and never
//! replayed. A round's events are held until its outcome line parses and
//! only then applied. Clients re-send bids the server never acknowledged
//! a seal for; the collector's freshest-bid dedupe makes those re-sends
//! idempotent. File *creation* is followed by a parent-directory fsync,
//! so a crash right after cannot lose the directory entry of data already
//! on stable storage.
//!
//! **Replacing a file.** [`replace_file`] is the one way a whole file is
//! swapped: the new bytes go to a temp file beside it, which is fsynced,
//! renamed over the target, and followed by a directory fsync. A crash at
//! any instant leaves either the old file or the new one, never a torn
//! mix, and a write that fails or is abandoned leaves no temp file.
//! Snapshots, compaction and a follower's bootstrap all go through it.
//!
//! **Compaction.** [`compact`] bounds the journal to the suffix a
//! snapshot does not cover: it replaces the journal with a header line
//! embedding the snapshot itself (so the compacted journal stays
//! *self-contained* — recovery never depends on the separate snapshot
//! file surviving), followed by the raw bytes of every event past the
//! snapshot boundary. The caller names the boundary by the
//! [`OutcomeMark`] it kept when it wrote the snapshot, so compaction reads
//! no line before it but the one outcome line it checks the snapshot
//! against. Recovery of a compacted journal restores the header's
//! snapshot and reports where the events after it start as
//! [`Recovery::suffix_bytes`].
//!
//! Every reader here — [`scan_meta`], [`recover_meta`], [`stream_events`]
//! and [`recover`] — reads through one line loop, and every pass that finds
//! the commit point returns the one result type, [`Recovery`].

use crate::event::JournalEvent;
use crate::snapshot::Snapshot;
use metrics::json::JsonValue;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Fsyncs the parent directory of `path` (best effort): makes a just
/// created or just renamed directory entry durable. Some filesystems
/// refuse directory fsync; the rename's atomicity already guarantees
/// consistency, so a refusal is not fatal.
pub fn fsync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Replaces the file at `path` crash-safely. `write` fills a new temp file
/// beside it, named `path` with `suffix` appended, and returns `false` to
/// abandon it. A whole write is fsynced (`fdatasync`), renamed over
/// `path`, and the directory fsynced. An abandoned or failed write removes
/// the temp file and leaves `path` as it was. Returns whether `path` was
/// replaced.
pub fn replace_file(
    path: &Path,
    suffix: &str,
    write: impl FnOnce(&mut File) -> std::io::Result<bool>,
) -> std::io::Result<bool> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(suffix);
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    let replaced = write(&mut file).and_then(|whole| {
        if whole {
            file.sync_data()?;
            std::fs::rename(&tmp, path)?;
        }
        Ok(whole)
    });
    if let Ok(true) = replaced {
        fsync_parent_dir(path);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
    replaced
}

/// How far a journal file is committed: through byte `bytes` of the file
/// whose identity is `file`, its (device, inode). Recovery truncates a
/// journal in place and keeps its identity; a compaction renames a new file
/// into place and changes it. A reader holding the old file open keeps its
/// inode from being reused, so it can tell from `file` whether the writer
/// still appends to the file it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// The file's length at the writer's last sync (or at open).
    pub bytes: u64,
    /// The file's (device, inode).
    pub file: (u64, u64),
}

impl Commit {
    /// `bytes` committed in the open `file`.
    pub fn of(file: &File, bytes: u64) -> std::io::Result<Commit> {
        use std::os::unix::fs::MetadataExt;
        let meta = file.metadata()?;
        let file = (meta.dev(), meta.ino());
        Ok(Commit { bytes, file })
    }
}

/// Appends [`JournalEvent`]s to a journal file, one JSON line each, and
/// counts the bytes it appends: the file's committed length is the byte
/// count at the last [`JournalWriter::sync`].
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    events: u64,
    bytes: u64,
    commit: Commit,
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
            commit: Commit::of(&file, 0)?,
            file: BufWriter::new(file),
            path,
            events: 0,
            bytes: 0,
        })
    }

    /// Opens an existing journal for appending after recovery;
    /// `recovered_events` is the committed *logical* event count the
    /// recovery scan returned — including any compacted-away prefix —
    /// so event numbering continues from there, and `recovered_bytes` is
    /// the file's committed length, which recovery truncated it to (or a
    /// compaction wrote).
    pub fn open_append(
        path: impl Into<PathBuf>,
        recovered_events: u64,
        recovered_bytes: u64,
    ) -> std::io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(JournalWriter {
            commit: Commit::of(&file, recovered_bytes)?,
            file: BufWriter::new(file),
            path,
            events: recovered_events,
            bytes: recovered_bytes,
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

    /// How far the file is committed: every byte below `bytes` is, and
    /// never changes.
    pub fn commit(&self) -> Commit {
        self.commit
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
        self.bytes += line.len() as u64 + 1;
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
        self.file.get_ref().sync_data()?;
        self.commit.bytes = self.bytes;
        Ok(())
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

// ---------------------------------------------------------------------
// Reading: one line loop.
// ---------------------------------------------------------------------

/// One journal line, parsed.
enum Entry {
    /// A compaction header: only a file's first line can be one.
    Header(Snapshot),
    /// An event line.
    Event(JournalEvent),
}

/// Parses one line (newline stripped); `header` lets it be a compaction
/// header. `None` for anything that is neither UTF-8 JSON nor a journal
/// line.
fn parse_entry(line: &[u8], header: bool) -> Option<Entry> {
    let v = JsonValue::parse(std::str::from_utf8(line).ok()?).ok()?;
    if header && v.get("event")?.as_str()? == "compact" {
        return Snapshot::from_json(v.get("snapshot")?).map(Entry::Header);
    }
    JournalEvent::from_json(&v).map(Entry::Event)
}

/// The journal's one line loop: it reads a file forward from a byte offset
/// through a 128 KiB buffer and parses each line once. It stops at the
/// first line that is torn (no newline) or does not parse: nothing from
/// there on is committed.
struct Lines {
    reader: BufReader<File>,
    buf: Vec<u8>,
    /// Byte offset just past the last line parsed.
    offset: u64,
    /// Bytes read so far, the line that stopped the loop included.
    read: u64,
    /// Whether the next line may be a compaction header (the file's first).
    header: bool,
}

impl Lines {
    /// The lines of `file` from byte `from`, which must start a line.
    fn new(mut file: File, from: u64) -> std::io::Result<Lines> {
        file.seek(SeekFrom::Start(from))?;
        Ok(Lines {
            reader: BufReader::with_capacity(128 * 1024, file),
            buf: Vec::new(),
            offset: from,
            read: 0,
            header: from == 0,
        })
    }

    /// The lines of the file at `path` from byte `from`; `None` when the
    /// file does not exist.
    fn open(path: &Path, from: u64) -> std::io::Result<Option<Lines>> {
        match File::open(path) {
            Ok(file) => Lines::new(file, from).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The next line, or `None` at EOF and at the first torn or
    /// unparseable line.
    fn next(&mut self) -> std::io::Result<Option<Entry>> {
        self.buf.clear();
        let n = self.reader.read_until(b'\n', &mut self.buf)?;
        self.read += n as u64;
        let header = std::mem::take(&mut self.header);
        let entry = self
            .buf
            .strip_suffix(b"\n")
            .and_then(|line| parse_entry(line, header));
        if entry.is_some() {
            self.offset += n as u64;
        }
        Ok(entry)
    }

    /// Feeds every event line up to byte `to` to `f`. Every line before
    /// `to` must parse: the caller knows the range is committed.
    fn feed(
        &mut self,
        to: u64,
        mut f: impl FnMut(&JournalEvent) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        while self.offset < to {
            let at = self.offset;
            match self.next()? {
                Some(Entry::Event(event)) => f(&event)?,
                _ => {
                    return Err(corrupt(format!(
                        "committed journal region is unreadable at byte {at}"
                    )))
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Scanning and recovery: one pass, one result.
// ---------------------------------------------------------------------

/// Byte/event coordinates of one committed outcome line: where a snapshot
/// taken at that round sits in the file.
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

impl OutcomeMark {
    /// The mark of a compaction header embedding `base`, which ends at
    /// byte `bytes`: the base sits at the header's end.
    fn of_base(base: &Snapshot, bytes: u64) -> OutcomeMark {
        OutcomeMark {
            events: base.events,
            round: base.collector.next_round.saturating_sub(1),
            digest: base.digest,
            bytes,
        }
    }
}

/// What a recovery rebuilds from a journal.
pub trait Replay {
    /// Starts over from `snapshot`, which sits at `at`: a compaction base,
    /// or a snapshot file verified against the outcome line it sits at.
    fn restore(&mut self, snapshot: &Snapshot, at: OutcomeMark);
    /// Re-applies one committed event.
    fn apply(&mut self, event: &JournalEvent) -> std::io::Result<()>;
}

/// Where a recovered state came from before replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Base {
    /// An empty market: replay started at the first event.
    #[default]
    None,
    /// The compaction header's embedded snapshot.
    Compaction,
    /// The snapshot file, at the outcome line it matched.
    Snapshot,
}

/// What one pass over a journal found and did: the commit boundary, where
/// the events past a compaction header start, and what a replay re-applied.
/// The events themselves are not kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// The state replay started from.
    pub base: Base,
    /// Journal bytes the line loop consumed, a second pass included: equal
    /// to `committed_bytes` when the file was read once and had no tail.
    pub bytes_read: u64,
    /// Events re-applied on top of the base.
    pub events_replayed: u64,
    /// Bytes past the commit point (torn lines, unsealed arrivals, a
    /// dangling seal): truncated away by a recovery, left by a scan.
    pub discarded_bytes: u64,
    /// Byte offset where event lines start: just past the compaction
    /// header, 0 when there is none.
    pub suffix_bytes: u64,
    /// The committed byte length, header included.
    pub committed_bytes: u64,
    /// Logical committed event count, compacted prefix included.
    pub committed_events: u64,
}

/// Most events recovery holds for one round before its outcome line
/// commits them. Past it the round's events are dropped, and once the
/// outcome line parses, the round's bytes are read again and applied: an
/// uncommitted tail of any length costs bounded memory.
pub const HOLD_EVENTS: usize = 1 << 14;

/// Scans a journal in one buffered pass without modifying it (see
/// [`recover_meta`] for the truncating variant): the commit boundary, and
/// the compaction base as [`Base::Compaction`]. A missing file reads as an
/// empty journal.
pub fn scan_meta(path: impl AsRef<Path>) -> std::io::Result<Recovery> {
    pass(path.as_ref(), None, None, HOLD_EVENTS)
}

/// Recovers a journal in place: scans for the committed prefix and
/// truncates the file to it, so torn or uncommitted trailing lines can
/// never be replayed.
pub fn recover_meta(path: impl AsRef<Path>) -> std::io::Result<Recovery> {
    truncate_tail(path.as_ref(), scan_meta(path.as_ref())?)
}

/// Recovers a journal in place and replays it into `sink`, reading each
/// line once. The committed prefix is every line up to the last outcome
/// line before the first torn or unparseable one; the file is truncated to
/// it. A compaction header restores its base. `snapshot` (the snapshot
/// file) fast-forwards replay when it sits on a committed outcome line with
/// the same event count and digest, or at the base itself: lines before it
/// are parsed, not applied. Each later round's events are held until its
/// outcome line parses, then applied. A snapshot that sits on no commit
/// boundary is ignored, and the prefix it skipped is read again from the
/// base.
///
/// # Errors
///
/// I/O errors, and whatever `sink` returns.
pub fn recover(
    path: impl AsRef<Path>,
    snapshot: Option<Snapshot>,
    sink: &mut impl Replay,
) -> std::io::Result<Recovery> {
    let path = path.as_ref();
    truncate_tail(path, pass(path, snapshot, Some(sink), HOLD_EVENTS)?)
}

/// Truncates the file to `rec`'s committed prefix if it holds more.
fn truncate_tail(path: &Path, rec: Recovery) -> std::io::Result<Recovery> {
    if rec.discarded_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(rec.committed_bytes)?;
        file.sync_data()?;
    }
    Ok(rec)
}

/// The one pass behind [`scan_meta`] and [`recover`] (see there), holding
/// at most `hold` events; without a sink it only finds the commit point.
fn pass(
    path: &Path,
    snapshot: Option<Snapshot>,
    mut sink: Option<&mut dyn Replay>,
    hold: usize,
) -> std::io::Result<Recovery> {
    let mut rec = Recovery::default();
    let Some(mut lines) = Lines::open(path, 0)? else {
        return Ok(rec);
    };
    let total_bytes = lines.reader.get_ref().metadata()?.len();
    // The snapshot file while the outcome line it claims is still ahead.
    let mut ahead = snapshot.filter(|s| s.events > 0);
    // The current round's events, unless it outgrew `hold`.
    let mut held = Vec::new();
    let mut overflow = false;
    let mut events = 0;
    while let Some(entry) = lines.next()? {
        let round_start = rec.committed_bytes;
        let event = match entry {
            Entry::Header(base) => {
                events = base.events;
                rec.suffix_bytes = lines.offset;
                // The header commits by construction: compaction fsyncs
                // it before the rename that makes it visible.
                rec.committed_bytes = lines.offset;
                rec.committed_events = events;
                // At the base's own boundary the snapshot file wins.
                let file = ahead
                    .take_if(|f| f.events <= base.events)
                    .filter(|f| f.events == base.events && f.digest == base.digest);
                if let Some(sink) = sink.as_deref_mut() {
                    sink.restore(
                        file.as_ref().unwrap_or(&base),
                        OutcomeMark::of_base(&base, lines.offset),
                    );
                }
                rec.base = if file.is_some() {
                    Base::Snapshot
                } else {
                    Base::Compaction
                };
                continue;
            }
            Entry::Event(event) => event,
        };
        events += 1;
        let mark = match event {
            JournalEvent::Outcome { round, digest, .. } => Some(OutcomeMark {
                events,
                round,
                digest,
                bytes: lines.offset,
            }),
            _ => None,
        };
        if sink.is_some() && ahead.is_none() && !overflow {
            overflow = held.len() == hold;
            if overflow {
                held.clear();
            } else {
                held.push(event);
            }
        }
        let Some(mark) = mark else { continue };
        rec.committed_bytes = mark.bytes;
        rec.committed_events = events;
        let Some(sink) = sink.as_deref_mut() else {
            continue;
        };
        if let Some(file) = ahead.take_if(|f| f.events <= events) {
            if file.events == events && file.digest == mark.digest {
                sink.restore(&file, mark);
                rec.base = Base::Snapshot;
            } else {
                // The snapshot sits on no commit boundary: replay what it
                // skipped from the base after all.
                replay_range(path, rec.suffix_bytes, mark.bytes, sink, &mut rec)?;
            }
        } else if ahead.is_none() {
            if overflow {
                replay_range(path, round_start, mark.bytes, sink, &mut rec)?;
            } else {
                rec.events_replayed += held.len() as u64;
                held.drain(..).try_for_each(|ev| sink.apply(&ev))?;
            }
        }
        overflow = false;
    }
    if let (Some(_), Some(sink)) = (ahead, sink) {
        // The snapshot is ahead of the journal's commit point.
        let (from, to) = (rec.suffix_bytes, rec.committed_bytes);
        replay_range(path, from, to, sink, &mut rec)?;
    }
    rec.discarded_bytes = total_bytes - rec.committed_bytes;
    rec.bytes_read += lines.read;
    Ok(rec)
}

/// Applies the committed events in `[from, to)` to `sink` in a second
/// read, counting it in `rec`.
fn replay_range(
    path: &Path,
    from: u64,
    to: u64,
    sink: &mut dyn Replay,
    rec: &mut Recovery,
) -> std::io::Result<()> {
    let mut lines = Lines::new(File::open(path)?, from)?;
    lines.feed(to, |event| {
        rec.events_replayed += 1;
        sink.apply(event)
    })?;
    rec.bytes_read += lines.read;
    Ok(())
}

/// Streams the committed events in `[from_bytes, to_bytes)` to `f` in
/// file order, one buffered line at a time — replay for journals of any
/// size without slurping them. The range must lie on line boundaries
/// inside the committed prefix, as [`Recovery::suffix_bytes`] and
/// [`Recovery::committed_bytes`] do.
pub fn stream_events(
    path: impl AsRef<Path>,
    from_bytes: u64,
    to_bytes: u64,
    f: impl FnMut(&JournalEvent) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if from_bytes >= to_bytes {
        return Ok(());
    }
    Lines::new(File::open(path.as_ref())?, from_bytes)?.feed(to_bytes, f)
}

// ---------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------

/// What [`compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Journal bytes before the rewrite.
    pub bytes_before: u64,
    /// Journal bytes after the rewrite.
    pub bytes_after: u64,
    /// Where the snapshot now sits: the end of the header line.
    pub suffix_bytes: u64,
}

fn corrupt(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// The line of `file` that ends, newline included, at byte `end`, without
/// its newline, and whether it starts the file; `None` unless byte
/// `end - 1` is a newline. It is read backwards in growing chunks, so no
/// earlier line is read whole.
fn line_ending_at(file: &File, end: u64) -> std::io::Result<Option<(Vec<u8>, bool)>> {
    use std::os::unix::fs::FileExt;
    if end == 0 || end > file.metadata()?.len() {
        return Ok(None);
    }
    let mut chunk = 4096;
    loop {
        let start = end.saturating_sub(chunk);
        let mut buf = vec![0; (end - start) as usize];
        file.read_exact_at(&mut buf, start)?;
        let Some(body) = buf.strip_suffix(b"\n") else {
            return Ok(None);
        };
        if let Some(nl) = body.iter().rposition(|&b| b == b'\n') {
            return Ok(Some((body[nl + 1..].to_vec(), false)));
        }
        if start == 0 {
            return Ok(Some((body.to_vec(), true)));
        }
        chunk *= 4;
    }
}

/// Rewrites the journal to drop the prefix `snapshot` covers, through
/// [`replace_file`]: a header line embedding the snapshot, then the raw
/// bytes of everything past its boundary — uncommitted tail included, so
/// in-flight arrivals keep their existing crash semantics.
///
/// `at` is the mark of the commit boundary the snapshot sits at, which
/// the caller kept when it wrote the snapshot. The one line read before
/// it is the line ending there: the outcome line `at` names, or a
/// compaction header embedding the snapshot, in which case the journal
/// already starts there and is left untouched.
///
/// The caller must not hold buffered writes on the journal and must
/// reopen any [`JournalWriter`] afterwards (the rename changed the
/// inode an open writer points at).
///
/// # Errors
///
/// `InvalidData` when `snapshot` does not sit bitwise on `at` — compacting
/// to an unverified state would silently corrupt every future recovery.
pub fn compact(
    path: impl AsRef<Path>,
    snapshot: &Snapshot,
    at: &OutcomeMark,
) -> std::io::Result<CompactStats> {
    let _compact_span = telemetry::hist!("journal.compact_ns").span();
    telemetry::counter!("journal.compactions").add(1);
    let path = path.as_ref();
    let mut src = File::open(path)?;
    let bytes_before = src.metadata()?.len();
    let anchor = if at.events == snapshot.events && at.digest == snapshot.digest {
        line_ending_at(&src, at.bytes)?
    } else {
        None
    };
    match anchor.and_then(|(line, first)| parse_entry(&line, first)) {
        Some(Entry::Header(base)) if base.events == at.events && base.digest == at.digest => {
            return Ok(CompactStats {
                bytes_before,
                bytes_after: bytes_before,
                suffix_bytes: at.bytes,
            });
        }
        Some(Entry::Event(JournalEvent::Outcome { round, digest, .. }))
            if round == at.round && digest == at.digest => {}
        _ => {
            return Err(corrupt(format!(
                "compaction snapshot at event {} (digest {:016x}) does not sit on the \
                 commit boundary at byte {} of {}",
                snapshot.events,
                snapshot.digest,
                at.bytes,
                path.display()
            )))
        }
    }

    let mut header = compact_header_line(snapshot);
    header.push('\n');
    let mut bytes_after = 0;
    replace_file(path, ".compact.tmp", |file| {
        let mut out = BufWriter::new(file);
        out.write_all(header.as_bytes())?;
        src.seek(SeekFrom::Start(at.bytes))?;
        bytes_after = header.len() as u64 + std::io::copy(&mut src, &mut out)?;
        out.flush()?;
        Ok(true)
    })?;
    Ok(CompactStats {
        bytes_before,
        bytes_after,
        suffix_bytes: header.len() as u64,
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

    /// The `round_events` fixture's digest after round 0; round `r`'s is
    /// this with `r` xored in.
    const DIGEST: u64 = 0x1234_5678_9abc_def0;

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
                digest: DIGEST ^ round as u64,
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
            digest: DIGEST ^ (rounds - 1) as u64,
            totals: ingest::StreamTotals::default(),
        }
    }

    /// The committed events `rec` spans past the compaction header, read
    /// the way recovery reads them.
    fn committed_events(path: &Path, rec: &Recovery) -> Vec<JournalEvent> {
        let mut events = Vec::new();
        stream_events(path, rec.suffix_bytes, rec.committed_bytes, |ev| {
            events.push(ev.clone());
            Ok(())
        })
        .unwrap();
        events
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// The committed prefix of a journal as raw lines, compaction header
    /// included: what a replication bootstrap sends.
    fn committed_prefix_lines(path: &Path) -> Vec<String> {
        let meta = scan_meta(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        text[..meta.committed_bytes as usize]
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// Writes `rounds` of the fixture, one sync per round. Returns the
    /// events and each round's outcome mark, taken from the writer's
    /// commit after its sync, as a serve session takes a snapshot's.
    fn write_rounds(
        path: &Path,
        rounds: std::ops::Range<usize>,
    ) -> (Vec<JournalEvent>, Vec<OutcomeMark>) {
        let mut w = if rounds.start == 0 {
            JournalWriter::create(path).unwrap()
        } else {
            JournalWriter::open_append(path, rounds.start as u64 * 4, file_len(path)).unwrap()
        };
        let (mut all, mut marks) = (Vec::new(), Vec::new());
        for r in rounds {
            for ev in round_events(r) {
                w.append(&ev).unwrap();
                all.push(ev);
            }
            w.sync().unwrap();
            marks.push(OutcomeMark {
                events: w.events(),
                round: r,
                digest: DIGEST ^ r as u64,
                bytes: w.commit().bytes,
            });
        }
        (all, marks)
    }

    /// What a recovery did to its sink, in order.
    #[derive(Debug, Default, PartialEq)]
    struct Log {
        restored: Vec<(Snapshot, OutcomeMark)>,
        applied: Vec<JournalEvent>,
    }

    impl Replay for Log {
        fn restore(&mut self, snapshot: &Snapshot, at: OutcomeMark) {
            self.restored.push((snapshot.clone(), at));
            self.applied.clear();
        }

        fn apply(&mut self, event: &JournalEvent) -> std::io::Result<()> {
            self.applied.push(event.clone());
            Ok(())
        }
    }

    /// The compaction base a replay of `path` restores, read without
    /// truncating the file.
    fn base_of(path: &Path) -> Option<Snapshot> {
        let mut log = Log::default();
        pass(path, None, Some(&mut log), HOLD_EVENTS).unwrap();
        log.restored
            .into_iter()
            .next()
            .map(|(snapshot, _)| snapshot)
    }

    #[test]
    fn write_scan_round_trips() {
        let path = temp_path("roundtrip");
        let (all, marks) = write_rounds(&path, 0..3);
        let rec = scan_meta(&path).unwrap();
        assert_eq!(committed_events(&path, &rec), all);
        assert_eq!(rec.base, Base::None);
        assert_eq!(rec.discarded_bytes, 0);
        assert_eq!(rec.committed_events, 12);
        assert_eq!(rec.suffix_bytes, 0);
        assert_eq!(marks[2].events, rec.committed_events);
        assert_eq!(
            marks[2].bytes, rec.committed_bytes,
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
    }

    #[test]
    fn uncommitted_tail_is_discarded_and_truncated() {
        let path = temp_path("tail");
        let (committed, _) = write_rounds(&path, 0..1);
        // A round in flight: two arrivals and a seal, but no outcome —
        // then the crash. Recovery must land on round 0.
        let mut w = JournalWriter::open_append(&path, 4, file_len(&path)).unwrap();
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
        // The file itself was truncated to the commit point.
        let after = std::fs::metadata(&path).unwrap().len();
        assert_eq!(after, rec.committed_bytes);
        assert!(after < before);
        assert_eq!(rec.discarded_bytes, before - after);
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
        let mut w = JournalWriter::open_append(&path, 4, file_len(&path)).unwrap();
        w.append(&arrival(7, 1.1, 3)).unwrap(); // uncommitted
        drop(w);
        let rec = recover_meta(&path).unwrap();
        let events = committed_events(&path, &rec).len() as u64;
        let mut w = JournalWriter::open_append(&path, events, rec.committed_bytes).unwrap();
        assert_eq!(w.events(), 4);
        for ev in round_events(1) {
            w.append(&ev).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let full = scan_meta(&path).unwrap();
        assert_eq!(committed_events(&path, &full).len(), 8);
        assert_eq!(full.discarded_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_lines_match_event_rendering() {
        let path = temp_path("lines");
        let (events, _) = write_rounds(&path, 0..1);
        let lines = committed_prefix_lines(&path);
        let expect: Vec<String> = events.iter().map(JournalEvent::to_line).collect();
        assert_eq!(lines, expect);
        std::fs::remove_file(&path).ok();
    }

    /// The writer's committed length is the file's length at each sync:
    /// appends past it count only once a sync commits them, and a writer
    /// reopened on the recovered length continues the count in the same
    /// file, which recovery truncated in place.
    #[test]
    fn writer_counts_committed_bytes() {
        let path = temp_path("bytes");
        let mut w = JournalWriter::create(&path).unwrap();
        let file = w.commit().file;
        for ev in round_events(0) {
            w.append(&ev).unwrap();
        }
        assert_eq!(w.commit().bytes, 0, "nothing is committed before a sync");
        w.sync().unwrap();
        assert_eq!(w.commit().bytes, file_len(&path));
        w.append(&arrival(2, 1.2, 0)).unwrap();
        assert!(file_len(&path) > w.commit().bytes);
        drop(w);
        let meta = recover_meta(&path).unwrap();
        let mut w = JournalWriter::open_append(&path, 4, meta.committed_bytes).unwrap();
        assert_eq!(w.commit().file, file, "recovery keeps the file");
        for ev in round_events(1) {
            w.append(&ev).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.commit().bytes, file_len(&path));
        assert_eq!(w.commit().bytes, scan_meta(&path).unwrap().committed_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_events_matches_scan_over_any_boundary() {
        let path = temp_path("stream");
        let (all, marks) = write_rounds(&path, 0..3);
        let meta = scan_meta(&path).unwrap();
        for (i, mark) in marks.iter().enumerate() {
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
        let (all, marks) = write_rounds(&path, 0..3);
        let snap = boundary_snapshot(2);
        let before = std::fs::metadata(&path).unwrap().len();
        let pinned = File::open(&path).unwrap();
        let stats = compact(&path, &snap, &marks[1]).unwrap();
        assert_eq!(stats.bytes_before, before);
        assert!(stats.bytes_after < before);
        assert_eq!(stats.bytes_after, file_len(&path));
        assert_ne!(
            Commit::of(&File::open(&path).unwrap(), 0).unwrap(),
            Commit::of(&pinned, 0).unwrap(),
            "compaction renames a new file into place"
        );

        let rec = scan_meta(&path).unwrap();
        assert_eq!(base_of(&path), Some(snap.clone()));
        assert_eq!(snap.events, 8, "the rewrite dropped 8 events");
        assert_eq!(
            committed_events(&path, &rec),
            all[8..].to_vec(),
            "suffix survives verbatim"
        );
        assert_eq!(rec.base, Base::Compaction);
        assert_eq!(rec.committed_events, 12);
        // The snapshot now sits at its own (now-base) boundary.
        assert_eq!(stats.suffix_bytes, rec.suffix_bytes);
        // The header renders as the first committed line.
        let lines = committed_prefix_lines(&path);
        assert!(
            lines[0].starts_with(r#"{"event":"compact""#),
            "{}",
            lines[0]
        );
        assert_eq!(lines.len(), 1 + 4);

        // Appending continues the logical numbering.
        let mut w =
            JournalWriter::open_append(&path, rec.committed_events, rec.committed_bytes).unwrap();
        for ev in round_events(3) {
            w.append(&ev).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let meta = scan_meta(&path).unwrap();
        assert_eq!(meta.committed_events, 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_idempotent_and_layers() {
        let path = temp_path("recompact");
        let (_, marks) = write_rounds(&path, 0..2);
        let snap1 = boundary_snapshot(1);
        let stats = compact(&path, &snap1, &marks[0]).unwrap();
        assert_eq!(base_of(&path).map(|s| s.events), Some(4));
        // Same snapshot again, now at the header's end: covers nothing
        // new, file untouched.
        let pinned = Commit::of(&File::open(&path).unwrap(), 0).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let at = OutcomeMark {
            events: 4,
            round: 0,
            digest: snap1.digest,
            bytes: stats.suffix_bytes,
        };
        let again = compact(&path, &snap1, &at).unwrap();
        assert_eq!((again.bytes_before, again.bytes_after), (len, len));
        assert_eq!(again.suffix_bytes, stats.suffix_bytes);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(Commit::of(&File::open(&path).unwrap(), 0).unwrap(), pinned);
        // A later snapshot compacts on top of the previous base.
        let (_, marks) = write_rounds(&path, 2..4);
        let snap3 = boundary_snapshot(3);
        let at = *marks.iter().find(|m| m.events == 12).unwrap();
        compact(&path, &snap3, &at).unwrap();
        assert_eq!(base_of(&path).map(|s| s.events), Some(12), "8 more dropped");
        let rec = scan_meta(&path).unwrap();
        assert_eq!(base_of(&path), Some(snap3));
        assert_eq!(committed_events(&path, &rec), round_events(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_refuses_an_unanchored_snapshot() {
        let path = temp_path("badsnap");
        let (_, marks) = write_rounds(&path, 0..2);
        let at = marks[0];
        let before = std::fs::read(&path).unwrap();
        // Off-boundary event count.
        let mut snap = boundary_snapshot(1);
        snap.events = 3;
        assert!(compact(&path, &snap, &at).is_err());
        // Right count, wrong digest: a diverged history must be refused.
        let mut snap = boundary_snapshot(1);
        snap.digest ^= 1;
        assert!(compact(&path, &snap, &at).is_err());
        // A mark whose digest agrees with the snapshot but not with the
        // outcome line at its boundary.
        let mut snap = boundary_snapshot(1);
        snap.digest ^= 1;
        let off = OutcomeMark {
            digest: snap.digest,
            ..at
        };
        assert!(compact(&path, &snap, &off).is_err());
        // A mark that is not a line end, or lies past the file.
        let snap = boundary_snapshot(1);
        for bytes in [0, at.bytes - 1, at.bytes + 1, before.len() as u64 + 1] {
            assert!(compact(&path, &snap, &OutcomeMark { bytes, ..at }).is_err());
        }
        // A mark on another round's outcome line.
        let wrong = OutcomeMark {
            events: 4,
            digest: snap.digest,
            ..marks[1]
        };
        assert!(compact(&path, &snap, &wrong).is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "nothing was rewritten"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_preserves_the_uncommitted_tail() {
        let path = temp_path("compact-tail");
        let (_, marks) = write_rounds(&path, 0..2);
        let mut w = JournalWriter::open_append(&path, 8, file_len(&path)).unwrap();
        w.append(&arrival(9, 2.2, 3)).unwrap(); // flushed, unsealed
        drop(w);
        compact(&path, &boundary_snapshot(1), &marks[0]).unwrap();
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
        let (_, marks) = write_rounds(&path, 0..2);
        let snap = boundary_snapshot(2);
        compact(&path, &snap, &marks[1]).unwrap();
        // Tear everything after the header: the base alone remains.
        let torn = br#"{"event":"arrival","seq":8,"at":2.1,"bi"#;
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(torn).unwrap();
        }
        let rec = recover_meta(&path).unwrap();
        assert_eq!(rec.base, Base::Compaction);
        assert_eq!(base_of(&path), Some(snap));
        assert!(committed_events(&path, &rec).is_empty());
        assert_eq!(rec.discarded_bytes, torn.len() as u64);
        assert_eq!(scan_meta(&path).unwrap().discarded_bytes, 0);
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
        assert_eq!(rec.base, Base::None);
        assert_eq!(committed_events(&path, &rec).len(), 4);
        assert!(rec.discarded_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    /// Runs the recovery pass with every hold from 1 event up; each must
    /// leave the sink and the result as the default hold does, reading no
    /// less.
    fn replay_at_every_hold(path: &Path, snapshot: Option<Snapshot>) -> (Log, Recovery) {
        let mut want = Log::default();
        let rec = pass(path, snapshot.clone(), Some(&mut want), HOLD_EVENTS).unwrap();
        let scan = scan_meta(path).unwrap();
        let commit = |r: &Recovery| {
            let bytes = (r.suffix_bytes, r.committed_bytes, r.discarded_bytes);
            (bytes, r.committed_events)
        };
        assert_eq!(
            commit(&rec),
            commit(&scan),
            "a replay commits as a scan does"
        );
        for hold in 1..6 {
            let mut log = Log::default();
            let held = pass(path, snapshot.clone(), Some(&mut log), hold).unwrap();
            assert_eq!(log, want, "hold {hold}");
            let bytes_read = rec.bytes_read;
            assert_eq!(Recovery { bytes_read, ..held }, rec, "hold {hold}");
            assert!(held.bytes_read >= rec.bytes_read, "hold {hold}");
        }
        (want, rec)
    }

    #[test]
    fn recovery_applies_committed_rounds_at_any_hold() {
        let path = temp_path("hold");
        let (all, _) = write_rounds(&path, 0..3);
        // An uncommitted round: two arrivals and a seal, no outcome.
        let mut w = JournalWriter::open_append(&path, 12, file_len(&path)).unwrap();
        for ev in &round_events(3)[..3] {
            w.append(ev).unwrap();
        }
        drop(w);
        let (log, rec) = replay_at_every_hold(&path, None);
        assert_eq!(log.restored, []);
        assert_eq!(log.applied, all);
        assert_eq!(rec.base, Base::None);
        assert_eq!(rec.events_replayed, 12);
        assert_eq!(rec.bytes_read, file_len(&path), "one pass");
        assert_eq!(rec.discarded_bytes, file_len(&path) - rec.committed_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_fast_forwards_from_a_snapshot_on_a_commit_boundary() {
        let path = temp_path("hold-snap");
        let (all, marks) = write_rounds(&path, 0..3);
        let (log, rec) = replay_at_every_hold(&path, Some(boundary_snapshot(2)));
        assert_eq!(log.restored, [(boundary_snapshot(2), marks[1])]);
        assert_eq!(log.applied, all[8..]);
        assert_eq!((rec.base, rec.events_replayed), (Base::Snapshot, 4));
        assert_eq!(rec.bytes_read, file_len(&path), "one pass");

        // A snapshot off every boundary, or ahead of the journal, is
        // ignored: a second pass replays from the start.
        let mut off = boundary_snapshot(2);
        off.digest ^= 1;
        for snapshot in [off, boundary_snapshot(4)] {
            let (log, rec) = replay_at_every_hold(&path, Some(snapshot));
            assert_eq!(log.restored, []);
            assert_eq!(log.applied, all);
            assert_eq!((rec.base, rec.events_replayed), (Base::None, 12));
            assert!(rec.bytes_read > file_len(&path), "a second pass");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_restores_a_compaction_base() {
        let path = temp_path("hold-base");
        let (all, marks) = write_rounds(&path, 0..3);
        let base = boundary_snapshot(1);
        let stats = compact(&path, &base, &marks[0]).unwrap();
        let at_base = OutcomeMark::of_base(&base, stats.suffix_bytes);
        // Round 1's mark, moved by the prefix the compaction swapped for
        // its header.
        let at_round_1 = OutcomeMark {
            bytes: marks[1].bytes - marks[0].bytes + stats.suffix_bytes,
            ..marks[1]
        };
        // No snapshot file, or one behind the base: the base.
        let mut behind = boundary_snapshot(1);
        behind.events = 2;
        for snapshot in [None, Some(behind)] {
            let (log, rec) = replay_at_every_hold(&path, snapshot);
            assert_eq!(log.restored, [(base.clone(), at_base)]);
            assert_eq!(log.applied, all[4..]);
            assert_eq!((rec.base, rec.events_replayed), (Base::Compaction, 8));
        }
        // The snapshot file at the base wins the tie; one further ahead
        // restores over it.
        let (log, rec) = replay_at_every_hold(&path, Some(base.clone()));
        assert_eq!(
            (log.restored, rec.base),
            (vec![(base.clone(), at_base)], Base::Snapshot)
        );
        let (log, rec) = replay_at_every_hold(&path, Some(boundary_snapshot(2)));
        assert_eq!(
            log.restored,
            [(base, at_base), (boundary_snapshot(2), at_round_1)]
        );
        assert_eq!(log.applied, all[8..]);
        assert_eq!(
            (rec.base, rec.bytes_read),
            (Base::Snapshot, file_len(&path))
        );
        std::fs::remove_file(&path).ok();
    }

    /// `path` holds `bytes`, and no temp file is left beside it.
    fn assert_holds(path: &Path, bytes: &[u8]) {
        assert_eq!(std::fs::read(path).unwrap(), bytes);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "the temp file was left behind");
    }

    #[test]
    fn an_abandoned_or_failed_replace_leaves_the_target_and_no_temp_file() {
        let path = temp_path("replace-undone");
        std::fs::write(&path, b"old\n").unwrap();
        let eof = std::io::ErrorKind::UnexpectedEof;
        for (end, want) in [(Ok(false), Ok(false)), (Err(eof.into()), Err(eof))] {
            let replaced = replace_file(&path, ".tmp", |file| {
                file.write_all(b"half of the new")?;
                end
            });
            assert_eq!(replaced.map_err(|e| e.kind()), want);
            assert_holds(&path, b"old\n");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_completed_replace_swaps_the_file() {
        let path = temp_path("replace-done");
        std::fs::write(&path, b"old\n").unwrap();
        let pinned = Commit::of(&File::open(&path).unwrap(), 0).unwrap();
        let replaced = replace_file(&path, ".tmp", |file| {
            file.write_all(b"new\n")?;
            Ok(true)
        });
        assert!(replaced.unwrap());
        assert_holds(&path, b"new\n");
        assert_ne!(
            Commit::of(&File::open(&path).unwrap(), 0).unwrap(),
            pinned,
            "a new file is renamed into place"
        );
        std::fs::remove_file(&path).ok();
    }
}
