//! The append-only journal file: durable writes, torn-tail recovery,
//! and prefix compaction.
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
//! idempotent. File *creation* and every rename are followed by a
//! parent-directory fsync, so a crash right after cannot lose the
//! directory entry of data already on stable storage.
//!
//! **Compaction.** [`compact`] bounds the journal to the suffix a
//! snapshot does not cover: it writes a header line embedding the
//! snapshot itself (so the compacted journal stays *self-contained* —
//! recovery never depends on the separate snapshot file surviving),
//! followed by the raw bytes of every event past the snapshot boundary,
//! to a temp file in the same directory; fsyncs it; renames it over the
//! journal; and fsyncs the directory. A crash at any instant leaves
//! either the old journal or the new one, never a torn mix. The caller
//! names the boundary by the [`OutcomeMark`] it kept when it wrote the
//! snapshot, so compaction reads no line before it but the one outcome
//! line it checks the snapshot against. A scan of a compacted journal
//! reports the header as [`JournalMeta::base`] and indexes events from the
//! base offset onward.
//!
//! Every reader here — [`scan_meta`], [`recover_meta`], [`stream_events`]
//! and [`recover`] — reads through one line loop.

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
// Scanning and recovery: one pass, per-round marks.
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

/// What a scan learns about a journal file: the commit boundary, the
/// compaction base (if any), and one 32-byte [`OutcomeMark`] per committed
/// round in the file. The events themselves are not kept.
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
        }
    }

    /// Logical event count the compacted-away prefix holds (0 when the
    /// journal was never compacted).
    pub fn base_events(&self) -> u64 {
        self.base.as_ref().map_or(0, |s| s.events)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// An empty market: replay started at the first event.
    None,
    /// The compaction header's embedded snapshot.
    Compaction,
    /// The snapshot file, at the outcome line it matched.
    Snapshot,
}

/// What one [`recover`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The state replay started from.
    pub base: Base,
    /// Journal bytes the line loop consumed, a second pass included: equal
    /// to `committed_bytes` when the file was read once and had no tail.
    pub bytes_read: u64,
    /// Events re-applied on top of the base.
    pub events_replayed: u64,
    /// Bytes past the commit point that were truncated away.
    pub discarded_bytes: u64,
    /// The committed byte length, which the file now has.
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
/// [`recover_meta`] for the truncating variant), keeping only per-round
/// marks in memory. A missing file reads as an empty journal.
pub fn scan_meta(path: impl AsRef<Path>) -> std::io::Result<JournalMeta> {
    pass(path.as_ref(), None, None, HOLD_EVENTS).map(|(meta, _)| meta)
}

/// Recovers a journal in place: scans for the committed prefix and
/// truncates the file to it, so torn or uncommitted trailing lines can
/// never be replayed.
pub fn recover_meta(path: impl AsRef<Path>) -> std::io::Result<JournalMeta> {
    let mut meta = scan_meta(path.as_ref())?;
    truncate_tail(path.as_ref(), &mut meta)?;
    Ok(meta)
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
    let (mut meta, recovery) = pass(path, snapshot, Some(sink), HOLD_EVENTS)?;
    truncate_tail(path, &mut meta)?;
    Ok(recovery)
}

/// Truncates the file to `meta`'s committed prefix if it holds more.
fn truncate_tail(path: &Path, meta: &mut JournalMeta) -> std::io::Result<()> {
    if meta.discarded_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(meta.committed_bytes)?;
        file.sync_data()?;
        meta.discarded_bytes = 0;
    }
    Ok(())
}

/// The one pass behind [`scan_meta`] and [`recover`] (see there), holding
/// at most `hold` events; without a sink it only marks.
fn pass(
    path: &Path,
    snapshot: Option<Snapshot>,
    mut sink: Option<&mut dyn Replay>,
    hold: usize,
) -> std::io::Result<(JournalMeta, Recovery)> {
    let mut meta = JournalMeta::empty();
    let mut rec = Recovery {
        base: Base::None,
        bytes_read: 0,
        events_replayed: 0,
        discarded_bytes: 0,
        committed_bytes: 0,
        committed_events: 0,
    };
    let Some(mut lines) = Lines::open(path, 0)? else {
        return Ok((meta, rec));
    };
    let total_bytes = lines.reader.get_ref().metadata()?.len();
    // The snapshot file while the outcome line it claims is still ahead.
    let mut ahead = snapshot.filter(|s| s.events > 0);
    // The current round's events, unless it outgrew `hold`.
    let mut held = Vec::new();
    let mut overflow = false;
    let mut events = 0;
    while let Some(entry) = lines.next()? {
        let round_start = meta.committed_bytes;
        let event = match entry {
            Entry::Header(base) => {
                events = base.events;
                meta.suffix_bytes = lines.offset;
                // The header commits by construction: compaction fsyncs
                // it before the rename that makes it visible.
                meta.committed_bytes = lines.offset;
                meta.committed_events = events;
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
                meta.base = Some(base);
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
        meta.committed_bytes = mark.bytes;
        meta.committed_events = events;
        meta.outcomes.push(mark);
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
                replay_range(path, meta.suffix_bytes, mark.bytes, sink, &mut rec)?;
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
        replay_range(
            path,
            meta.suffix_bytes,
            meta.committed_bytes,
            sink,
            &mut rec,
        )?;
    }
    meta.discarded_bytes = total_bytes - meta.committed_bytes;
    rec.bytes_read += lines.read;
    rec.discarded_bytes = meta.discarded_bytes;
    rec.committed_bytes = meta.committed_bytes;
    rec.committed_events = meta.committed_events;
    Ok((meta, rec))
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
/// inside the committed prefix (as [`JournalMeta`] offsets do).
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

/// Rewrites the journal to drop the prefix `snapshot` covers, via the
/// crash-safe dance: write a temp file in the same directory (header
/// line embedding the snapshot, then the raw bytes of everything past
/// its boundary — uncommitted tail included, so in-flight arrivals keep
/// their existing crash semantics), fsync the file, rename it over the
/// journal, fsync the directory.
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

    let mut tmp = path.to_path_buf();
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".compact.tmp");
    tmp.set_file_name(name);
    let mut header = compact_header_line(snapshot);
    header.push('\n');
    let bytes_after;
    {
        let mut out = BufWriter::new(File::create(&tmp)?);
        out.write_all(header.as_bytes())?;
        src.seek(SeekFrom::Start(at.bytes))?;
        std::io::copy(&mut src, &mut out)?;
        out.flush()?;
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_data()?;
        bytes_after = file.metadata()?.len();
    }
    std::fs::rename(&tmp, path)?;
    fsync_parent_dir(path);
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

    fn write_rounds(path: &Path, rounds: std::ops::Range<usize>) -> Vec<JournalEvent> {
        let mut w = if rounds.start == 0 {
            JournalWriter::create(path).unwrap()
        } else {
            JournalWriter::open_append(path, rounds.start as u64 * 4, file_len(path)).unwrap()
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
    }

    #[test]
    fn uncommitted_tail_is_discarded_and_truncated() {
        let path = temp_path("tail");
        let committed = write_rounds(&path, 0..1);
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
        let events = write_rounds(&path, 0..1);
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
        let pinned = File::open(&path).unwrap();
        let at = scan_meta(&path).unwrap().outcomes[1];
        let stats = compact(&path, &snap, &at).unwrap();
        assert_eq!(stats.bytes_before, before);
        assert!(stats.bytes_after < before);
        assert_ne!(
            Commit::of(&File::open(&path).unwrap(), 0).unwrap(),
            Commit::of(&pinned, 0).unwrap(),
            "compaction renames a new file into place"
        );

        let rec = scan_meta(&path).unwrap();
        assert_eq!(rec.base, Some(snap.clone()));
        assert_eq!(
            committed_events(&path, &rec),
            all[8..].to_vec(),
            "suffix survives verbatim"
        );
        let meta = scan_meta(&path).unwrap();
        assert_eq!(meta.base_events(), 8, "the rewrite dropped 8 events");
        assert_eq!(meta.committed_events, 12);
        assert_eq!(meta.outcomes.len(), 1);
        assert_eq!(meta.outcomes[0].events, 12);
        // The snapshot now sits at its own (now-base) boundary.
        assert_eq!(stats.suffix_bytes, meta.suffix_bytes);
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
            JournalWriter::open_append(&path, meta.committed_events, meta.committed_bytes).unwrap();
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
        write_rounds(&path, 0..2);
        let snap1 = boundary_snapshot(1);
        let stats = compact(&path, &snap1, &scan_meta(&path).unwrap().outcomes[0]).unwrap();
        assert_eq!(scan_meta(&path).unwrap().base_events(), 4);
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
        write_rounds(&path, 2..4);
        let snap3 = boundary_snapshot(3);
        let meta = scan_meta(&path).unwrap();
        let at = *meta.outcomes.iter().find(|m| m.events == 12).unwrap();
        compact(&path, &snap3, &at).unwrap();
        assert_eq!(
            scan_meta(&path).unwrap().base_events(),
            12,
            "8 more dropped"
        );
        let rec = scan_meta(&path).unwrap();
        assert_eq!(rec.base, Some(snap3));
        assert_eq!(committed_events(&path, &rec), round_events(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_refuses_an_unanchored_snapshot() {
        let path = temp_path("badsnap");
        write_rounds(&path, 0..2);
        let at = scan_meta(&path).unwrap().outcomes[0];
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
        let at2 = scan_meta(&path).unwrap().outcomes[1];
        let wrong = OutcomeMark {
            events: 4,
            digest: snap.digest,
            ..at2
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
        write_rounds(&path, 0..2);
        let mut w = JournalWriter::open_append(&path, 8, file_len(&path)).unwrap();
        w.append(&arrival(9, 2.2, 3)).unwrap(); // flushed, unsealed
        drop(w);
        let at = scan_meta(&path).unwrap().outcomes[0];
        compact(&path, &boundary_snapshot(1), &at).unwrap();
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
        compact(&path, &snap, &scan_meta(&path).unwrap().outcomes[1]).unwrap();
        // Tear everything after the header: the base alone remains.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(br#"{"event":"arrival","seq":8,"at":2.1,"bi"#)
                .unwrap();
        }
        let rec = recover_meta(&path).unwrap();
        assert_eq!(rec.base, Some(snap));
        assert!(committed_events(&path, &rec).is_empty());
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
    /// What a recovery did to its sink, in order.
    #[derive(Debug, Default, PartialEq)]
    struct Log {
        restored: Vec<(u64, OutcomeMark)>,
        applied: Vec<JournalEvent>,
    }

    impl Replay for Log {
        fn restore(&mut self, snapshot: &Snapshot, at: OutcomeMark) {
            self.restored.push((snapshot.events, at));
            self.applied.clear();
        }

        fn apply(&mut self, event: &JournalEvent) -> std::io::Result<()> {
            self.applied.push(event.clone());
            Ok(())
        }
    }

    /// Runs the recovery pass with every hold from 1 event up; each must
    /// leave the sink and the marks as the default hold does.
    fn replay_at_every_hold(path: &Path, snapshot: Option<Snapshot>) -> (Log, Recovery) {
        let mut want = Log::default();
        let (meta, rec) = pass(path, snapshot.clone(), Some(&mut want), HOLD_EVENTS).unwrap();
        assert_eq!(
            meta,
            scan_meta(path).unwrap(),
            "a replay marks as a scan does"
        );
        for hold in 1..6 {
            let mut log = Log::default();
            let (held_meta, held_rec) = pass(path, snapshot.clone(), Some(&mut log), hold).unwrap();
            assert_eq!((&log, &held_meta), (&want, &meta), "hold {hold}");
            assert!(held_rec.bytes_read >= rec.bytes_read, "hold {hold}");
        }
        (want, rec)
    }

    #[test]
    fn recovery_applies_committed_rounds_at_any_hold() {
        let path = temp_path("hold");
        let all = write_rounds(&path, 0..3);
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
        let all = write_rounds(&path, 0..3);
        let meta = scan_meta(&path).unwrap();
        let (log, rec) = replay_at_every_hold(&path, Some(boundary_snapshot(2)));
        assert_eq!(log.restored, [(8, meta.outcomes[1])]);
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
        let all = write_rounds(&path, 0..3);
        let base = boundary_snapshot(1);
        compact(&path, &base, &scan_meta(&path).unwrap().outcomes[0]).unwrap();
        let meta = scan_meta(&path).unwrap();
        let at_base = OutcomeMark::of_base(&base, meta.suffix_bytes);
        // No snapshot file, or one behind the base: the base.
        let mut behind = boundary_snapshot(1);
        behind.events = 2;
        for snapshot in [None, Some(behind)] {
            let (log, rec) = replay_at_every_hold(&path, snapshot);
            assert_eq!(log.restored, [(4, at_base)]);
            assert_eq!(log.applied, all[4..]);
            assert_eq!((rec.base, rec.events_replayed), (Base::Compaction, 8));
        }
        // The snapshot file at the base wins the tie; one further ahead
        // restores over it.
        let (log, rec) = replay_at_every_hold(&path, Some(base.clone()));
        assert_eq!(
            (log.restored, rec.base),
            (vec![(4, at_base)], Base::Snapshot)
        );
        let (log, rec) = replay_at_every_hold(&path, Some(boundary_snapshot(2)));
        assert_eq!(log.restored, [(4, at_base), (8, meta.outcomes[0])]);
        assert_eq!(log.applied, all[8..]);
        assert_eq!(
            (rec.base, rec.bytes_read),
            (Base::Snapshot, file_len(&path))
        );
        std::fs::remove_file(&path).ok();
    }
}
