//! Snapshot-at-sealed-round: the collector + mechanism state frozen at a
//! commit boundary, so recovery replays only the journal tail.
//!
//! A snapshot is one JSON document written atomically (through
//! [`crate::replace_file`]: temp file, fsync, `rename`, directory fsync),
//! so a crash mid-write leaves the previous snapshot intact. Reading is
//! forgiving: a missing, unparsable, or version-mismatched snapshot reads
//! as `None` and the caller falls back to replaying the journal from the
//! start — the snapshot is an accelerator, never the source of truth.

use crate::event::{bid_to_json, decode_bid};
use ingest::collector::AdmitClass;
use ingest::events::Event;
use ingest::{CollectorState, StreamTotals};
use metrics::json::{JsonValue, ToJson};
use std::path::Path;

/// Format marker so an unrelated JSON file is never mistaken for a
/// snapshot.
const MAGIC: &str = "lovm-snapshot";
/// Bumped on any incompatible layout change; old snapshots then read as
/// absent and recovery replays the full journal.
const VERSION: u64 = 1;

/// Everything a serve session needs to resume from a sealed round
/// without replaying the journal prefix the snapshot covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Committed journal events the snapshot covers: replay starts at
    /// this event index.
    pub events: u64,
    /// The collector's carried-over state at the boundary.
    pub collector: CollectorState,
    /// Mechanism virtual-queue backlog.
    pub backlog: f64,
    /// Running virtual-welfare total.
    pub welfare: f64,
    /// Running payment total.
    pub spend: f64,
    /// Running state digest at the boundary.
    pub digest: u64,
    /// Session-lifetime ingestion rollup at the boundary, so the rounds
    /// a snapshot fast-forward skips still count in the `stats` report.
    /// Observability only — never digest-folded; a snapshot without the
    /// field reads as all zeros rather than as absent.
    pub totals: StreamTotals,
}

impl Snapshot {
    /// Renders the snapshot as its JSON document.
    pub fn to_json(&self) -> JsonValue {
        let c = &self.collector;
        let mut queued = JsonValue::array();
        for ev in &c.queued {
            queued = queued.item(event_to_json(ev));
        }
        let mut pending = JsonValue::array();
        for (target, ev, class) in &c.pending {
            pending = pending.item(
                JsonValue::object()
                    .field("target", *target)
                    .field("class", class_name(*class))
                    .field("ev", event_to_json(ev)),
            );
        }
        JsonValue::object()
            .field("magic", MAGIC)
            .field("version", VERSION)
            .field("events", self.events)
            .field("backlog", self.backlog)
            .field("welfare", self.welfare)
            .field("spend", self.spend)
            .field("digest", crate::u64_hex(self.digest))
            .field("totals", self.totals.to_json())
            .field(
                "collector",
                JsonValue::object()
                    .field("next_round", c.next_round)
                    .field("next_seq", c.next_seq)
                    .field("offered", c.offered)
                    .field("queued", queued)
                    .field("pending", pending),
            )
    }

    /// Decodes a snapshot document; `None` on anything malformed or from
    /// a different format version.
    pub fn from_json(v: &JsonValue) -> Option<Snapshot> {
        if v.get("magic")?.as_str()? != MAGIC || v.get("version")?.as_u64()? != VERSION {
            return None;
        }
        let c = v.get("collector")?;
        let queued = c
            .get("queued")?
            .as_array()?
            .iter()
            .map(event_from_json)
            .collect::<Option<Vec<Event>>>()?;
        let pending = c
            .get("pending")?
            .as_array()?
            .iter()
            .map(|p| {
                Some((
                    p.get("target")?.as_usize()?,
                    event_from_json(p.get("ev")?)?,
                    class_from_name(p.get("class")?.as_str()?)?,
                ))
            })
            .collect::<Option<Vec<(usize, Event, AdmitClass)>>>()?;
        Some(Snapshot {
            events: v.get("events")?.as_u64()?,
            collector: CollectorState {
                next_round: c.get("next_round")?.as_usize()?,
                next_seq: c.get("next_seq")?.as_u64()?,
                offered: c.get("offered")?.as_u64()?,
                queued,
                pending,
            },
            backlog: v.get("backlog")?.as_f64()?,
            welfare: v.get("welfare")?.as_f64()?,
            spend: v.get("spend")?.as_f64()?,
            digest: crate::u64_from_hex(v.get("digest")?.as_str()?)?,
            totals: v
                .get("totals")
                .and_then(totals_from_json)
                .unwrap_or_default(),
        })
    }
}

/// Decodes the rollup; any missing field zeroes the whole thing (the
/// rollup is telemetry, not truth — it must never fail a recovery).
fn totals_from_json(v: &JsonValue) -> Option<StreamTotals> {
    Some(StreamTotals {
        rounds: v.get("rounds")?.as_usize()?,
        arrivals: v.get("arrivals")?.as_usize()?,
        sealed: v.get("sealed")?.as_usize()?,
        admitted_late: v.get("admitted_late")?.as_usize()?,
        deferred: v.get("deferred")?.as_usize()?,
        dropped: v.get("dropped")?.as_usize()?,
        superseded: v.get("superseded")?.as_usize()?,
        shed: v.get("shed")?.as_usize()?,
        blocked: v.get("blocked")?.as_usize()?,
        buffer_peak: v.get("buffer_peak")?.as_usize()?,
    })
}

fn event_to_json(ev: &Event) -> JsonValue {
    JsonValue::object()
        .field("time", ev.time)
        .field("seq", ev.seq)
        .field("bid", bid_to_json(&ev.bid))
}

fn event_from_json(v: &JsonValue) -> Option<Event> {
    Some(Event {
        time: v
            .get("time")?
            .as_f64()
            .filter(|&t| ingest::clock::valid_arrival_time(t))?,
        seq: v.get("seq")?.as_u64()?,
        bid: decode_bid(v.get("bid")?).ok()?,
    })
}

fn class_name(class: AdmitClass) -> &'static str {
    match class {
        AdmitClass::OnTime => "on_time",
        AdmitClass::Grace => "grace",
        AdmitClass::Deferred => "deferred",
    }
}

fn class_from_name(name: &str) -> Option<AdmitClass> {
    match name {
        "on_time" => Some(AdmitClass::OnTime),
        "grace" => Some(AdmitClass::Grace),
        "deferred" => Some(AdmitClass::Deferred),
        _ => None,
    }
}

/// Writes a snapshot atomically through [`crate::replace_file`]: a crash
/// at any point leaves either the old snapshot or the new one, never a
/// torn mix.
pub fn write_snapshot(path: impl AsRef<Path>, snapshot: &Snapshot) -> std::io::Result<()> {
    use std::io::Write;
    let _snapshot_span = telemetry::hist!("journal.snapshot_ns").span();
    telemetry::counter!("journal.snapshots").add(1);
    let mut doc = snapshot.to_json().to_string();
    doc.push('\n');
    crate::replace_file(path.as_ref(), ".tmp", |file| {
        file.write_all(doc.as_bytes())?;
        Ok(true)
    })?;
    Ok(())
}

/// Reads a snapshot; `Ok(None)` when the file is missing or does not
/// decode (recovery then replays the full journal).
pub fn read_snapshot(path: impl AsRef<Path>) -> std::io::Result<Option<Snapshot>> {
    let text = match std::fs::read_to_string(path.as_ref()) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(JsonValue::parse(text.trim())
        .ok()
        .as_ref()
        .and_then(Snapshot::from_json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use auction::bid::Bid;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lovm-snapshot-test-{}-{tag}-{n}.json",
            std::process::id()
        ))
    }

    fn sample() -> Snapshot {
        let ev = |time: f64, seq: u64, bidder: usize| Event {
            time,
            seq,
            bid: Bid::new(bidder, 1.0 + bidder as f64 * 0.3, 250, 0.85),
        };
        Snapshot {
            events: 42,
            collector: CollectorState {
                next_round: 7,
                next_seq: 40,
                offered: 40,
                queued: vec![ev(7.25, 38, 2), ev(7.9, 39, 5)],
                pending: vec![
                    (7, ev(6.8, 35, 1), AdmitClass::Deferred),
                    (8, ev(6.95, 36, 4), AdmitClass::OnTime),
                ],
            },
            backlog: 1.0 / 3.0,
            welfare: 123.456,
            spend: 78.9,
            digest: 0xdead_beef_cafe_f00d,
            totals: StreamTotals {
                rounds: 7,
                arrivals: 44,
                sealed: 38,
                admitted_late: 2,
                deferred: 3,
                dropped: 4,
                superseded: 1,
                shed: 1,
                blocked: 0,
                buffer_peak: 9,
            },
        }
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let snap = sample();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.backlog.to_bits(), snap.backlog.to_bits());
        assert_eq!(
            back.collector.queued[0].time.to_bits(),
            snap.collector.queued[0].time.to_bits()
        );
    }

    #[test]
    fn write_read_round_trips_and_replaces_atomically() {
        let path = temp_path("rw");
        assert_eq!(read_snapshot(&path).unwrap(), None);
        let snap = sample();
        write_snapshot(&path, &snap).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(snap.clone()));
        // Overwrite with a newer snapshot; the old one is fully replaced.
        let newer = Snapshot { events: 99, ..snap };
        write_snapshot(&path, &newer).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(newer));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_or_foreign_snapshots_read_as_absent() {
        let path = temp_path("corrupt");
        for garbage in [
            "",
            "not json at all",
            r#"{"magic":"something-else","version":1}"#,
            r#"{"magic":"lovm-snapshot","version":999,"events":0}"#,
            r#"{"magic":"lovm-snapshot","version":1}"#,
        ] {
            std::fs::write(&path, garbage).unwrap();
            assert_eq!(read_snapshot(&path).unwrap(), None, "input: {garbage:?}");
        }
        std::fs::remove_file(&path).ok();
    }
}
