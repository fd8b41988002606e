//! Recovery's memory does not grow with the journal's length.
//!
//! A peak-live counting `#[global_allocator]` wraps `System`: it tracks the
//! bytes the measuring thread holds and the most it held at once. Two
//! uncompacted journals, of 1 000 and 10 000 rounds, are recovered into a
//! sink that keeps nothing; the peak may differ by no more than a few
//! buffers' slack. A pass that kept anything per round — a mark, an event
//! — would grow by that times 9 000 rounds.
//!
//! Only the measuring thread is counted, so a harness thread allocating
//! meanwhile cannot show up; this file is its own crate and holds one
//! test, so the allocator perturbs nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};

use auction::bid::Bid;
use auction::outcome::Award;
use journal::{JournalEvent, JournalWriter, OutcomeMark, Replay, Snapshot};

struct PeakAlloc;

/// Bytes the armed thread allocated and has not freed since arming.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most `LIVE` has been since arming.
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialized
    /// and drop-free, so reading it from inside the allocator never
    /// allocates or registers a TLS destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn track(delta: i64) {
    if ARMED.with(Cell::get) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract is forwarded
        // to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`, as the caller's `dealloc` contract guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's `realloc` contract (a live `System` block
        // with this `layout`, a valid `new_size`) is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// A sink that keeps nothing.
struct Discard;

impl Replay for Discard {
    fn restore(&mut self, _: &Snapshot, _: OutcomeMark) {}

    fn apply(&mut self, _: &JournalEvent) -> std::io::Result<()> {
        Ok(())
    }
}

/// Round `r` of the journal: two arrivals, a seal and an outcome.
fn round_lines(r: usize) -> [String; 4] {
    let bids = [Bid::new(0, 1.0, 100, 0.9), Bid::new(1, 1.25, 120, 0.8)];
    let arrival = |i: usize| JournalEvent::Arrival {
        seq: (r * 2 + i) as u64,
        at: r as f64 + 0.25 * (i + 1) as f64,
        bid: bids[i],
    };
    let seal = JournalEvent::Seal {
        round: r,
        sealed: bids.to_vec(),
    };
    let outcome = JournalEvent::Outcome {
        round: r,
        awards: vec![Award {
            bidder: 0,
            cost: 1.0,
            value: 2.1,
            payment: 1.3,
        }],
        virtual_welfare: 0.8,
        spend: 1.3,
        backlog: 0.5,
        digest: 0x9e37_79b9_7f4a_7c15 ^ r as u64,
    };
    [arrival(0), arrival(1), seal, outcome].map(|ev| ev.to_line())
}

/// An uncompacted journal of `rounds` rounds, synced once at the end.
fn write_journal(rounds: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lovm-recovery-memory-{}-{rounds}.jsonl",
        std::process::id()
    ));
    let mut w = JournalWriter::create(&path).unwrap();
    for r in 0..rounds {
        for line in round_lines(r) {
            w.append_raw(&line).unwrap();
        }
    }
    w.sync().unwrap();
    path
}

/// The most bytes `journal::recover` of `path` held at once.
fn recovery_peak(path: &Path, rounds: usize) -> i64 {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let rec = journal::recover(path, None, &mut Discard);
    ARMED.with(|armed| armed.set(false));
    let rec = rec.unwrap();
    assert_eq!(rec.committed_events, rounds as u64 * 4);
    assert_eq!(rec.events_replayed, rounds as u64 * 4);
    PEAK.load(Ordering::Relaxed)
}

#[test]
fn recovery_memory_does_not_grow_with_the_journal() {
    let (short, long) = (write_journal(1_000), write_journal(10_000));
    // Warm up: whatever the first recovery sets up once is not counted.
    recovery_peak(&short, 1_000);
    let short_peak = recovery_peak(&short, 1_000);
    let long_peak = recovery_peak(&long, 10_000);
    std::fs::remove_file(&short).ok();
    std::fs::remove_file(&long).ok();
    let growth = long_peak - short_peak;
    assert!(
        growth < 16 * 1024,
        "recovery's peak heap grew by {growth} B from 1 000 rounds ({short_peak} B) \
         to 10 000 ({long_peak} B)"
    );
}
