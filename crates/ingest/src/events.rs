//! The deterministic event queue: a binary heap ordered by `(time, seq)`.
//!
//! Every arrival entering the ingestion loop becomes an [`Event`] carrying
//! its virtual timestamp and a *sequence number* — the arrival's position
//! in the offered stream. The heap pops events in `(time, seq)` order:
//! time first (`f64::total_cmp`, so the order is total even though times
//! are floats), sequence number as the tie-breaker. Because the sequence
//! number is assigned from the stream position — not from thread scheduling
//! — two arrivals at the same instant always drain in the same order, which
//! is what makes sealed rounds bit-identical across runs, replays and
//! worker counts.

use auction::bid::Bid;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One timestamped arrival inside the ingestion loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual arrival instant.
    pub time: f64,
    /// Position in the offered stream (ties on `time` drain in `seq`
    /// order).
    pub seq: u64,
    /// The bid that arrived.
    pub bid: Bid,
}

/// Min-heap wrapper giving [`Event`] the `(time, seq)` order.
#[derive(Debug, Clone)]
struct HeapEntry(Event);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .0
            .time
            .total_cmp(&self.0.time)
            .then(other.0.seq.cmp(&self.0.seq))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapEntry>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Enqueues an event.
    ///
    /// # Panics
    ///
    /// Panics on non-finite timestamps (they would poison the order).
    pub fn push(&mut self, event: Event) {
        assert!(event.time.is_finite(), "event time must be finite");
        self.heap.push(HeapEntry(event));
    }

    /// Timestamp of the earliest queued event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Pops the earliest event if its time is at most `t`.
    pub fn pop_if_due(&mut self, t: f64) -> Option<Event> {
        if self.peek_time()? <= t {
            Some(self.heap.pop().expect("peeked above").0)
        } else {
            None
        }
    }

    /// Drains every event with `time ≤ t`, earliest first.
    pub fn drain_due(&mut self, t: f64) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = self.pop_if_due(t) {
            out.push(e);
        }
        out
    }

    /// Every queued event in `(time, seq)` order, without draining — the
    /// deterministic serialization order for snapshots.
    pub fn to_sorted_vec(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self.heap.iter().map(|e| e.0).collect();
        events.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.seq.cmp(&b.seq)));
        events
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, seq: u64) -> Event {
        Event {
            time,
            seq,
            bid: Bid::new(seq as usize, 1.0, 100, 0.9),
        }
    }

    #[test]
    fn pops_in_time_order_regardless_of_push_order() {
        let mut q = EventQueue::new();
        for (t, s) in [(2.5, 0), (0.5, 1), (1.5, 2), (0.25, 3)] {
            q.push(ev(t, s));
        }
        let times: Vec<f64> = q.drain_due(10.0).iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0.25, 0.5, 1.5, 2.5]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_break_ties_by_seq() {
        let mut q = EventQueue::new();
        for s in [3u64, 0, 2, 1] {
            q.push(ev(1.0, s));
        }
        let seqs: Vec<u64> = q.drain_due(1.0).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drain_due_respects_the_cutoff() {
        let mut q = EventQueue::new();
        for (t, s) in [(0.1, 0), (0.6, 1), (0.6, 2), (0.9, 3)] {
            q.push(ev(t, s));
        }
        let drained = q.drain_due(0.6);
        assert_eq!(drained.len(), 3);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(0.9));
        assert!(q.pop_if_due(0.8).is_none());
        assert!(q.pop_if_due(0.9).is_some());
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.push(ev(f64::NAN, 0));
    }
}
