//! The round collector: deadlines, late-bid policy, and sealing.
//!
//! A [`RoundCollector`] consumes timestamped bid arrivals (via
//! [`RoundCollector::offer`]) and, at each round's seal instant, freezes
//! the admitted set into an [`auction::sealed::SealedRound`]
//! ([`RoundCollector::seal_next`]). Everything is classified by the
//! arrival *timestamp* against the [`RoundSchedule`]:
//!
//! * on time (offset ≤ deadline) — admitted to the arrival's round span;
//! * late, policy [`LateBidPolicy::GraceWindow`] — admitted to the span if
//!   within the grace extension, otherwise dropped;
//! * late, policy [`LateBidPolicy::DeferToNext`] — carried into the next
//!   round (a fresher bid from the same bidder supersedes it at sealing);
//! * late, policy [`LateBidPolicy::Drop`] — discarded.
//!
//! Admission control in front of the queue is the bounded
//! [`ArrivalBuffer`]: shed arrivals vanish (counted), blocked arrivals are
//! parked and re-offered when the seal's drain frees space — stamped just
//! after the seal instant. With a deadline below 1.0 that is strictly
//! *late* for the span they waited out (the producer unblocked after the
//! deadline passed), so the late policy decides whether they defer
//! forward or drop; with deadline 1.0 the seal coincides with the next
//! round's start, so an unblocked arrival simply rolls into the next
//! round on time — blocking delays, it never invents lateness where no
//! late region exists.
//!
//! Determinism: the queue drains in `(time, seq)` order, sealed bids are
//! sorted by bidder, and every count derives from timestamps — so a given
//! offered sequence produces bit-identical sealed rounds and stats no
//! matter who delivered it ([`crate::drive`], a live `lovm serve`
//! session, or a journal replay).

use crate::buffer::{Admission, ArrivalBuffer};
use crate::clock::{RoundSchedule, VirtualClock};
use crate::events::{Event, EventQueue};
use crate::stats::IngestStats;
use crate::IngestConfig;
use auction::sealed::SealedRound;
use std::collections::{BTreeMap, VecDeque};
use workload::arrivals::TimedBid;

/// What happens to a bid that misses its round's deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LateBidPolicy {
    /// Late bids are discarded.
    Drop,
    /// Late bids carry over into the next round's sealed set (superseded
    /// by a fresher bid from the same bidder, if one arrives).
    DeferToNext,
    /// The round seals `grace` (fraction of a round) after its deadline;
    /// bids landing inside the window are admitted late, anything beyond
    /// is dropped. Requires `deadline + grace ≤ 1`.
    GraceWindow {
        /// Width of the window as a fraction of the round.
        grace: f64,
    },
}

impl LateBidPolicy {
    /// The grace fraction this policy extends the seal by (0 for
    /// non-grace policies).
    pub fn grace(&self) -> f64 {
        match *self {
            LateBidPolicy::GraceWindow { grace } => grace,
            _ => 0.0,
        }
    }
}

/// How an admitted bid reached its sealed round. Public because a
/// [`CollectorState`] snapshot carries the classification of banked
/// future-round bids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitClass {
    /// Beat the deadline of its own round span.
    OnTime,
    /// Landed inside the grace window.
    Grace,
    /// Carried into the next round by [`LateBidPolicy::DeferToNext`].
    Deferred,
}

/// A [`RoundCollector`]'s complete carried-over state at a seal boundary:
/// everything a restored collector needs to continue *bit-identically*
/// with the original. Exported by [`RoundCollector::export_state`] right
/// after a seal (when parked arrivals and since-seal counters are
/// provably empty) and rebuilt by [`RoundCollector::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorState {
    /// The round the restored collector will seal next.
    pub next_round: usize,
    /// Next stream sequence number to assign.
    pub next_seq: u64,
    /// Lifetime arrivals accepted.
    pub offered: u64,
    /// Events still in the queue (future-banked or deferred re-entries),
    /// in `(time, seq)` order.
    pub queued: Vec<Event>,
    /// Already-classified bids banked for future rounds, flattened from
    /// the per-round map in `(target round, classification order)`.
    pub pending: Vec<(usize, Event, AdmitClass)>,
}

/// One sealed round plus its ingestion telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedRound {
    /// The canonical per-round bid vector for the auction.
    pub sealed: SealedRound,
    /// What ingestion saw while assembling it.
    pub stats: IngestStats,
}

/// The event-driven round assembler (see module docs).
#[derive(Debug)]
pub struct RoundCollector {
    schedule: RoundSchedule,
    policy: LateBidPolicy,
    clock: VirtualClock,
    queue: EventQueue,
    buffer: ArrivalBuffer,
    /// Blocked arrivals awaiting re-offer at the next seal, in seq order.
    parked: VecDeque<Event>,
    /// Classified admits per target round (bids can bank for future
    /// rounds, e.g. a deadline-1.0 boundary arrival).
    pending: BTreeMap<usize, Vec<(Event, AdmitClass)>>,
    next_round: usize,
    next_seq: u64,
    offered: u64,
    /// Offers since the last seal flushed them to the global
    /// `ingest.offers` counter — one plain field bump per arrival beats
    /// one atomic per arrival on the admission hot path.
    offers_since_flush: u64,
    shed_since_seal: usize,
    blocked_since_seal: usize,
}

impl RoundCollector {
    /// Builds a collector from the ingestion configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-domain configuration (see [`IngestConfig`]).
    pub fn new(cfg: &IngestConfig) -> Self {
        let schedule = RoundSchedule::new(cfg.round_len, cfg.deadline, cfg.late_policy.grace());
        RoundCollector {
            schedule,
            policy: cfg.late_policy,
            clock: VirtualClock::new(),
            queue: EventQueue::new(),
            buffer: ArrivalBuffer::new(cfg.capacity, cfg.backpressure),
            parked: VecDeque::new(),
            pending: BTreeMap::new(),
            next_round: 0,
            next_seq: 0,
            offered: 0,
            offers_since_flush: 0,
            shed_since_seal: 0,
            blocked_since_seal: 0,
        }
    }

    /// The round/deadline geometry in force.
    pub fn schedule(&self) -> RoundSchedule {
        self.schedule
    }

    /// The next round [`RoundCollector::seal_next`] will seal.
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Current virtual time (the last seal instant).
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Arrivals accepted so far (stored, parked, or shed).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Bids currently held (queued, parked, or classified for future
    /// rounds) — what a graceful shutdown would flush.
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.parked.len() + self.pending.values().map(Vec::len).sum::<usize>()
    }

    /// Offers one arrival, assigning the next stream sequence number.
    pub fn offer(&mut self, tb: TimedBid) -> Admission {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.offer_at(seq, tb)
    }

    /// Offers one arrival under an explicit sequence number (a `lovm
    /// serve` session passes the sequence number it journals, so a replay
    /// of the journal reproduces the live tie-breaking exactly).
    /// Mixing `offer_at` with [`RoundCollector::offer`] on one collector
    /// is a caller bug; pick one.
    pub fn offer_at(&mut self, seq: u64, tb: TimedBid) -> Admission {
        self.offers_since_flush += 1;
        self.offered += 1;
        self.next_seq = self.next_seq.max(seq + 1);
        let event = Event {
            time: tb.at,
            seq,
            bid: tb.bid,
        };
        let admission = self.buffer.offer();
        match admission {
            Admission::Stored => self.queue.push(event),
            Admission::Shed => self.shed_since_seal += 1,
            Admission::Blocked => {
                self.blocked_since_seal += 1;
                self.parked.push_back(event);
            }
        }
        admission
    }

    /// Exports the collector's carried-over state for a snapshot.
    ///
    /// Only valid at a seal boundary (i.e. after [`seal_next`] and before
    /// any admission refused an arrival): there, parked arrivals are
    /// empty, the since-seal counters are zero, and buffer occupancy
    /// equals the queue length — so the state is fully described by the
    /// held events plus three counters.
    ///
    /// [`seal_next`]: RoundCollector::seal_next
    ///
    /// # Panics
    ///
    /// Panics when called away from a seal boundary (parked arrivals or
    /// nonzero since-seal counters would be lost).
    pub fn export_state(&self) -> CollectorState {
        assert!(
            self.parked.is_empty() && self.shed_since_seal == 0 && self.blocked_since_seal == 0,
            "collector state export only at a seal boundary"
        );
        let pending = self
            .pending
            .iter()
            .flat_map(|(&target, events)| {
                events.iter().map(move |&(ev, class)| (target, ev, class))
            })
            .collect();
        CollectorState {
            next_round: self.next_round,
            next_seq: self.next_seq,
            offered: self.offered,
            queued: self.queue.to_sorted_vec(),
            pending,
        }
    }

    /// Rebuilds a collector from an exported [`CollectorState`] so it
    /// continues *bit-identically* with the original: same sealed rounds,
    /// same stats, same sequence numbering. `cfg` must match the one the
    /// exporting collector was built with.
    pub fn restore(cfg: &IngestConfig, state: &CollectorState) -> Self {
        let mut c = Self::new(cfg);
        c.next_round = state.next_round;
        c.next_seq = state.next_seq;
        c.offered = state.offered;
        c.clock.advance_to(if state.next_round == 0 {
            0.0
        } else {
            c.schedule.seal_time(state.next_round - 1)
        });
        c.buffer.preload(state.queued.len());
        for ev in &state.queued {
            c.queue.push(*ev);
        }
        for &(target, ev, class) in &state.pending {
            c.pending.entry(target).or_default().push((ev, class));
        }
        c
    }

    /// Seals the next round: advances the clock to its seal instant,
    /// drains and classifies every due event, and freezes the round's
    /// admitted set.
    pub fn seal_next(&mut self) -> CollectedRound {
        let _seal_span = telemetry::hist!("ingest.seal_ns").span();
        telemetry::counter!("ingest.offers").add(self.offers_since_flush);
        self.offers_since_flush = 0;
        let round = self.next_round;
        self.next_round += 1;
        let seal = self.schedule.seal_time(round);
        self.clock.advance_to(seal);

        // Unblock parked arrivals: the drain below frees their space. They
        // waited out this round's deadline, so they re-enter stamped just
        // *after* the seal instant (strictly late for this span — the late
        // policy decides their fate at the next seal; original seq keeps
        // the tie-break deterministic).
        while let Some(mut ev) = self.parked.pop_front() {
            ev.time = seal.next_up();
            self.buffer.force_store();
            self.queue.push(ev);
        }

        let due = self.queue.drain_due(seal);
        self.buffer.drain(due.len());
        let mut dropped = 0usize;
        for ev in due.iter().copied() {
            let span = self.schedule.span_of(ev.time);
            // An event's *target* round: its own span when it beat the
            // deadline (or grace window), the next one when deferred.
            let (target, class) = if self.schedule.on_time(ev.time) {
                (span, Some(AdmitClass::OnTime))
            } else if self.schedule.in_grace(ev.time) {
                (span, Some(AdmitClass::Grace))
            } else {
                match self.policy {
                    LateBidPolicy::Drop | LateBidPolicy::GraceWindow { .. } => (span, None),
                    LateBidPolicy::DeferToNext => (span + 1, Some(AdmitClass::Deferred)),
                }
            };
            match class {
                // A target round that already sealed is only reachable
                // when a source violates time order badly enough to offer
                // into a sealed span; the bid can no longer be admitted.
                Some(class) if target >= round => {
                    self.pending.entry(target).or_default().push((ev, class));
                }
                _ => dropped += 1,
            }
        }

        // Freeze this round's set: the freshest bid per bidder wins (a
        // deferred bid is superseded by a newer one from the same bidder).
        let mine = self.pending.remove(&round).unwrap_or_default();
        let candidates = mine.len();
        let mut by_bidder: BTreeMap<usize, (Event, AdmitClass)> = BTreeMap::new();
        for (ev, class) in mine {
            match by_bidder.entry(ev.bid.bidder) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert((ev, class));
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let held = slot.get().0;
                    if (ev.time, ev.seq) > (held.time, held.seq) {
                        slot.insert((ev, class));
                    }
                }
            }
        }
        let (mut admitted, mut admitted_late, mut deferred_in) = (0usize, 0usize, 0usize);
        let mut bids = Vec::with_capacity(by_bidder.len());
        for (ev, class) in by_bidder.into_values() {
            match class {
                AdmitClass::OnTime => admitted += 1,
                AdmitClass::Grace => admitted_late += 1,
                AdmitClass::Deferred => deferred_in += 1,
            }
            bids.push(ev.bid);
        }
        let superseded = candidates - bids.len();

        let stats = IngestStats {
            round,
            arrivals: due.len() + self.shed_since_seal,
            admitted,
            admitted_late,
            deferred_in,
            dropped,
            superseded,
            shed: self.shed_since_seal,
            blocked: self.blocked_since_seal,
            buffer_peak: self.buffer.take_peak(),
            sealed: bids.len(),
        };
        self.shed_since_seal = 0;
        self.blocked_since_seal = 0;

        CollectedRound {
            sealed: SealedRound::new(round, bids),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Backpressure;
    use auction::bid::Bid;

    fn cfg(deadline: f64, policy: LateBidPolicy) -> IngestConfig {
        IngestConfig {
            deadline,
            late_policy: policy,
            ..IngestConfig::default()
        }
    }

    fn tb(at: f64, bidder: usize) -> TimedBid {
        TimedBid {
            at,
            bid: Bid::new(bidder, 1.0 + bidder as f64 * 0.1, 100, 0.9),
        }
    }

    #[test]
    fn on_time_bids_seal_into_their_round() {
        let mut c = RoundCollector::new(&cfg(1.0, LateBidPolicy::Drop));
        for (at, id) in [(0.2, 3), (0.5, 1), (0.9, 2)] {
            assert_eq!(c.offer(tb(at, id)), Admission::Stored);
        }
        let r = c.seal_next();
        assert_eq!(r.sealed.round(), 0);
        let ids: Vec<usize> = r.sealed.bids().iter().map(|b| b.bidder).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(r.stats.admitted, 3);
        assert_eq!(r.stats.sealed, 3);
        assert_eq!(r.stats.dropped, 0);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn drop_policy_discards_late_bids_at_the_next_seal() {
        let mut c = RoundCollector::new(&cfg(0.5, LateBidPolicy::Drop));
        c.offer(tb(0.3, 0)); // on time for round 0
        c.offer(tb(0.7, 1)); // late for round 0
        c.offer(tb(1.2, 2)); // on time for round 1
        let r0 = c.seal_next();
        assert_eq!(r0.stats.admitted, 1);
        assert_eq!(r0.stats.dropped, 0); // the late bid pops at seal 1
        let r1 = c.seal_next();
        assert_eq!(r1.stats.admitted, 1);
        assert_eq!(r1.stats.dropped, 1);
        assert_eq!(r1.sealed.bids()[0].bidder, 2);
    }

    #[test]
    fn defer_policy_carries_late_bids_forward() {
        let mut c = RoundCollector::new(&cfg(0.5, LateBidPolicy::DeferToNext));
        c.offer(tb(0.8, 7)); // late for round 0 → defers to round 1
        c.offer(tb(1.1, 4)); // on time for round 1
        let r0 = c.seal_next();
        assert_eq!(r0.stats.sealed, 0);
        let r1 = c.seal_next();
        assert_eq!(r1.stats.deferred_in, 1);
        assert_eq!(r1.stats.admitted, 1);
        let ids: Vec<usize> = r1.sealed.bids().iter().map(|b| b.bidder).collect();
        assert_eq!(ids, vec![4, 7]);
    }

    #[test]
    fn fresher_bid_supersedes_a_deferred_one() {
        let mut c = RoundCollector::new(&cfg(0.5, LateBidPolicy::DeferToNext));
        c.offer(tb(0.9, 7)); // deferred into round 1 with cost 1.7
        let fresh = TimedBid {
            at: 1.2,
            bid: Bid::new(7, 2.5, 50, 0.8),
        };
        c.offer(fresh); // round 1's own bid from the same bidder
        c.seal_next();
        let r1 = c.seal_next();
        assert_eq!(r1.stats.sealed, 1);
        assert_eq!(r1.stats.superseded, 1);
        assert_eq!(r1.sealed.bids()[0].cost, 2.5, "the fresh bid must win");
    }

    #[test]
    fn grace_window_admits_late_within_and_drops_beyond() {
        let mut c = RoundCollector::new(&cfg(0.5, LateBidPolicy::GraceWindow { grace: 0.2 }));
        c.offer(tb(0.4, 0)); // on time
        c.offer(tb(0.65, 1)); // inside grace
        c.offer(tb(0.8, 2)); // beyond grace → dropped at seal 1
        let r0 = c.seal_next();
        assert_eq!(r0.stats.admitted, 1);
        assert_eq!(r0.stats.admitted_late, 1);
        assert_eq!(r0.stats.sealed, 2);
        let r1 = c.seal_next();
        assert_eq!(r1.stats.dropped, 1);
    }

    #[test]
    fn early_arrivals_bank_for_future_rounds() {
        let mut c = RoundCollector::new(&cfg(1.0, LateBidPolicy::Drop));
        c.offer(tb(0.5, 0));
        c.offer(tb(1.5, 1)); // next round's bid, offered early
        let r0 = c.seal_next();
        assert_eq!(r0.stats.sealed, 1);
        assert_eq!(c.outstanding(), 1);
        let r1 = c.seal_next();
        assert_eq!(r1.stats.sealed, 1);
        assert_eq!(r1.sealed.bids()[0].bidder, 1);
    }

    #[test]
    fn shed_backpressure_bounds_the_buffer() {
        let cfg = IngestConfig {
            deadline: 1.0,
            capacity: 4,
            backpressure: Backpressure::Shed { watermark: 1.0 },
            ..IngestConfig::default()
        };
        let mut c = RoundCollector::new(&cfg);
        let mut shed = 0;
        for i in 0..10 {
            if c.offer(tb(0.05 + 0.01 * i as f64, i)) == Admission::Shed {
                shed += 1;
            }
        }
        assert_eq!(shed, 6);
        let r = c.seal_next();
        assert_eq!(r.stats.sealed, 4);
        assert_eq!(r.stats.shed, 6);
        assert_eq!(r.stats.buffer_peak, 4);
        assert_eq!(r.stats.arrivals, 10);
    }

    #[test]
    fn blocked_arrivals_reenter_late_and_follow_the_late_policy() {
        let cfg = IngestConfig {
            deadline: 0.5,
            late_policy: LateBidPolicy::DeferToNext,
            capacity: 2,
            backpressure: Backpressure::Block,
            ..IngestConfig::default()
        };
        let mut c = RoundCollector::new(&cfg);
        assert_eq!(c.offer(tb(0.1, 0)), Admission::Stored);
        assert_eq!(c.offer(tb(0.2, 1)), Admission::Stored);
        assert_eq!(c.offer(tb(0.3, 2)), Admission::Blocked);
        let r0 = c.seal_next();
        // The blocked bid waited out round 0's deadline; it re-entered
        // strictly late, so the defer policy carries it into round 1.
        assert_eq!(r0.stats.blocked, 1);
        assert_eq!(r0.stats.sealed, 2);
        let r1 = c.seal_next();
        assert_eq!(r1.stats.deferred_in, 1);
        assert!(r1.sealed.bids().iter().any(|b| b.bidder == 2));

        // Under Drop, the same blocked bid is discarded at the next seal.
        let mut c = RoundCollector::new(&IngestConfig {
            late_policy: LateBidPolicy::Drop,
            ..cfg
        });
        c.offer(tb(0.1, 0));
        c.offer(tb(0.2, 1));
        c.offer(tb(0.3, 2));
        let r0 = c.seal_next();
        assert_eq!((r0.stats.blocked, r0.stats.sealed), (1, 2));
        let r1 = c.seal_next();
        assert_eq!(r1.stats.dropped, 1);
        assert_eq!(r1.stats.sealed, 0);
    }

    #[test]
    fn blocked_arrivals_roll_into_the_next_round_at_full_deadline() {
        // With deadline 1.0 there is no late region: the seal coincides
        // with the next round's start, so an unblocked arrival re-enters
        // on time for the next round — even under the Drop policy.
        let cfg = IngestConfig {
            deadline: 1.0,
            late_policy: LateBidPolicy::Drop,
            capacity: 2,
            backpressure: Backpressure::Block,
            ..IngestConfig::default()
        };
        let mut c = RoundCollector::new(&cfg);
        c.offer(tb(0.1, 0));
        c.offer(tb(0.2, 1));
        assert_eq!(c.offer(tb(0.3, 2)), Admission::Blocked);
        let r0 = c.seal_next();
        assert_eq!((r0.stats.blocked, r0.stats.sealed), (1, 2));
        let r1 = c.seal_next();
        assert_eq!(r1.stats.admitted, 1);
        assert_eq!(r1.stats.dropped, 0);
        assert_eq!(r1.sealed.bids()[0].bidder, 2);
    }

    #[test]
    fn export_restore_continues_bit_identically() {
        // Sweep policies and snapshot points: after any sealed round, a
        // restored collector must produce exactly the same remaining
        // rounds — sealed sets and stats — as the original continuing
        // uninterrupted. Late/deferred/banked bids exercise every field
        // of the carried-over state.
        let policies = [
            LateBidPolicy::Drop,
            LateBidPolicy::DeferToNext,
            LateBidPolicy::GraceWindow { grace: 0.2 },
        ];
        for policy in policies {
            let config = cfg(0.6, policy);
            for snapshot_after in 1..6usize {
                let mut original = RoundCollector::new(&config);
                let offer_round = |c: &mut RoundCollector, r: usize| {
                    // A mix of on-time, late, and next-round-banked bids.
                    c.offer(tb(r as f64 + 0.2, 0));
                    c.offer(tb(r as f64 + 0.5, 1));
                    c.offer(tb(r as f64 + 0.8, 2)); // late for r
                    c.offer(tb(r as f64 + 1.1, 3)); // banks for r + 1
                };
                for r in 0..snapshot_after {
                    offer_round(&mut original, r);
                    original.seal_next();
                }
                let state = original.export_state();
                let mut restored = RoundCollector::restore(&config, &state);
                assert_eq!(restored.export_state(), state, "round-trip export");
                assert_eq!(restored.next_round(), original.next_round());
                assert_eq!(restored.now(), original.now());
                for r in snapshot_after..snapshot_after + 4 {
                    offer_round(&mut original, r);
                    offer_round(&mut restored, r);
                    let a = original.seal_next();
                    let b = restored.seal_next();
                    assert_eq!(a, b, "policy {policy:?}, snapshot after {snapshot_after}");
                }
                assert_eq!(original.offered(), restored.offered());
                assert_eq!(original.outstanding(), restored.outstanding());
            }
        }
    }

    #[test]
    #[should_panic(expected = "seal boundary")]
    fn export_away_from_a_boundary_panics() {
        let cfg = IngestConfig {
            deadline: 0.5,
            capacity: 1,
            backpressure: Backpressure::Block,
            ..IngestConfig::default()
        };
        let mut c = RoundCollector::new(&cfg);
        c.offer(tb(0.1, 0));
        c.offer(tb(0.2, 1)); // blocked → parked: state not exportable
        let _ = c.export_state();
    }

    /// Property: conservation holds under `Backpressure::Shed` *combined*
    /// with a `GraceWindow` late policy — every seeded arrival is accounted
    /// for as admitted, admitted-late, deferred, dropped, superseded, or
    /// shed, checked after *every* round seal (not just at the end), with
    /// random offsets spanning on-time, in-grace, beyond-grace, and
    /// next-round-banked arrivals (seeded rounds).
    #[test]
    fn stats_conserve_under_shed_plus_grace_every_round() {
        use simrng::{rngs::StdRng, RngExt, SeedableRng};
        for seed in 0..5u64 {
            let cfg = IngestConfig {
                deadline: 0.6,
                late_policy: LateBidPolicy::GraceWindow { grace: 0.2 },
                capacity: 8,
                backpressure: Backpressure::Shed { watermark: 1.0 },
                ..IngestConfig::default()
            };
            let mut c = RoundCollector::new(&cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut offered = 0usize;
            let mut accounted = 0usize;
            let mut shed_total = 0usize;
            for r in 0..30usize {
                let mut batch: Vec<TimedBid> = (0..12usize)
                    .map(|k| {
                        // Offsets across the whole span plus a slice into
                        // the next round: exercises on-time (< 0.6),
                        // in-grace (0.6..0.8), beyond-grace (0.8..1.0),
                        // and early-banked (>= 1.0) classification.
                        tb(r as f64 + rng.random_range(0.0..1.2), k)
                    })
                    .collect();
                batch.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap());
                for arrival in batch {
                    c.offer(arrival);
                    offered += 1;
                }
                let stats = c.seal_next().stats;
                accounted += stats.admitted
                    + stats.admitted_late
                    + stats.deferred_in
                    + stats.dropped
                    + stats.superseded
                    + stats.shed;
                shed_total += stats.shed;
                assert_eq!(stats.deferred_in, 0, "grace policy never defers");
                assert!(stats.buffer_peak <= cfg.capacity);
                assert_eq!(
                    accounted + c.outstanding(),
                    offered,
                    "seed {seed}: conservation broke after round {r}"
                );
            }
            assert_eq!(offered as u64, c.offered());
            assert!(
                shed_total > 0,
                "seed {seed}: capacity 8 < 12/round must shed"
            );
        }
    }

    #[test]
    fn stats_conserve_every_offered_bid() {
        let cfg = IngestConfig {
            deadline: 0.6,
            late_policy: LateBidPolicy::DeferToNext,
            capacity: 8,
            backpressure: Backpressure::Shed { watermark: 1.0 },
            ..IngestConfig::default()
        };
        let mut c = RoundCollector::new(&cfg);
        let mut offered = 0u64;
        let mut rounds = Vec::new();
        for r in 0..20usize {
            for k in 0..12usize {
                let at = r as f64 + (k as f64 + 0.5) / 13.0;
                c.offer(tb(at, k));
                offered += 1;
            }
            rounds.push(c.seal_next().stats);
        }
        let accounted: usize = rounds
            .iter()
            .map(|s| {
                s.admitted + s.admitted_late + s.deferred_in + s.dropped + s.superseded + s.shed
            })
            .sum();
        assert_eq!(offered, c.offered());
        assert_eq!(
            accounted + c.outstanding(),
            offered as usize,
            "ingestion stats must conserve arrivals"
        );
    }
}
