//! The bounded arrival buffer and its backpressure policies.
//!
//! Between two seals, arrivals queue in the collector's event queue; this
//! module is the *admission controller* in front of it. A buffer has a hard
//! `capacity` and one of two overflow behaviours:
//!
//! * [`Backpressure::Block`] — the producer stalls: a blocked arrival is
//!   parked and re-offered at the next seal (when the queue drains).
//! * [`Backpressure::Shed { watermark }`] — load shedding: once occupancy
//!   reaches `watermark · capacity`, new arrivals are dropped on the floor
//!   and counted. Memory stays bounded no matter how fast bids arrive; the
//!   cost is visible in the `shed` statistic instead of in resident set
//!   size.

/// Overflow behaviour of the bounded arrival buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backpressure {
    /// Stall the producer until the buffer drains (lossless, unbounded
    /// delay).
    Block,
    /// Drop arrivals once occupancy reaches `watermark · capacity`
    /// (lossy, bounded delay). `watermark ∈ (0, 1]`.
    Shed {
        /// Fraction of capacity at which shedding starts.
        watermark: f64,
    },
}

/// What happened to an offered arrival at admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Space available: the arrival entered the buffer.
    Stored,
    /// Shed by the watermark policy; the bid is gone.
    Shed,
    /// Buffer full under [`Backpressure::Block`]: the caller must park the
    /// arrival and re-offer it after the next drain.
    Blocked,
}

/// Occupancy accounting for the bounded buffer.
///
/// The buffer does not own the bids (the event queue does); it owns the
/// *count* and the admission decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalBuffer {
    capacity: usize,
    policy: Backpressure,
    /// Refusal threshold, precomputed from `capacity` and `policy` (both
    /// immutable) so the per-arrival hot path is an integer compare.
    threshold: usize,
    occupancy: usize,
    peak: usize,
    shed: u64,
    blocked: u64,
}

impl ArrivalBuffer {
    /// Creates a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or a shed watermark is outside `(0, 1]`.
    pub fn new(capacity: usize, policy: Backpressure) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        if let Backpressure::Shed { watermark } = policy {
            assert!(
                watermark > 0.0 && watermark <= 1.0,
                "shed watermark must be in (0, 1], got {watermark}"
            );
        }
        let threshold = match policy {
            Backpressure::Block => capacity,
            Backpressure::Shed { watermark } => {
                (((capacity as f64) * watermark).floor() as usize).clamp(1, capacity)
            }
        };
        ArrivalBuffer {
            capacity,
            policy,
            threshold,
            occupancy: 0,
            peak: 0,
            shed: 0,
            blocked: 0,
        }
    }

    /// The hard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overflow behaviour.
    pub fn policy(&self) -> Backpressure {
        self.policy
    }

    /// Occupancy at which admission starts refusing arrivals.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Admission control for one arrival: stores it (occupancy + 1) or
    /// refuses per the policy.
    pub fn offer(&mut self) -> Admission {
        if self.occupancy >= self.threshold {
            match self.policy {
                Backpressure::Block => {
                    self.blocked += 1;
                    Admission::Blocked
                }
                Backpressure::Shed { .. } => {
                    self.shed += 1;
                    Admission::Shed
                }
            }
        } else {
            self.occupancy += 1;
            self.peak = self.peak.max(self.occupancy);
            Admission::Stored
        }
    }

    /// Stores an item bypassing admission control — used when a parked
    /// (blocked) arrival re-enters at a seal, the instant the drain frees
    /// its space. Occupancy may transiently exceed the threshold; the peak
    /// statistic records it honestly.
    pub fn force_store(&mut self) {
        self.occupancy += 1;
        self.peak = self.peak.max(self.occupancy);
    }

    /// Marks `n` items as already stored — the snapshot-restore path,
    /// where a rebuilt collector re-enters its queued events without
    /// re-running admission. Peak restarts at the restored occupancy,
    /// exactly where [`ArrivalBuffer::take_peak`] left it at the seal the
    /// snapshot was taken.
    ///
    /// # Panics
    ///
    /// Panics if the buffer has been offered anything already.
    pub fn preload(&mut self, n: usize) {
        assert!(
            self.occupancy == 0 && self.peak == 0,
            "preload only on a fresh buffer"
        );
        self.occupancy = n;
        self.peak = n;
    }

    /// Records `n` items leaving the buffer (a seal drained them).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the current occupancy.
    pub fn drain(&mut self, n: usize) {
        assert!(n <= self.occupancy, "drained {n} of {}", self.occupancy);
        self.occupancy -= n;
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Highest occupancy since the last [`ArrivalBuffer::take_peak`],
    /// resetting the marker to the current occupancy.
    pub fn take_peak(&mut self) -> usize {
        let p = self.peak;
        self.peak = self.occupancy;
        p
    }

    /// Arrivals shed so far (lifetime).
    pub fn total_shed(&self) -> u64 {
        self.shed
    }

    /// Arrivals refused with `Blocked` so far (lifetime). Re-offers that
    /// succeed later do not subtract.
    pub fn total_blocked(&self) -> u64 {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_until_capacity_then_blocks() {
        let mut b = ArrivalBuffer::new(3, Backpressure::Block);
        assert_eq!(b.offer(), Admission::Stored);
        assert_eq!(b.offer(), Admission::Stored);
        assert_eq!(b.offer(), Admission::Stored);
        assert_eq!(b.offer(), Admission::Blocked);
        assert_eq!(b.occupancy(), 3);
        b.drain(2);
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.offer(), Admission::Stored);
        assert_eq!(b.total_blocked(), 1);
        assert_eq!(b.total_shed(), 0);
    }

    #[test]
    fn shed_watermark_kicks_in_early() {
        let mut b = ArrivalBuffer::new(10, Backpressure::Shed { watermark: 0.5 });
        assert_eq!(b.threshold(), 5);
        for _ in 0..5 {
            assert_eq!(b.offer(), Admission::Stored);
        }
        assert_eq!(b.offer(), Admission::Shed);
        assert_eq!(b.offer(), Admission::Shed);
        assert_eq!(b.occupancy(), 5);
        assert_eq!(b.total_shed(), 2);
    }

    #[test]
    fn peak_tracks_and_resets() {
        let mut b = ArrivalBuffer::new(10, Backpressure::Block);
        for _ in 0..4 {
            b.offer();
        }
        b.drain(3);
        assert_eq!(b.take_peak(), 4);
        // After the reset the peak restarts from current occupancy (1).
        b.offer();
        assert_eq!(b.take_peak(), 2);
    }

    #[test]
    fn full_watermark_sheds_only_at_capacity() {
        let mut b = ArrivalBuffer::new(4, Backpressure::Shed { watermark: 1.0 });
        assert_eq!(b.threshold(), 4);
        for _ in 0..4 {
            assert_eq!(b.offer(), Admission::Stored);
        }
        assert_eq!(b.offer(), Admission::Shed);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = ArrivalBuffer::new(0, Backpressure::Block);
    }

    #[test]
    #[should_panic(expected = "watermark must be in (0, 1]")]
    fn rejects_bad_watermark() {
        let _ = ArrivalBuffer::new(8, Backpressure::Shed { watermark: 1.5 });
    }
}
