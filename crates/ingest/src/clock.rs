//! Virtual time: the monotone clock and the round/deadline schedule.
//!
//! All streaming simulation runs on a continuous virtual clock measured in
//! *rounds*: round `r` spans `[r·len, (r+1)·len)` with `len =`
//! [`RoundSchedule::round_len`]. The schedule answers the three questions
//! the collector asks about any timestamp: which round span does it fall
//! in, did it beat that round's deadline, and (under a grace-window
//! policy) did it at least land inside the grace extension.

/// Whether `t` is a valid arrival instant: finite and `>= 0`, the domain
/// of [`RoundSchedule::span_of`]. Every input boundary checks it.
pub fn valid_arrival_time(t: f64) -> bool {
    t.is_finite() && t >= 0.0
}

/// A monotone virtual clock.
///
/// Purely bookkeeping — time only advances when the ingestion loop
/// processes a seal — but centralizing it gives every component the same
/// notion of "now" and catches time-travel bugs early.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock { now: 0.0 }
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is non-finite or would move time backwards.
    pub fn advance_to(&mut self, t: f64) {
        assert!(
            t.is_finite() && t >= self.now,
            "virtual clock cannot move from {} to {t}",
            self.now
        );
        self.now = t;
    }
}

/// The round/deadline geometry shared by the collector and its callers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSchedule {
    round_len: f64,
    deadline: f64,
    grace: f64,
}

impl RoundSchedule {
    /// Builds a schedule. `deadline` and `grace` are fractions of
    /// `round_len`; the round seals at `deadline + grace` into its span.
    ///
    /// # Panics
    ///
    /// Panics unless `round_len > 0`, `0 < deadline ≤ 1`, `grace ≥ 0`, and
    /// `deadline + grace ≤ 1` (a round must seal before the next one
    /// would).
    pub fn new(round_len: f64, deadline: f64, grace: f64) -> Self {
        assert!(
            round_len.is_finite() && round_len > 0.0,
            "round_len must be positive"
        );
        assert!(
            deadline > 0.0 && deadline <= 1.0,
            "deadline must be in (0, 1], got {deadline}"
        );
        assert!(grace >= 0.0 && grace.is_finite(), "grace must be >= 0");
        assert!(
            deadline + grace <= 1.0,
            "deadline {deadline} + grace {grace} must not exceed the round"
        );
        RoundSchedule {
            round_len,
            deadline,
            grace,
        }
    }

    /// Length of one round in virtual time.
    pub fn round_len(&self) -> f64 {
        self.round_len
    }

    /// Deadline fraction of the round.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// Grace fraction (0 unless the late policy is a grace window).
    pub fn grace(&self) -> f64 {
        self.grace
    }

    /// The instant round `round` seals: `(round + deadline + grace)·len`.
    pub fn seal_time(&self, round: usize) -> f64 {
        (round as f64 + self.deadline + self.grace) * self.round_len
    }

    /// The round span a timestamp falls into (spans are right-open, so a
    /// timestamp exactly on a boundary belongs to the *next* round).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite timestamps.
    pub fn span_of(&self, t: f64) -> usize {
        assert!(valid_arrival_time(t), "timestamp {t} out of domain");
        (t / self.round_len) as usize
    }

    /// Offset of a timestamp within its round span, in `[0, round_len)`.
    pub fn offset_of(&self, t: f64) -> f64 {
        t - self.span_of(t) as f64 * self.round_len
    }

    /// Did this arrival beat its round's deadline?
    pub fn on_time(&self, t: f64) -> bool {
        self.offset_of(t) <= self.deadline * self.round_len
    }

    /// Did this arrival miss the deadline but land inside the grace
    /// window? (Always false when `grace == 0`.)
    pub fn in_grace(&self, t: f64) -> bool {
        let offset = self.offset_of(t);
        offset > self.deadline * self.round_len
            && offset <= (self.deadline + self.grace) * self.round_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance_to(1.5);
        c.advance_to(1.5); // staying put is fine
        c.advance_to(2.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn clock_rejects_time_travel() {
        let mut c = VirtualClock::new();
        c.advance_to(3.0);
        c.advance_to(2.0);
    }

    #[test]
    fn arrival_time_domain() {
        for t in [0.0, -0.0, 1e-300, 3.5, 1e300] {
            assert!(valid_arrival_time(t), "{t}");
        }
        for t in [-1e-9, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!valid_arrival_time(t), "{t}");
        }
    }

    #[test]
    fn schedule_geometry() {
        let s = RoundSchedule::new(1.0, 0.6, 0.2);
        assert!((s.seal_time(0) - 0.8).abs() < 1e-12);
        assert!((s.seal_time(3) - 3.8).abs() < 1e-12);
        assert_eq!(s.span_of(2.99), 2);
        assert_eq!(s.span_of(3.0), 3); // right-open spans
        assert!((s.offset_of(2.75) - 0.75).abs() < 1e-12);
        // Comparisons stay clear of the deadline/grace boundaries: exact
        // boundary behaviour is float-representation-dependent and no
        // arrival process produces exact boundary instants.
        assert!(s.on_time(2.59));
        assert!(s.on_time(2.0));
        assert!(!s.on_time(2.61));
        assert!(s.in_grace(2.7));
        assert!(s.in_grace(2.79));
        assert!(!s.in_grace(2.81));
        assert!(!s.in_grace(2.5));
    }

    #[test]
    fn full_deadline_admits_the_whole_span() {
        let s = RoundSchedule::new(1.0, 1.0, 0.0);
        assert!(s.on_time(4.999_999));
        assert!(s.on_time(5.0)); // boundary belongs to round 5, on time there
        assert_eq!(s.seal_time(4), 5.0);
    }

    #[test]
    fn scaled_round_len() {
        let s = RoundSchedule::new(4.0, 0.5, 0.0);
        assert_eq!(s.seal_time(2), 10.0);
        assert_eq!(s.span_of(9.9), 2);
        assert!(s.on_time(9.9));
        assert!(!s.on_time(10.5));
    }

    #[test]
    #[should_panic(expected = "must not exceed the round")]
    fn rejects_overlong_grace() {
        let _ = RoundSchedule::new(1.0, 0.9, 0.2);
    }

    #[test]
    #[should_panic(expected = "deadline must be in (0, 1]")]
    fn rejects_zero_deadline() {
        let _ = RoundSchedule::new(1.0, 0.0, 0.0);
    }
}
