//! Bid traces: the arrival streams the adversary harness replays.
//!
//! A [`Trace`] is a time-sorted list of [`TimedBid`] arrivals plus the
//! *true* cost of every bidder in it. Traces come from two places:
//!
//! * [`Trace::seeded`] — a synthetic persistent population: every bidder
//!   submits one bid per round with a constant private cost and a seeded
//!   arrival offset shaped by the [`TraceWorkload`];
//! * [`Trace::from_csv`] — a recorded trace (`lovm attack --trace`), one
//!   `at,bidder,cost,data,quality` row per arrival.
//!
//! The CSV parser rejects malformed rows with an error that names the
//! offending field and line — same contract as
//! `ingest::IngestConfig::from_env_values`: a silently mangled trace is
//! worse than a refusal at the door. In particular NaN or negative costs
//! and out-of-order timestamps never reach `auction::Bid`.
//!
//! **True costs.** The trace's costs *are* the true private costs;
//! strategies misreport by rewriting the cost of the focal client's
//! arrivals, while regret accounting always evaluates utilities against
//! [`Trace::true_cost`]. A bidder's true cost is the cost of its first
//! arrival (seeded traces hold it constant per bidder; recorded traces
//! are documented to do the same for any bidder under strategy focus).

use auction::bid::{Bid, BidField};
use ingest::clock::valid_arrival_time;
use simrng::rngs::StdRng;
use simrng::{derive_seed, RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use workload::arrivals::TimedBid;

/// Salt separating the trace generator's RNG stream from every other
/// consumer of a run seed.
const TRACE_SALT: u64 = 0x0AD5_111A_D000_5EED;

/// Shape of the synthetic arrival offsets within each round span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceWorkload {
    /// Offsets uniform over the whole round span.
    Steady,
    /// Offsets biased toward the end of the span (`1 − u²`): most bids
    /// arrive close to the seal, stressing deadlines and late policies.
    LateRush,
}

impl TraceWorkload {
    /// Stable label used in tables and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            TraceWorkload::Steady => "steady",
            TraceWorkload::LateRush => "late-rush",
        }
    }
}

/// A recorded or seeded arrival stream (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    arrivals: Vec<TimedBid>,
    true_costs: BTreeMap<usize, f64>,
}

/// A named-field trace-parse error: which line, which field, what was
/// wrong. Rendered as `trace line N: field `x` …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the CSV input (the header is line 1).
    pub line: usize,
    /// Human-readable description naming the offending field.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// The CSV header every recorded trace must start with.
pub const CSV_HEADER: &str = "at,bidder,cost,data,quality";

impl Trace {
    /// Builds a trace from pre-sorted arrivals.
    ///
    /// # Panics
    ///
    /// Panics if timestamps are not non-decreasing (recorded traces go
    /// through [`Trace::from_csv`], which reports the line instead).
    pub fn new(arrivals: Vec<TimedBid>) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "trace arrivals must be sorted by non-decreasing timestamp"
        );
        let mut true_costs = BTreeMap::new();
        for tb in &arrivals {
            true_costs.entry(tb.bid.bidder).or_insert(tb.bid.cost);
        }
        Trace {
            arrivals,
            true_costs,
        }
    }

    /// A synthetic persistent population: `bidders` clients each submit
    /// one bid per round for `rounds` rounds. Costs (`0.2..3.0`), data
    /// sizes (`50..500`), and qualities (`0.5..1.0`) are drawn once per
    /// bidder and held constant — they are the private types the
    /// mechanism is supposed to elicit truthfully. Arrival offsets are
    /// drawn per `(seed, round)` and shaped by `workload`.
    pub fn seeded(workload: TraceWorkload, bidders: usize, rounds: usize, seed: u64) -> Self {
        assert!(bidders > 0 && rounds > 0, "trace needs bidders and rounds");
        let mut type_rng = StdRng::seed_from_u64(derive_seed(seed ^ TRACE_SALT, 0));
        let types: Vec<Bid> = (0..bidders)
            .map(|b| {
                Bid::new(
                    b,
                    type_rng.random_range(0.2..3.0),
                    type_rng.random_range(50..500usize),
                    type_rng.random_range(0.5..1.0),
                )
            })
            .collect();
        let mut arrivals = Vec::with_capacity(bidders * rounds);
        for round in 0..rounds {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ TRACE_SALT, 1 + round as u64));
            let base = round as f64;
            let below_next = (base + 1.0).next_down();
            let mut batch: Vec<TimedBid> = types
                .iter()
                .map(|bid| {
                    let u = rng.random::<f64>();
                    let offset = match workload {
                        TraceWorkload::Steady => u,
                        TraceWorkload::LateRush => 1.0 - u * u,
                    };
                    TimedBid {
                        at: (base + offset).min(below_next),
                        bid: *bid,
                    }
                })
                .collect();
            batch.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite timestamps"));
            arrivals.extend(batch);
        }
        Trace::new(arrivals)
    }

    /// Parses a recorded `at,bidder,cost,data,quality` CSV trace,
    /// rejecting malformed input with a [`TraceError`] that names the
    /// offending field and line: non-finite or negative costs (NaN
    /// included), qualities outside `[0, 1]`, negative or non-finite
    /// timestamps, and out-of-order timestamps all refuse to parse.
    pub fn from_csv(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| TraceError {
            line: 1,
            message: format!("empty trace; expected header `{CSV_HEADER}`"),
        })?;
        if header.trim() != CSV_HEADER {
            return Err(TraceError {
                line: 1,
                message: format!("header must be `{CSV_HEADER}`, got `{}`", header.trim()),
            });
        }
        let mut arrivals: Vec<TimedBid> = Vec::new();
        let mut last_at = f64::NEG_INFINITY;
        for (idx, raw) in lines {
            let line = idx + 1; // enumerate is 0-based, humans count from 1
            if raw.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = raw.split(',').map(str::trim).collect();
            if fields.len() != 5 {
                return Err(TraceError {
                    line,
                    message: format!("expected 5 fields `{CSV_HEADER}`, got {}", fields.len()),
                });
            }
            let named = |field: &str, raw: &str, why: &str| TraceError {
                line,
                message: format!("field `{field}` must be {why}, got `{raw}`"),
            };
            let at = fields[0]
                .parse::<f64>()
                .ok()
                .filter(|&a| valid_arrival_time(a))
                .ok_or_else(|| named("at", fields[0], "a finite timestamp >= 0"))?;
            if at < last_at {
                return Err(TraceError {
                    line,
                    message: format!("field `at` must be non-decreasing, got {at} after {last_at}"),
                });
            }
            last_at = at;
            let bidder = fields[1]
                .parse::<usize>()
                .map_err(|_| named("bidder", fields[1], "a non-negative integer id"))?;
            let data = fields[3]
                .parse::<usize>()
                .map_err(|_| named("data", fields[3], "a non-negative integer size"))?;
            // An unparseable number is out of domain too: NaN fails both.
            let cost = fields[2].parse::<f64>().unwrap_or(f64::NAN);
            let quality = fields[4].parse::<f64>().unwrap_or(f64::NAN);
            let bid = Bid::try_new(bidder, cost, data, quality).map_err(|field| match field {
                BidField::Cost => named("cost", fields[2], "a finite number >= 0 (NaN rejected)"),
                BidField::Quality => named("quality", fields[4], "a number in [0, 1]"),
            })?;
            arrivals.push(TimedBid { at, bid });
        }
        Ok(Trace::new(arrivals))
    }

    /// The time-sorted arrivals.
    pub fn arrivals(&self) -> &[TimedBid] {
        &self.arrivals
    }

    /// Number of full round spans the trace covers (ceil of the last
    /// timestamp), i.e. how many rounds a replay should seal.
    pub fn rounds(&self) -> usize {
        self.arrivals
            .last()
            .map_or(0, |tb| tb.at.floor() as usize + 1)
    }

    /// Distinct bidder ids, ascending.
    pub fn bidders(&self) -> Vec<usize> {
        self.true_costs.keys().copied().collect()
    }

    /// The true private cost of `bidder` (its first arrival's cost).
    ///
    /// # Panics
    ///
    /// Panics if the bidder never appears in the trace.
    pub fn true_cost(&self, bidder: usize) -> f64 {
        *self
            .true_costs
            .get(&bidder)
            .unwrap_or_else(|| panic!("bidder {bidder} not in trace"))
    }

    /// Arrivals of one bidder.
    pub fn arrivals_of(&self, bidder: usize) -> usize {
        self.arrivals
            .iter()
            .filter(|tb| tb.bid.bidder == bidder)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_traces_are_deterministic_and_sorted() {
        let a = Trace::seeded(TraceWorkload::Steady, 6, 5, 42);
        let b = Trace::seeded(TraceWorkload::Steady, 6, 5, 42);
        assert_eq!(a, b);
        assert_eq!(a.arrivals().len(), 30);
        assert_eq!(a.rounds(), 5);
        assert!(a.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
        let c = Trace::seeded(TraceWorkload::Steady, 6, 5, 43);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn seeded_costs_are_constant_per_bidder() {
        let t = Trace::seeded(TraceWorkload::LateRush, 4, 8, 7);
        for b in t.bidders() {
            let costs: Vec<f64> = t
                .arrivals()
                .iter()
                .filter(|tb| tb.bid.bidder == b)
                .map(|tb| tb.bid.cost)
                .collect();
            assert_eq!(costs.len(), 8);
            assert!(costs.iter().all(|c| *c == t.true_cost(b)));
        }
    }

    #[test]
    fn late_rush_skews_offsets_late() {
        let steady = Trace::seeded(TraceWorkload::Steady, 20, 20, 3);
        let rush = Trace::seeded(TraceWorkload::LateRush, 20, 20, 3);
        let mean_offset = |t: &Trace| {
            t.arrivals().iter().map(|tb| tb.at.fract()).sum::<f64>() / t.arrivals().len() as f64
        };
        assert!(mean_offset(&rush) > mean_offset(&steady) + 0.1);
    }

    #[test]
    fn csv_round_trips_a_valid_trace() {
        let text = "at,bidder,cost,data,quality\n\
                    0.1,0,1.5,100,0.9\n\
                    0.4,1,2.0,200,0.8\n\
                    \n\
                    1.2,0,1.5,100,0.9\n";
        let t = Trace::from_csv(text).expect("valid trace");
        assert_eq!(t.arrivals().len(), 3);
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.bidders(), vec![0, 1]);
        assert_eq!(t.true_cost(1), 2.0);
    }

    /// Satellite contract: NaN/negative costs and out-of-order timestamps
    /// are refused with an error naming the field and line — the style of
    /// `IngestConfig::from_env_values`, but as a `Result` because trace
    /// files are user input, not operator configuration.
    #[test]
    fn csv_rejects_bad_fields_with_named_errors() {
        let parse = |rows: &str| Trace::from_csv(&format!("{CSV_HEADER}\n{rows}")).unwrap_err();

        let e = parse("0.1,0,NaN,100,0.9");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("`cost`"), "{e}");
        assert!(e.to_string().contains("trace line 2"), "{e}");

        let e = parse("0.1,0,-1.0,100,0.9");
        assert!(e.message.contains("`cost`"), "{e}");
        let e = parse("0.1,0,inf,100,0.9");
        assert!(e.message.contains("`cost`"), "{e}");

        let e = parse("0.1,0,1.0,100,0.9\n0.3,1,1.0,100,0.9\n0.2,2,1.0,100,0.9");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("`at`"), "{e}");
        assert!(e.message.contains("non-decreasing"), "{e}");

        let e = parse("-0.5,0,1.0,100,0.9");
        assert!(e.message.contains("`at`"), "{e}");
        let e = parse("0.1,zero,1.0,100,0.9");
        assert!(e.message.contains("`bidder`"), "{e}");
        let e = parse("0.1,0,1.0,many,0.9");
        assert!(e.message.contains("`data`"), "{e}");
        let e = parse("0.1,0,1.0,100,1.5");
        assert!(e.message.contains("`quality`"), "{e}");

        let e = parse("0.1,0,1.0,100");
        assert!(e.message.contains("expected 5 fields"), "{e}");

        let e = Trace::from_csv("when,who,price\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains(CSV_HEADER), "{e}");
        let e = Trace::from_csv("").unwrap_err();
        assert!(e.message.contains("empty trace"), "{e}");
    }
}
