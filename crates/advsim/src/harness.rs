//! The paired-counterfactual replay harness.
//!
//! Each experiment *cell* fixes a trace (workload × seed), a market
//! topology, and an ingestion policy, then replays the trace twice
//! through the identical ingest → seal → VCG path: once with the focal
//! client(s) driven by a [`Strategy`], once with everyone truthful. Both
//! replays share every byte of configuration and every seed, so the only
//! difference between them is the focal deviation — the comparison is a
//! *paired counterfactual*, not two noisy samples.
//!
//! **Regret** is `u_truthful − u_strategy`, where both utilities are
//! quasi-linear in the focal client's *true* cost
//! ([`auction::properties::utility`] against [`Trace::true_cost`]).
//! Positive regret means the deviation lost money relative to honest
//! play; the paper's truthfulness theorem predicts regret ≥ 0 for every
//! unilateral deviation, and exactly 0 for [`Strategy::Truthful`]
//! (bit-identical paired runs). That prediction is what
//! [`gate`] checks and `scripts/ci.sh` enforces.
//!
//! **Focal selection** is deterministic: the median-true-cost bidder (a
//! client that genuinely competes — the cheapest bidder nearly always
//! wins and the dearest nearly always loses, both of which flatten every
//! strategy into a no-op). A [`Strategy::ColludingPair`] adds the
//! same-shard bidder with the closest true cost, so the pair actually
//! co-resides in one shard under `Sharded{k}` topologies.

use crate::strategy::Strategy;
use crate::trace::Trace;
use auction::properties::utility;
use auction::shard::{shard_of, MarketTopology, SHARD_SEED};
use ingest::{IngestConfig, RoundCollector};
use lovm_core::{Lovm, LovmConfig};
use metrics::table::Table;

/// One (strategy × workload × topology × late-policy) experiment cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable workload label (e.g. `steady`, `late-rush`).
    pub workload: String,
    /// Human-readable ingestion-policy label (e.g. `drop@0.75`).
    pub policy: String,
    /// Market topology for the VCG rounds.
    pub topology: MarketTopology,
    /// Ingestion configuration the trace replays through.
    pub ingest: IngestConfig,
}

/// Aggregates of one replay (one arm of a cell).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Replay {
    focal_utility: f64,
    focal_wins: usize,
    focal_sealed: usize,
    focal_offered: usize,
    total_payment: f64,
}

/// The paired result of running one strategy through one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Strategy label ([`Strategy::label`]).
    pub strategy: String,
    /// Workload label from the [`Cell`].
    pub workload: String,
    /// Topology label (`mono` or `shard:k`).
    pub topology: String,
    /// Ingestion-policy label from the [`Cell`].
    pub policy: String,
    /// Focal bidder ids (one, or two for a colluding pair).
    pub focal: Vec<usize>,
    /// Focal utility (true-cost quasi-linear) under the strategy.
    pub utility: f64,
    /// Focal utility in the truthful counterfactual.
    pub truthful_utility: f64,
    /// `truthful_utility − utility`: what deviating cost the focal client.
    pub regret: f64,
    /// Focal round wins under the strategy / truthfully.
    pub wins: usize,
    /// Focal round wins in the truthful counterfactual.
    pub truthful_wins: usize,
    /// Focal bids that reached a sealed round under the strategy.
    pub sealed: usize,
    /// Focal arrivals offered to ingestion under the strategy.
    pub offered: usize,
    /// Market-wide payment total under the strategy.
    pub total_payment: f64,
    /// Market-wide payment delta vs the truthful counterfactual.
    pub payment_delta: f64,
}

impl CellReport {
    /// Focal admission rate under the strategy (sealed / offered; 1.0 for
    /// an empty denominator, e.g. a churner that withheld everything).
    pub fn admission_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.sealed as f64 / self.offered as f64
        }
    }
}

/// A topology's stable table label.
pub fn topology_label(topology: MarketTopology) -> String {
    match topology {
        MarketTopology::Monolithic => "mono".into(),
        MarketTopology::Sharded { count } => format!("shard:{count}"),
    }
}

/// The deterministic focal client: the bidder whose true cost is the
/// median of the population (ties broken toward the lower id by the sort).
///
/// # Panics
///
/// Panics on an empty trace.
pub fn pick_focal(trace: &Trace) -> usize {
    let mut by_cost: Vec<(f64, usize)> = trace
        .bidders()
        .into_iter()
        .map(|b| (trace.true_cost(b), b))
        .collect();
    assert!(
        !by_cost.is_empty(),
        "cannot pick a focal client from an empty trace"
    );
    by_cost.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
    by_cost[by_cost.len() / 2].1
}

/// The focal client's colluding partner: among bidders sharing its shard
/// under `topology` (everyone, when monolithic), the one with the closest
/// true cost — the most natural co-conspirator, since close costs compete
/// for the same marginal slot.
///
/// # Panics
///
/// Panics if the focal client has no shard-mate (population of one).
pub fn pick_partner(trace: &Trace, focal: usize, topology: MarketTopology) -> usize {
    let bidders = trace.bidders();
    let shards = topology.effective_shards(bidders.len());
    let home = shard_of(focal, shards, SHARD_SEED);
    let focal_cost = trace.true_cost(focal);
    bidders
        .into_iter()
        .filter(|&b| b != focal && shard_of(b, shards, SHARD_SEED) == home)
        .min_by(|&a, &b| {
            let da = (trace.true_cost(a) - focal_cost).abs();
            let db = (trace.true_cost(b) - focal_cost).abs();
            da.partial_cmp(&db).expect("finite costs").then(a.cmp(&b))
        })
        .expect("focal client has no shard-mate to collude with")
}

/// Replays `arrivals` through ingest → seal → VCG for `rounds` rounds:
/// [`ingest::drive`] seals the stream, then LOVM clears each sealed round
/// in order. Utilities and wins are charged to the focal set at *true*
/// costs from `trace`.
fn replay(
    trace: &Trace,
    arrivals: &[workload::arrivals::TimedBid],
    focal: &[usize],
    cell: &Cell,
    lovm_config: LovmConfig,
    rounds: usize,
    pool: par::Pool,
) -> Replay {
    let mut lovm = Lovm::new(lovm_config.with_topology(cell.topology));
    let mut run = Replay {
        focal_utility: 0.0,
        focal_wins: 0,
        focal_sealed: 0,
        focal_offered: arrivals
            .iter()
            .filter(|tb| focal.contains(&tb.bid.bidder))
            .count(),
        total_payment: 0.0,
    };
    for collected in ingest::drive(arrivals, rounds, &cell.ingest).rounds {
        let bids = collected.sealed.bids();
        run.focal_sealed += bids.iter().filter(|b| focal.contains(&b.bidder)).count();
        let outcome = lovm.round_on(bids, pool);
        for &f in focal {
            run.focal_utility += utility(&outcome, f, trace.true_cost(f));
            if outcome.is_winner(f) {
                run.focal_wins += 1;
            }
        }
        run.total_payment += outcome.total_payment();
    }
    run
}

/// Runs one strategy through one cell: the strategy arm and its truthful
/// counterfactual (same trace, same seeds, same configuration), paired
/// into a [`CellReport`].
pub fn run_cell(
    trace: &Trace,
    strategy: &Strategy,
    cell: &Cell,
    lovm_config: LovmConfig,
    seed: u64,
    pool: par::Pool,
) -> CellReport {
    let focal_one = pick_focal(trace);
    let focal: Vec<usize> = if strategy.is_pair() {
        let partner = pick_partner(trace, focal_one, cell.topology);
        vec![focal_one, partner]
    } else {
        vec![focal_one]
    };
    let schedule = RoundCollector::new(&cell.ingest).schedule();
    let rounds = trace.rounds();
    let deviant = strategy.apply(trace.arrivals(), &focal, &schedule, seed);
    let arm = replay(trace, &deviant, &focal, cell, lovm_config, rounds, pool);
    let base = replay(
        trace,
        trace.arrivals(),
        &focal,
        cell,
        lovm_config,
        rounds,
        pool,
    );
    CellReport {
        strategy: strategy.label(),
        workload: cell.workload.clone(),
        topology: topology_label(cell.topology),
        policy: cell.policy.clone(),
        focal,
        utility: arm.focal_utility,
        truthful_utility: base.focal_utility,
        regret: base.focal_utility - arm.focal_utility,
        wins: arm.focal_wins,
        truthful_wins: base.focal_wins,
        sealed: arm.focal_sealed,
        offered: arm.focal_offered,
        total_payment: arm.total_payment,
        payment_delta: arm.total_payment - base.total_payment,
    }
}

/// Renders cell reports as the canonical regret table.
pub fn regret_table(reports: &[CellReport]) -> Table {
    let mut table = Table::new(vec![
        "strategy".into(),
        "workload".into(),
        "topology".into(),
        "policy".into(),
        "regret".into(),
        "utility".into(),
        "wins".into(),
        "admit%".into(),
        "pay_delta".into(),
    ]);
    for r in reports {
        table.row(vec![
            r.strategy.clone(),
            r.workload.clone(),
            r.topology.clone(),
            r.policy.clone(),
            format!("{:+.6}", r.regret),
            format!("{:.6}", r.utility),
            format!("{}/{}", r.wins, r.truthful_wins),
            format!("{:.1}", 100.0 * r.admission_rate()),
            format!("{:+.6}", r.payment_delta),
        ]);
    }
    table
}

/// The headline truthfulness gate: every truthful cell's regret must be
/// ≥ −eps (it is bitwise 0 by construction — a violation means the paired
/// replay lost determinism), and every *adversarial* cell's regret must
/// be ≥ −eps (a profitable deviation falsifies the mechanism's
/// truthfulness on the full pipeline).
///
/// Returns `Err` with a human-readable list of violating cells.
pub fn gate(reports: &[CellReport], eps: f64) -> Result<(), String> {
    let violations: Vec<String> = reports
        .iter()
        .filter(|r| r.regret < -eps)
        .map(|r| {
            format!(
                "{} × {} × {} × {}: regret {:+.9}",
                r.strategy, r.workload, r.topology, r.policy, r.regret
            )
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "truthfulness gate: {} cell(s) with regret < -{eps}:\n  {}",
            violations.len(),
            violations.join("\n  ")
        ))
    }
}

/// Single-round regret of a cost-misreport strategy against an arbitrary
/// one-shot mechanism: `u_truthful − u_strategy` at the focal bidder's
/// true cost. Timing strategies are identity here (a one-shot mechanism
/// sees the full bid vector); `Churner` withholds per its seeded draw.
/// Used by the mechanism matrix to check `CostShader` regret against a
/// brute-force oracle.
pub fn single_round_regret(
    bids: &[auction::Bid],
    focal: usize,
    strategy: &Strategy,
    seed: u64,
    mechanism: impl Fn(&[auction::Bid]) -> auction::AuctionOutcome,
) -> f64 {
    let schedule = ingest::RoundSchedule::new(1.0, 0.75, 0.0);
    let arrivals: Vec<workload::arrivals::TimedBid> = bids
        .iter()
        .map(|b| workload::arrivals::TimedBid { at: 0.1, bid: *b })
        .collect();
    let true_cost = bids
        .iter()
        .find(|b| b.bidder == focal)
        .expect("focal bidder present")
        .cost;
    let deviant: Vec<auction::Bid> = strategy
        .apply(&arrivals, &[focal], &schedule, seed)
        .into_iter()
        .map(|tb| tb.bid)
        .collect();
    let u_truthful = utility(&mechanism(bids), focal, true_cost);
    let u_strategy = utility(&mechanism(&deviant), focal, true_cost);
    u_truthful - u_strategy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceWorkload;
    use ingest::LateBidPolicy;

    fn cell(topology: MarketTopology) -> Cell {
        Cell {
            workload: "steady".into(),
            policy: "drop@0.75".into(),
            topology,
            ingest: IngestConfig {
                deadline: 0.75,
                late_policy: LateBidPolicy::Drop,
                ..IngestConfig::default()
            },
        }
    }

    fn lovm_config() -> LovmConfig {
        LovmConfig {
            v: 10.0,
            budget_per_round: 40.0,
            max_winners: Some(8),
            topology: MarketTopology::Monolithic,
            ..LovmConfig::default()
        }
    }

    #[test]
    fn focal_is_the_median_cost_bidder() {
        let trace = Trace::seeded(TraceWorkload::Steady, 9, 2, 11);
        let focal = pick_focal(&trace);
        let mut costs: Vec<f64> = trace
            .bidders()
            .iter()
            .map(|&b| trace.true_cost(b))
            .collect();
        costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(trace.true_cost(focal), costs[4]);
    }

    #[test]
    fn partner_shares_the_focal_shard() {
        let trace = Trace::seeded(TraceWorkload::Steady, 24, 2, 11);
        let topology = MarketTopology::Sharded { count: 8 };
        let focal = pick_focal(&trace);
        let partner = pick_partner(&trace, focal, topology);
        assert_ne!(partner, focal);
        let shards = topology.effective_shards(24);
        assert_eq!(
            shard_of(focal, shards, SHARD_SEED),
            shard_of(partner, shards, SHARD_SEED)
        );
    }

    #[test]
    fn truthful_cell_has_bitwise_zero_regret() {
        let trace = Trace::seeded(TraceWorkload::Steady, 12, 6, 3);
        let report = run_cell(
            &trace,
            &Strategy::Truthful,
            &cell(MarketTopology::Monolithic),
            lovm_config(),
            3,
            par::Pool::serial(),
        );
        assert_eq!(report.regret, 0.0, "paired truthful runs must be identical");
        assert_eq!(report.wins, report.truthful_wins);
        assert_eq!(report.payment_delta, 0.0);
    }

    #[test]
    fn reports_are_pool_invariant() {
        let trace = Trace::seeded(TraceWorkload::LateRush, 12, 6, 5);
        let c = cell(MarketTopology::Sharded { count: 8 });
        let s = Strategy::CostShader { factor: 0.5 };
        let serial = run_cell(&trace, &s, &c, lovm_config(), 5, par::Pool::serial());
        let pooled = run_cell(&trace, &s, &c, lovm_config(), 5, par::Pool::with_threads(4));
        assert_eq!(serial, pooled, "worker pool must not change any bit");
    }

    #[test]
    fn gate_flags_negative_regret_cells() {
        let trace = Trace::seeded(TraceWorkload::Steady, 12, 4, 3);
        let mut report = run_cell(
            &trace,
            &Strategy::Truthful,
            &cell(MarketTopology::Monolithic),
            lovm_config(),
            3,
            par::Pool::serial(),
        );
        assert!(gate(&[report.clone()], 1e-9).is_ok());
        report.regret = -1e-6;
        let err = gate(&[report], 1e-9).unwrap_err();
        assert!(err.contains("truthful"), "{err}");
        assert!(err.contains("regret"), "{err}");
    }

    #[test]
    fn single_round_overbid_regret_is_non_negative() {
        // An always-winning focal bidder's payment is report-invariant
        // while it keeps winning, and overbidding out of the winner set
        // forfeits positive rent — either way regret ≥ 0.
        let bids = vec![
            auction::Bid::new(0, 1.0, 100, 0.9),
            auction::Bid::new(1, 1.2, 120, 0.8),
            auction::Bid::new(2, 2.0, 90, 0.7),
            auction::Bid::new(3, 2.5, 60, 0.95),
        ];
        let mechanism = |profile: &[auction::Bid]| {
            let mut lovm = Lovm::new(lovm_config());
            lovm.round_on(profile, par::Pool::serial())
        };
        for factor in [1.5, 2.0, 4.0] {
            let r = single_round_regret(&bids, 1, &Strategy::OverBidder { factor }, 0, mechanism);
            assert!(r >= -1e-9, "overbid {factor} produced regret {r}");
        }
    }
}
