//! Determinism suite for the parallel execution layer.
//!
//! Every path wired onto `crates/par` must produce *bit-identical* output
//! at any worker count: each parallel task is a pure function of its input,
//! results are collected in input index order, and every cross-task float
//! reduction happens in that fixed order. These tests pin the contract for
//! the three wired layers — VCG leave-one-out payments, the federated
//! training round, and the multi-seed simulation sweep — by running each
//! serially and on a 4-worker pool across 3 seeds and comparing outputs
//! with exact (`==`) float equality.
//!
//! The 4-worker runs really do cross threads (the pool spawns workers
//! whenever `threads > 1`), so this holds on single-core machines too:
//! determinism comes from the collection order, not from scheduling luck.

use bench::random_bids;
use par::Pool;

const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];

fn pools() -> (Pool, Pool) {
    (Pool::serial(), Pool::with_threads(4))
}

/// Exact float equality on award lists — `assert_eq!` on the outcome would
/// also work (`AuctionOutcome: PartialEq`), but spelling out the bit
/// comparison makes the guarantee this suite enforces unmistakable.
fn assert_outcomes_bit_identical(
    a: &auction::outcome::AuctionOutcome,
    b: &auction::outcome::AuctionOutcome,
    context: &str,
) {
    assert_eq!(
        a.virtual_welfare.to_bits(),
        b.virtual_welfare.to_bits(),
        "{context}: welfare differs"
    );
    assert_eq!(a.winners.len(), b.winners.len(), "{context}: winner count");
    for (x, y) in a.winners.iter().zip(&b.winners) {
        assert_eq!(x.bidder, y.bidder, "{context}: winner set");
        assert_eq!(
            x.payment.to_bits(),
            y.payment.to_bits(),
            "{context}: payment of bidder {}",
            x.bidder
        );
        assert_eq!(x.value.to_bits(), y.value.to_bits(), "{context}: value");
        assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{context}: cost");
    }
}

/// VCG with budgeted leave-one-out pivots: the knapsack dispatch (n > 25)
/// and the exhaustive dispatch (n ≤ 25) both produce identical payments on
/// 1 worker and 4 workers.
#[test]
fn vcg_payments_parallel_is_bit_identical() {
    use auction::vcg::{VcgAuction, VcgConfig};
    use auction::wdp::SolverKind;
    let valuation = auction::Valuation::default();
    let (serial, parallel) = pools();
    for &seed in &SEEDS {
        for n in [16usize, 40] {
            let bids = random_bids(n, seed);
            let auction = VcgAuction::new(VcgConfig {
                value_weight: 50.0,
                cost_weight: 5.0,
                max_winners: None,
                ..VcgConfig::default()
            });
            let budget = 0.4 * bids.iter().map(|b| b.cost).sum::<f64>();
            let a =
                auction.run_with_budget_on(&bids, &valuation, budget, SolverKind::Exact, serial);
            let b =
                auction.run_with_budget_on(&bids, &valuation, budget, SolverKind::Exact, parallel);
            assert!(
                !a.winners.is_empty(),
                "degenerate instance, seed {seed} n {n}"
            );
            assert_outcomes_bit_identical(&a, &b, &format!("vcg seed {seed} n {n}"));
        }
    }
}

/// The sharded pipeline nests two fan-out levels (shards × pivot merges)
/// on a split pool: budgeted sharded rounds must still be bit-identical on
/// 1 worker and 4 workers.
#[test]
fn sharded_rounds_parallel_is_bit_identical() {
    use auction::shard::MarketTopology;
    use auction::vcg::{VcgAuction, VcgConfig};
    use auction::wdp::SolverKind;
    let valuation = auction::Valuation::default();
    let (serial, parallel) = pools();
    for &seed in &SEEDS {
        let bids = random_bids(600, seed);
        let auction = VcgAuction::new(VcgConfig {
            value_weight: 50.0,
            cost_weight: 5.0,
            topology: MarketTopology::Sharded { count: 8 },
            ..VcgConfig::default()
        });
        let budget = 0.03 * bids.iter().map(|b| b.cost).sum::<f64>();
        let kind = SolverKind::Knapsack { grid: 512 };
        let a = auction.run_with_budget_on(&bids, &valuation, budget, kind, serial);
        let b = auction.run_with_budget_on(&bids, &valuation, budget, kind, parallel);
        assert!(
            !a.winners.is_empty(),
            "degenerate sharded instance, seed {seed}"
        );
        assert_outcomes_bit_identical(&a, &b, &format!("sharded vcg seed {seed}"));
    }
}

fn fl_setup(seed: u64) -> fedsim::training::FederatedRun<fedsim::model::LogisticRegression> {
    use fedsim::data::partition::{partition, PartitionStrategy};
    use fedsim::data::synth::{gaussian_blobs, BlobSpec};
    use fedsim::training::RunConfig;
    let ds = gaussian_blobs(&BlobSpec::new(3, 6, 80), seed);
    let parts = partition(&ds, 8, PartitionStrategy::Iid, seed);
    let model = fedsim::model::LogisticRegression::new(6, 3);
    let config = RunConfig {
        local: fedsim::client::LocalTrainerConfig {
            local_epochs: 2,
            batch_size: 16,
            ..fedsim::client::LocalTrainerConfig::default()
        },
        seed,
    };
    fedsim::training::FederatedRun::new(model, parts, ds, config)
}

/// A federated round trains the selected clients in parallel and aggregates
/// in participant order: the global model after several rounds is
/// bit-identical on 1 worker and 4 workers.
#[test]
fn fl_round_parallel_is_bit_identical() {
    use fedsim::model::Model;
    let (serial, parallel) = pools();
    for &seed in &SEEDS {
        let mut a = fl_setup(seed);
        let mut b = fl_setup(seed);
        for round in 0..3 {
            let participants: Vec<usize> = (0..8).filter(|c| (c + round) % 2 == 0).collect();
            let ra = a.round_on(&participants, serial);
            let rb = b.round_on(&participants, parallel);
            assert_eq!(ra, rb, "round report diverged, seed {seed} round {round}");
        }
        let pa = a.model().params();
        let pb = b.model().params();
        assert!(
            pa.iter().any(|&w| w != 0.0),
            "model never trained, seed {seed}"
        );
        assert_eq!(
            pa.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            pb.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            "global model diverged, seed {seed}"
        );
    }
}

/// Helper comparing two streamed runs bit for bit: outcomes (winners,
/// payments, welfares), queue trajectory, and ingestion stats.
fn assert_streams_bit_identical(
    a: &lovm_core::streaming::StreamResult,
    b: &lovm_core::streaming::StreamResult,
    context: &str,
) {
    assert_eq!(
        a.result.outcomes.len(),
        b.result.outcomes.len(),
        "{context}: round count"
    );
    for (round, (oa, ob)) in a.result.outcomes.iter().zip(&b.result.outcomes).enumerate() {
        assert_outcomes_bit_identical(oa, ob, &format!("{context} round {round}"));
    }
    let qa = a.result.series.get("backlog").expect("backlog recorded");
    let qb = b.result.series.get("backlog").expect("backlog recorded");
    assert_eq!(
        qa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        qb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{context}: queue trajectory"
    );
    assert_eq!(a.ingest, b.ingest, "{context}: ingestion stats");
    assert_eq!(a.totals, b.totals, "{context}: ingestion totals");
    assert_eq!(a.result.ledger, b.result.ledger, "{context}: ledger");
}

/// The streaming entry point in virtual time: a seeded arrival stream
/// through `run_stream_on` is bit-identical on a serial pool and a
/// 4-worker pool — payments, welfares, queue trajectory, and the
/// per-round ingestion stats.
#[test]
fn streamed_rounds_parallel_is_bit_identical() {
    use ingest::{IngestConfig, LateBidPolicy};
    use lovm_core::lovm::{Lovm, LovmConfig};
    use workload::Scenario;
    let scenario = Scenario::small();
    let cfg = IngestConfig {
        deadline: 0.7,
        late_policy: LateBidPolicy::DeferToNext,
        ..IngestConfig::default()
    };
    let (serial, parallel) = pools();
    for &seed in &SEEDS {
        let mut ma = Lovm::new(LovmConfig::for_scenario(&scenario, 20.0));
        let mut mb = Lovm::new(LovmConfig::for_scenario(&scenario, 20.0));
        let a = ma.run_stream_on(&scenario, seed, &cfg, serial);
        let b = mb.run_stream_on(&scenario, seed, &cfg, parallel);
        assert!(
            a.result.ledger.total_payment() > 0.0,
            "degenerate stream, seed {seed}"
        );
        assert_streams_bit_identical(&a, &b, &format!("stream seed {seed}"));
    }
}

/// Sharding the streamed round loop cannot change an output bit either:
/// LOVM rounds are top-K winner determinations, where the champion
/// reconciliation is exact at any shard count.
#[test]
fn streamed_rounds_sharded_is_bit_identical() {
    use auction::shard::MarketTopology;
    use ingest::{IngestConfig, LateBidPolicy};
    use lovm_core::lovm::{Lovm, LovmConfig};
    use workload::Scenario;
    let scenario = Scenario::small();
    let cfg = IngestConfig {
        deadline: 0.6,
        late_policy: LateBidPolicy::GraceWindow { grace: 0.2 },
        ..IngestConfig::default()
    };
    let (serial, parallel) = pools();
    for &seed in &SEEDS {
        let base = LovmConfig::for_scenario(&scenario, 20.0);
        let mut mono = Lovm::new(base.with_topology(MarketTopology::Sharded { count: 1 }));
        let mut sharded = Lovm::new(base.with_topology(MarketTopology::Sharded { count: 8 }));
        let a = mono.run_stream_on(&scenario, seed, &cfg, serial);
        let b = sharded.run_stream_on(&scenario, seed, &cfg, parallel);
        assert_streams_bit_identical(&a, &b, &format!("sharded stream seed {seed}"));
    }
}

/// With a deadline admitting every arrival, the streamed loop reproduces
/// the batch `Lovm` round loop bit-exactly: same sealed bid vectors, same
/// outcomes, same queue trajectory, same ledger.
#[test]
fn streamed_full_deadline_reproduces_batch_rounds() {
    use ingest::IngestConfig;
    use lovm_core::lovm::{Lovm, LovmConfig};
    use lovm_core::simulate;
    use workload::Scenario;
    let scenario = Scenario::small();
    let (serial, _) = pools();
    for &seed in &SEEDS {
        let mut batch_mech = Lovm::new(LovmConfig::for_scenario(&scenario, 20.0));
        let batch = simulate(&mut batch_mech, &scenario, seed);
        let mut stream_mech = Lovm::new(LovmConfig::for_scenario(&scenario, 20.0));
        let streamed = stream_mech.run_stream_on(&scenario, seed, &IngestConfig::default(), serial);
        assert_eq!(
            batch.bids_per_round, streamed.result.bids_per_round,
            "sealed rounds diverged from batch bid vectors, seed {seed}"
        );
        for (round, (oa, ob)) in batch
            .outcomes
            .iter()
            .zip(&streamed.result.outcomes)
            .enumerate()
        {
            assert_outcomes_bit_identical(
                oa,
                ob,
                &format!("batch-vs-stream seed {seed} round {round}"),
            );
        }
        let qa = batch.series.get("backlog").unwrap();
        let qb = streamed.result.series.get("backlog").unwrap();
        assert_eq!(
            qa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            qb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "queue trajectory diverged from batch, seed {seed}"
        );
        assert_eq!(batch.ledger, streamed.result.ledger, "seed {seed}");
    }
}

/// A multi-seed scenario sweep fans independent simulations across workers:
/// ledgers, outcomes, and welfare trajectories are bit-identical on 1
/// worker and 4 workers, in seed order.
#[test]
fn simulation_sweep_parallel_is_bit_identical() {
    use lovm_core::lovm::{Lovm, LovmConfig};
    use lovm_core::simulate_seeds_on;
    use workload::Scenario;
    let scenario = Scenario::small();
    let (serial, parallel) = pools();
    let factory = || -> Box<dyn lovm_core::Mechanism> {
        Box::new(Lovm::new(LovmConfig::for_scenario(
            &Scenario::small(),
            20.0,
        )))
    };
    let a = simulate_seeds_on(factory, &scenario, &SEEDS, serial);
    let b = simulate_seeds_on(factory, &scenario, &SEEDS, parallel);
    assert_eq!(a.len(), SEEDS.len());
    for ((ra, rb), &seed) in a.iter().zip(&b).zip(&SEEDS) {
        assert_eq!(ra.ledger, rb.ledger, "ledger diverged, seed {seed}");
        assert_eq!(ra.outcomes, rb.outcomes, "outcomes diverged, seed {seed}");
        assert_eq!(
            ra.bids_per_round, rb.bids_per_round,
            "bid streams diverged, seed {seed}"
        );
        let wa = ra.cumulative_welfare();
        let wb = rb.cumulative_welfare();
        assert_eq!(
            wa.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            wb.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
            "welfare trajectory diverged, seed {seed}"
        );
        assert!(
            ra.ledger.total_payment() > 0.0,
            "degenerate run, seed {seed}"
        );
    }
    // Sweep results must also arrive in seed order, not completion order:
    // distinct seeds produce distinct bid streams.
    assert_ne!(a[0].bids_per_round, a[1].bids_per_round);
}
