//! Matrix test: every mechanism × every scenario preset completes a run
//! with the universal invariants intact (IR at reports, consistent ledger,
//! non-negative payments, winners drawn from bidders, determinism).

use sustainable_fl::core::simulation::SimulationResult;
use sustainable_fl::core::{MultiLovm, MultiLovmConfig};
use sustainable_fl::prelude::*;

fn scenarios() -> Vec<Scenario> {
    let shrink = |mut s: Scenario, h: usize| {
        s.total_budget *= h as f64 / s.horizon as f64;
        s.horizon = h;
        s
    };
    vec![
        shrink(Scenario::small(), 80),
        shrink(Scenario::standard(), 80),
        shrink(Scenario::energy_heterogeneous(), 80),
        shrink(Scenario::solar_fleet(), 80),
    ]
}

fn mechanisms(scenario: &Scenario, seed: u64) -> Vec<Box<dyn Mechanism>> {
    let valuation = scenario.valuation;
    vec![
        Box::new(Lovm::new(LovmConfig::for_scenario(scenario, 20.0))),
        Box::new(MultiLovm::new(MultiLovmConfig {
            v: 20.0,
            budget_per_round: scenario.budget_per_round(),
            constraints: vec![sustainable_fl::core::Constraint {
                name: "energy".into(),
                rate: 8.0,
                usage: sustainable_fl::core::ResourceUsage::EnergyAffine {
                    base: 0.2,
                    per_data: 0.004,
                },
            }],
            max_winners: Some(8),
            min_cost_weight: 1.0,
            valuation,
        })),
        Box::new(MyopicVcg::new(valuation, None)),
        Box::new(BudgetSplitGreedy::new(valuation, Some(6))),
        Box::new(ProportionalShare::new(valuation)),
        Box::new(FixedPrice::new(1.2, valuation, None)),
        Box::new(RandomK::new(3, valuation, seed)),
        Box::new(AllAvailable::new(valuation)),
    ]
}

fn check_invariants(result: &SimulationResult, scenario: &Scenario) {
    result
        .ledger
        .check_invariants()
        .unwrap_or_else(|e| panic!("{} / {}: {e}", result.mechanism, scenario.name));
    let n = scenario.population.num_clients;
    for (round, (outcome, bids)) in result
        .outcomes
        .iter()
        .zip(&result.bids_per_round)
        .enumerate()
    {
        let bidders: std::collections::HashSet<usize> = bids.iter().map(|b| b.bidder).collect();
        for w in &outcome.winners {
            assert!(
                bidders.contains(&w.bidder),
                "{} round {round}: winner {} did not bid",
                result.mechanism,
                w.bidder
            );
            assert!(w.bidder < n, "winner id out of range");
            assert!(
                w.payment >= w.cost - 1e-6,
                "{} round {round}: IR violated ({} < {})",
                result.mechanism,
                w.payment,
                w.cost
            );
            assert!(w.payment.is_finite() && w.payment >= 0.0);
            assert!(w.value.is_finite());
        }
        // No duplicate winners within a round.
        let ids = outcome.winner_ids();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(
            ids, dedup,
            "{} round {round}: duplicate winners",
            result.mechanism
        );
    }
}

#[test]
fn all_mechanisms_on_all_scenarios_hold_invariants() {
    for scenario in scenarios() {
        for mech in &mut mechanisms(&scenario, 5) {
            let result = simulate(mech.as_mut(), &scenario, 5);
            assert_eq!(result.outcomes.len(), scenario.horizon);
            check_invariants(&result, &scenario);
        }
    }
}

#[test]
fn all_mechanisms_deterministic_per_seed() {
    let scenario = {
        let mut s = Scenario::small();
        s.horizon = 50;
        s.total_budget = 100.0;
        s
    };
    for (a, b) in mechanisms(&scenario, 9)
        .iter_mut()
        .zip(mechanisms(&scenario, 9).iter_mut())
    {
        let ra = simulate(a.as_mut(), &scenario, 9);
        let rb = simulate(b.as_mut(), &scenario, 9);
        assert_eq!(ra.ledger, rb.ledger, "{} not deterministic", ra.mechanism);
        assert_eq!(ra.outcomes, rb.outcomes);
    }
}

#[test]
fn cost_shader_regret_non_negative_on_all_wdp_combos_vs_brute_force_oracle() {
    // Strategy-regret row for the adversary simulator: a CostShader focal
    // client must never profit from understating cost, under every WDP
    // constraint combo {cardinality cap on/off} × {budget-capped instance
    // on/off}, with subset enumeration (`SolverKind::Exhaustive` +
    // `PaymentStrategy::Naive`) as the brute-force oracle. The budgeted
    // combos use a slack budget: a *binding* cost knapsack makes the
    // feasible set report-dependent, which is outside the DSIC theorem's
    // scope (same regime note as e16 and the full-horizon probe below).
    use simrng::rngs::StdRng;
    use simrng::{RngExt, SeedableRng};
    use sustainable_fl::advsim::{single_round_regret, Strategy};
    use sustainable_fl::auction::{
        AuctionOutcome, Bid, ClientValue, PaymentStrategy, SolverKind, Valuation, VcgAuction,
        VcgConfig,
    };

    let valuation = Valuation::Linear(ClientValue {
        value_per_unit: 1.0,
        base_value: 0.0,
    });
    let slack_budget = 1e3; // far above any subset's total cost below
    let combos: [(&str, Option<usize>, bool); 4] = [
        ("uncapped/unbudgeted", None, false),
        ("capped/unbudgeted", Some(3), false),
        ("uncapped/budgeted", None, true),
        ("capped/budgeted", Some(3), true),
    ];

    let mut rng = StdRng::seed_from_u64(0xC057);
    for case in 0..12u64 {
        let n = rng.random_range(3..=8usize);
        let bids: Vec<Bid> = (0..n)
            .map(|i| {
                Bid::new(
                    i,
                    rng.random_range(0.5..4.0),
                    rng.random_range(1..8usize),
                    rng.random_range(0.5..1.0),
                )
            })
            .collect();
        let focal = case as usize % n;
        for (label, cap, budgeted) in combos {
            let auction = VcgAuction::new(VcgConfig {
                value_weight: 4.0,
                cost_weight: 1.0,
                max_winners: cap,
                ..VcgConfig::default()
            });
            // The production path for this combo (top-K fast path for the
            // unbudgeted rows, exact budget solve for the budgeted ones).
            let prod = |b: &[Bid]| -> AuctionOutcome {
                if budgeted {
                    auction.run_with_budget_strategy_on(
                        b,
                        &valuation,
                        slack_budget,
                        SolverKind::Exact,
                        PaymentStrategy::Incremental,
                        par::Pool::serial(),
                    )
                } else {
                    auction.run(b, &valuation)
                }
            };
            // Brute-force oracle: enumerate every subset, re-solve each
            // pivot from scratch. A slack budget is a no-op constraint, so
            // the same closure is the oracle for all four combos.
            let brute = |b: &[Bid]| -> AuctionOutcome {
                auction.run_with_budget_strategy_on(
                    b,
                    &valuation,
                    slack_budget,
                    SolverKind::Exhaustive,
                    PaymentStrategy::Naive,
                    par::Pool::serial(),
                )
            };
            // Oracle agreement at the truthful profile.
            let fast = prod(&bids);
            let exact = brute(&bids);
            assert_eq!(
                fast.winner_ids(),
                exact.winner_ids(),
                "case {case} {label}: production winners diverge from brute force"
            );
            assert!(
                (fast.total_payment() - exact.total_payment()).abs() <= 1e-9,
                "case {case} {label}: payments diverge from brute force ({} vs {})",
                fast.total_payment(),
                exact.total_payment()
            );
            for factor in [0.25, 0.5, 0.75, 0.9] {
                let shade = Strategy::CostShader { factor };
                for (path, mech) in [
                    ("production", &prod as &dyn Fn(&[Bid]) -> AuctionOutcome),
                    ("brute-force", &brute),
                ] {
                    let regret = single_round_regret(&bids, focal, &shade, case, mech);
                    assert!(
                        regret >= -1e-9,
                        "case {case} {label} ({path}): CostShader{{{factor}}} \
                         profited — regret {regret:+.9} for focal {focal}"
                    );
                }
            }
        }
    }
}

#[test]
fn truthful_mechanisms_resist_full_horizon_misreports_on_energy_scenario() {
    // Long-run probe on a scenario with energy dynamics: misreporting every
    // round must not systematically help under LOVM.
    let mut scenario = Scenario::energy_heterogeneous();
    scenario.horizon = 120;
    scenario.total_budget = 360.0;
    let target = 0usize; // group-U0 client (always energy-available)
    let utility = |factor: f64| -> f64 {
        let mut mech = Lovm::new(LovmConfig::for_scenario(&scenario, 20.0));
        let market = sustainable_fl::core::simulation::Market::new(&scenario, 31);
        let market = if (factor - 1.0).abs() > 1e-12 {
            market.with_misreport(target, factor)
        } else {
            market
        };
        let result =
            sustainable_fl::core::simulation::simulate_market(&mut mech, &scenario, market);
        result
            .ledger
            .accounts()
            .get(&target)
            .map_or(0.0, |a| a.utility())
    };
    let truthful = utility(1.0);
    for factor in [0.6, 1.4, 2.5] {
        let lied = utility(factor);
        assert!(
            lied <= truthful * 1.05 + 1.0,
            "factor {factor}: {lied} vs truthful {truthful}"
        );
    }
}

#[test]
fn payment_strategies_bit_identical_over_rounds() {
    // The whole LOVM round loop — selection, payments, queue update — is
    // bit-identical to re-pricing every round with the naive per-winner
    // re-solve: each round's auction is rebuilt from the mechanism's
    // drift-plus-penalty weights (`V` and `max(Q(t), q_min)`) and run
    // through `run_with_strategy_on(.., Naive, ..)`. Equal outcomes feed
    // equal spends into the queue, so the trajectory is the naive one too.
    use sustainable_fl::auction::{PaymentStrategy, VcgAuction, VcgConfig};

    let config = LovmConfig {
        v: 20.0,
        budget_per_round: 3.0,
        max_winners: Some(3),
        min_cost_weight: 1.0,
        valuation: Valuation::Linear(ClientValue {
            value_per_unit: 0.02,
            base_value: 0.2,
        }),
        ..LovmConfig::default()
    };
    let bids = vec![
        Bid::new(0, 1.0, 300, 0.9),
        Bid::new(1, 2.0, 400, 0.8),
        Bid::new(2, 0.5, 100, 1.0),
        Bid::new(3, 3.0, 500, 0.7),
        Bid::new(4, 1.5, 200, 0.6),
    ];
    let mut lovm = Lovm::new(config);
    for round in 0..30 {
        let naive = VcgAuction::new(VcgConfig {
            value_weight: config.v,
            cost_weight: lovm.queue_backlog().max(config.min_cost_weight),
            max_winners: config.max_winners,
            topology: config.topology,
            ..VcgConfig::default()
        })
        .run_with_strategy_on(
            &bids,
            &config.valuation,
            PaymentStrategy::Naive,
            par::Pool::serial(),
        );
        let info = RoundInfo {
            round,
            horizon: 100,
            total_budget: 300.0,
            spent_so_far: 0.0,
        };
        assert_eq!(
            lovm.select(&info, &bids),
            naive,
            "outcomes diverged at round {round}"
        );
    }
    // The queue must have left the q_min floor, or the cost weight — and
    // with it the pricing — never moved.
    assert!(lovm.peak_backlog() > config.min_cost_weight);
}
