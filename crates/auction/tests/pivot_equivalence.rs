//! Differential suite for the leave-one-out payment engines.
//!
//! Three implementations of `W*₋ᵢ` are held against each other across all
//! four constraint combinations (unconstrained / cardinality K / budget /
//! K + budget) on seeded random instances:
//!
//! * the **incremental** engine (`PaymentStrategy::Incremental`) — the
//!   production path,
//! * the **naive** per-winner re-solve (`PaymentStrategy::Naive`) — the
//!   reference the incremental engine must match *bit for bit*, welfares
//!   and payments alike,
//! * an independent **brute-force oracle** (subset enumeration, shares no
//!   code with `auction`) — matched within float tolerance wherever the
//!   underlying solver is exact, so the two engines cannot drift together.
//!
//! Weights and costs are drawn from continuous ranges, so distinct subsets
//! never tie in welfare and each instance's optimal selection is unique —
//! exactly the regime the bit-identity contract is defined over.

use auction::bid::Bid;
use auction::pivots::{leave_one_out_welfares_on, PaymentStrategy};
use auction::valuation::{ClientValue, Valuation};
use auction::vcg::{VcgAuction, VcgConfig};
use auction::wdp::{solve, SolverKind, WdpInstance, WdpItem};
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

fn random_items(rng: &mut StdRng, n: usize) -> Vec<WdpItem> {
    (0..n)
        .map(|i| WdpItem {
            bidder: i,
            weight: rng.random_range(-3.0..9.0),
            cost: rng.random_range(0.01..4.0),
        })
        .collect()
}

/// Independent oracle: best objective over all subsets, constraints applied
/// from the problem statement.
fn oracle_best(items: &[WdpItem], max_winners: Option<usize>, budget: Option<f64>) -> f64 {
    let n = items.len();
    assert!(n <= 14, "oracle limited to 14 items");
    let mut best = 0.0f64;
    for mask in 0u32..(1u32 << n) {
        if let Some(k) = max_winners {
            if mask.count_ones() as usize > k {
                continue;
            }
        }
        let (mut cost, mut obj) = (0.0, 0.0);
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cost += it.cost;
                obj += it.weight;
            }
        }
        if let Some(b) = budget {
            if cost > b + 1e-9 {
                continue;
            }
        }
        if obj > best {
            best = obj;
        }
    }
    best
}

fn oracle_loo(items: &[WdpItem], target: usize, k: Option<usize>, b: Option<f64>) -> f64 {
    let reduced: Vec<WdpItem> = items
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != target)
        .map(|(_, &it)| it)
        .collect();
    oracle_best(&reduced, k, b)
}

/// Runs both engines on every selected winner of `inst` and asserts
/// bit-identical welfare vectors; returns them for further checks.
fn assert_engines_bit_identical(
    inst: &WdpInstance,
    kind: SolverKind,
    context: &str,
) -> (Vec<usize>, Vec<f64>) {
    let sol = solve(inst, kind);
    let pool = par::Pool::serial();
    let naive = leave_one_out_welfares_on(inst, &sol.selected, kind, PaymentStrategy::Naive, pool);
    let incremental = leave_one_out_welfares_on(
        inst,
        &sol.selected,
        kind,
        PaymentStrategy::Incremental,
        pool,
    );
    assert_eq!(naive.len(), incremental.len(), "{context}: length");
    for (w, (ni, ii)) in sol.selected.iter().zip(naive.iter().zip(&incremental)) {
        assert_eq!(
            ni.to_bits(),
            ii.to_bits(),
            "{context}: W*₋ᵢ for item {w} — naive {ni} vs incremental {ii}"
        );
    }
    (sol.selected, naive)
}

fn build(items: Vec<WdpItem>, k: Option<usize>, b: Option<f64>) -> WdpInstance {
    let mut inst = WdpInstance::new(items);
    if let Some(k) = k {
        inst = inst.with_max_winners(k);
    }
    if let Some(b) = b {
        inst = inst.with_budget(b);
    }
    inst
}

/// No-budget combos (unconstrained and top-K) under the exact dispatch:
/// 80 instances spanning n = 2..50.
#[test]
fn topk_combos_bit_identical_and_oracle_checked() {
    let mut rng = StdRng::seed_from_u64(0x71C0_0001);
    let mut checked = 0usize;
    for round in 0..40 {
        let n = rng.random_range(2..50usize);
        let items = random_items(&mut rng, n);
        let k = rng.random_range(1..=n);
        for combo in [None, Some(k)] {
            let inst = build(items.clone(), combo, None);
            let (selected, welfares) = assert_engines_bit_identical(
                &inst,
                SolverKind::Exact,
                &format!("topk round {round} n {n} k {combo:?}"),
            );
            // Oracle cross-check on instances small enough to enumerate.
            if n <= 12 {
                for (&t, &w) in selected.iter().zip(&welfares) {
                    let expect = oracle_loo(&items, t, combo, None);
                    assert!(
                        (w - expect).abs() < 1e-9,
                        "oracle disagrees: round {round} target {t}: {w} vs {expect}"
                    );
                }
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 80);
}

/// Budgeted combos under the exact (exhaustive-dispatch) solver at oracle
/// sizes: the incremental strategy must track the naive one bit for bit
/// through its fallback, and both must track the independent oracle.
#[test]
fn small_budgeted_combos_bit_identical_and_oracle_checked() {
    let mut rng = StdRng::seed_from_u64(0x71C0_0002);
    let mut checked = 0usize;
    for round in 0..30 {
        let n = rng.random_range(2..=12usize);
        let items = random_items(&mut rng, n);
        let k = rng.random_range(1..=n);
        let budget = rng.random_range(0.2..10.0);
        for combo in [(None, Some(budget)), (Some(k), Some(budget))] {
            let inst = build(items.clone(), combo.0, combo.1);
            let (selected, welfares) = assert_engines_bit_identical(
                &inst,
                SolverKind::Exact,
                &format!("small budget round {round} n {n} combo {combo:?}"),
            );
            for (&t, &w) in selected.iter().zip(&welfares) {
                let expect = oracle_loo(&items, t, combo.0, combo.1);
                assert!(
                    (w - expect).abs() < 1e-9,
                    "oracle disagrees: round {round} target {t}: {w} vs {expect}"
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 60);
}

/// Budgeted combos on the knapsack DP at sizes from trivial to well past
/// the exhaustive-dispatch boundary, across a spread of grid resolutions:
/// this is the forward/backward merge engine's main workout. 120 instances.
#[test]
fn knapsack_combos_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x71C0_0003);
    let mut checked = 0usize;
    for round in 0..60 {
        let n = rng.random_range(3..56usize);
        let items = random_items(&mut rng, n);
        let k = rng.random_range(1..10usize);
        let budget = rng.random_range(0.5..20.0);
        let grid = rng.random_range(48..600usize);
        let kind = SolverKind::Knapsack { grid };
        for combo in [(None, Some(budget)), (Some(k), Some(budget))] {
            let inst = build(items.clone(), combo.0, combo.1);
            assert_engines_bit_identical(
                &inst,
                kind,
                &format!("knapsack round {round} n {n} grid {grid} combo {combo:?}"),
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 120);
}

/// Budgeted instances whose candidate rosters span many of the merge
/// engine's 32-candidate checkpoint blocks: n in 200..600 and grid in
/// 300..1000, with the winner cap off and on. Besides the winners, the
/// targets include the candidates at block edges (positions 0, kB − 1, kB,
/// kB + 1 and m − 1), where a recompute starts from a checkpoint or a
/// block's target rows end. Each instance matches the naive engine bit for
/// bit on the serial pool and on a 4-worker pool.
#[test]
fn many_block_knapsack_combos_bit_identical() {
    const BLOCK: usize = 32;
    let mut rng = StdRng::seed_from_u64(0x71C0_0007);
    let mut checked = 0usize;
    for round in 0..10 {
        let n = rng.random_range(200..600usize);
        let items = random_items(&mut rng, n);
        let grid = rng.random_range(300..1000usize);
        let kind = SolverKind::Knapsack { grid };
        let k = rng.random_range(2..10usize);
        let budget = rng.random_range(3.0..12.0);
        // The knapsack roster: positive weight, individually affordable.
        let roster: Vec<usize> = (0..n)
            .filter(|&i| items[i].weight > 0.0 && items[i].cost <= budget + 1e-12)
            .collect();
        let m = roster.len();
        assert!(
            m > 4 * BLOCK,
            "round {round}: roster of {m} spans too few blocks"
        );
        let mut edges = vec![0, m - 1];
        for kb in (BLOCK..m).step_by(BLOCK) {
            edges.extend([kb - 1, kb, kb + 1]);
        }
        for combo in [None, Some(k)] {
            let inst = build(items.clone(), combo, Some(budget));
            let mut targets = solve(&inst, kind).selected;
            targets.extend(edges.iter().filter(|&&q| q < m).map(|&q| roster[q]));
            targets.sort_unstable();
            targets.dedup();
            let naive = leave_one_out_welfares_on(
                &inst,
                &targets,
                kind,
                PaymentStrategy::Naive,
                par::Pool::serial(),
            );
            for pool in [par::Pool::serial(), par::Pool::with_threads(4)] {
                let incremental = leave_one_out_welfares_on(
                    &inst,
                    &targets,
                    kind,
                    PaymentStrategy::Incremental,
                    pool,
                );
                assert_eq!(naive.len(), incremental.len());
                for (t, (ni, ii)) in targets.iter().zip(naive.iter().zip(&incremental)) {
                    assert_eq!(
                        ni.to_bits(),
                        ii.to_bits(),
                        "round {round} n {n} grid {grid} cap {combo:?} target {t}: \
                         naive {ni} vs incremental {ii}"
                    );
                }
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 20);
}

/// `Exact` dispatch above the exhaustive boundary (n > 26): the production
/// path `run_with_budget` takes — full instance and every reduced instance
/// are knapsack-solved at grid 4000.
#[test]
fn exact_dispatch_large_budgeted_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x71C0_0004);
    for &n in &[27usize, 34, 48] {
        let items = random_items(&mut rng, n);
        let budget = rng.random_range(4.0..25.0);
        for combo in [(None, Some(budget)), (Some(6), Some(budget))] {
            let inst = build(items.clone(), combo.0, combo.1);
            assert_engines_bit_identical(
                &inst,
                SolverKind::Exact,
                &format!("exact-dispatch n {n} combo {combo:?}"),
            );
        }
    }
}

/// End-to-end through the auction: `run_with_budget_strategy_on` must hand
/// out bit-identical payments (not just welfares) under both strategies, on
/// both worker counts. Odd rounds also set a reserve price, which must cap
/// every budgeted payment while keeping it individually rational.
#[test]
fn vcg_payments_bit_identical_across_strategies() {
    const RESERVE: f64 = 2.0;
    let valuation = Valuation::Linear(ClientValue {
        value_per_unit: 0.05,
        base_value: 0.3,
    });
    let mut rng = StdRng::seed_from_u64(0x71C0_0005);
    let mut capped_payments = 0;
    for round in 0..12 {
        let n = rng.random_range(28..60usize);
        let bids: Vec<Bid> = (0..n)
            .map(|i| {
                Bid::new(
                    i,
                    rng.random_range(0.1..3.0),
                    rng.random_range(40..400usize),
                    rng.random_range(0.4..1.0),
                )
            })
            .collect();
        let auction = VcgAuction::new(VcgConfig {
            value_weight: rng.random_range(5.0..60.0),
            cost_weight: rng.random_range(0.5..6.0),
            max_winners: None,
            // Not drawn from `rng`, so the instances match the reserve-free
            // rounds this suite has always run.
            reserve_price: (round % 2 == 1).then_some(RESERVE),
            ..VcgConfig::default()
        });
        let budget = rng.random_range(0.2..0.6) * bids.iter().map(|b| b.cost).sum::<f64>();
        for pool in [par::Pool::serial(), par::Pool::with_threads(4)] {
            let naive = auction.run_with_budget_strategy_on(
                &bids,
                &valuation,
                budget,
                SolverKind::Exact,
                PaymentStrategy::Naive,
                pool,
            );
            let incremental = auction.run_with_budget_strategy_on(
                &bids,
                &valuation,
                budget,
                SolverKind::Exact,
                PaymentStrategy::Incremental,
                pool,
            );
            assert!(
                !naive.winners.is_empty(),
                "degenerate instance, round {round}"
            );
            assert_eq!(
                naive.virtual_welfare.to_bits(),
                incremental.virtual_welfare.to_bits(),
                "welfare diverged, round {round}"
            );
            assert_eq!(naive.winners.len(), incremental.winners.len());
            for (a, b) in naive.winners.iter().zip(&incremental.winners) {
                assert_eq!(a.bidder, b.bidder, "winner set diverged, round {round}");
                assert_eq!(
                    a.payment.to_bits(),
                    b.payment.to_bits(),
                    "payment of bidder {} diverged, round {round}",
                    a.bidder
                );
                let cost = bids[a.bidder].cost;
                assert!(
                    a.payment >= cost - 1e-9,
                    "payment of bidder {} below its cost, round {round}",
                    a.bidder
                );
                if round % 2 == 1 {
                    assert!(
                        a.payment <= RESERVE,
                        "payment of bidder {} above the reserve, round {round}",
                        a.bidder
                    );
                    if a.payment == RESERVE {
                        capped_payments += 1;
                    }
                }
            }
        }
    }
    assert!(
        capped_payments > 0,
        "the reserve never bound a budgeted payment"
    );
}

/// The no-budget auction path (`run_with_strategy_on`) is likewise
/// strategy-invariant, including under a reserve price.
#[test]
fn vcg_topk_payments_bit_identical_across_strategies() {
    let valuation = Valuation::default();
    let mut rng = StdRng::seed_from_u64(0x71C0_0006);
    for round in 0..20 {
        let n = rng.random_range(2..40usize);
        let bids: Vec<Bid> = (0..n)
            .map(|i| {
                Bid::new(
                    i,
                    rng.random_range(0.1..3.0),
                    rng.random_range(40..400usize),
                    rng.random_range(0.4..1.0),
                )
            })
            .collect();
        let auction = VcgAuction::new(VcgConfig {
            value_weight: 40.0,
            cost_weight: 4.0,
            max_winners: Some(rng.random_range(1..12usize)),
            reserve_price: if rng.random() { Some(2.0) } else { None },
            ..VcgConfig::default()
        });
        let naive = auction.run_with_strategy_on(
            &bids,
            &valuation,
            PaymentStrategy::Naive,
            par::Pool::serial(),
        );
        let incremental = auction.run_with_strategy_on(
            &bids,
            &valuation,
            PaymentStrategy::Incremental,
            par::Pool::serial(),
        );
        assert_eq!(naive.winners.len(), incremental.winners.len());
        for (a, b) in naive.winners.iter().zip(&incremental.winners) {
            assert_eq!(a.bidder, b.bidder, "winner set diverged, round {round}");
            assert_eq!(
                a.payment.to_bits(),
                b.payment.to_bits(),
                "payment of bidder {} diverged, round {round}",
                a.bidder
            );
        }
        // The default path is the incremental one.
        let default_run = auction.run(&bids, &valuation);
        assert_eq!(
            default_run, incremental,
            "run() default diverged, round {round}"
        );
    }
}
