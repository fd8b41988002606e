//! Reuse suite: a warm [`SolverArena`] — one that has already solved
//! larger, differently shaped instances — must return **bit-identical**
//! answers to a fresh one (the free [`solve_view`] wraps a fresh arena):
//! same selected indices, same `objective` bits. Stale DP tails, stale
//! traceback bits, and under-cleared output slots all surface here.
//!
//! The arena's agreement with the textbook knapsack DP itself is pinned
//! by the seeded differential sweeps in `wdp::reference` (crate-internal,
//! because the reference shares the crate-private grid and repair code).

use auction::wdp::{
    solve_view, SolverArena, SolverKind, WdpInstance, WdpItem, WdpSolution, WdpView,
};
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

fn build(items: Vec<WdpItem>, max_winners: Option<usize>, budget: Option<f64>) -> WdpInstance {
    let mut inst = WdpInstance::new(items);
    if let Some(k) = max_winners {
        inst = inst.with_max_winners(k);
    }
    if let Some(b) = budget {
        inst = inst.with_budget(b);
    }
    inst
}

fn random_items(rng: &mut StdRng, n: usize) -> Vec<WdpItem> {
    (0..n)
        .map(|i| WdpItem {
            bidder: i,
            weight: rng.random_range(-5.0..10.0),
            cost: rng.random_range(0.0..5.0),
        })
        .collect()
}

fn assert_bit_identical(fresh: &WdpSolution, warm: &WdpSolution, ctx: &str) {
    assert_eq!(fresh.selected, warm.selected, "selection diverged: {ctx}");
    assert_eq!(
        fresh.objective.to_bits(),
        warm.objective.to_bits(),
        "objective bits diverged ({} vs {}): {ctx}",
        fresh.objective,
        warm.objective
    );
}

/// Warm-arena order independence: solving a LARGE instance then a small one
/// must not leak the large instance's DP tail or traceback bits into the
/// small solve. (This is the classic reuse bug: `resize` without `clear`.)
#[test]
fn arena_shrinking_instances_do_not_leak_state() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0003);
    let mut arena = SolverArena::new();
    // Prime the arena with a big budgeted solve.
    let big_items = random_items(&mut rng, 150);
    let big = build(big_items, Some(40), Some(30.0));
    let _ = arena.solve_view(&WdpView::full(&big), SolverKind::Exact);
    // Now a descending ladder of small instances, fresh-vs-warm.
    for n in [64usize, 31, 26, 12, 5, 1] {
        let items = random_items(&mut rng, n);
        let inst = build(items, Some(n), Some(4.0));
        let view = WdpView::full(&inst);
        for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 500 }] {
            let fresh = solve_view(&view, kind);
            let warm = arena.solve_view(&view, kind);
            assert_bit_identical(&fresh, &warm, &format!("n={n} kind={kind:?}"));
        }
    }
}

/// The cold kind (Exhaustive) solves outside the arena's lanes and copies
/// into the recycled output slot; after a knapsack solve has dirtied both
/// the arena and that slot, it must still match a fresh solve.
#[test]
fn arena_delegated_kinds_match() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0004);
    let mut arena = SolverArena::new();
    let mut out = WdpSolution::default();
    for _ in 0..30 {
        let n = rng.random_range(1..=10usize);
        let items = random_items(&mut rng, n);
        let inst = build(items, Some(n), Some(6.0));
        let view = WdpView::full(&inst);
        arena.solve_view_into(&view, SolverKind::Knapsack { grid: 300 }, &mut out);
        arena.solve_view_into(&view, SolverKind::Exhaustive, &mut out);
        let fresh = solve_view(&view, SolverKind::Exhaustive);
        assert_bit_identical(&fresh, &out, &format!("n={n}"));
    }
}
