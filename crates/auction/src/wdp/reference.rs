//! Test-only reference solvers: the textbook allocating top-K selection
//! and 0/1-knapsack DP that [`SolverArena`] must match bit for bit.
//!
//! Brute force ([`SolverKind::Exhaustive`]) stops at 25 items, so above
//! that size the arena's saturated-span fast path and word-packed
//! traceback need an independent oracle. These solvers are that oracle: a
//! stable sort for top-K, and for the knapsack one `Vec<bool>` traceback
//! row per candidate, one cell at a time, no saturation tracking, and the
//! budget repair as the textbook greedy loop. They share only the grid
//! discretization with the arena (`knapsack_cell`, `knapsack_gcost`,
//! `knapsack_width_2d`), which defines the problem the DP solves rather
//! than how it solves it.
//!
//! The seeded sweeps below reuse ONE warm arena across every instance, so
//! buffer-reuse bugs, stale traceback bits, and under-cleared scratch
//! surface as divergences too. Payments are computed from these
//! objectives, so "close" is not good enough: a one-ULP drift in a
//! leave-one-out welfare is a payment change.

use super::{
    exhaustive, greedy_density, knapsack_cell, knapsack_gcost, knapsack_width_2d, repair_overspend,
    RepairRank, SolverArena, SolverKind, WdpInstance, WdpItem, WdpSolution, WdpView, DP_EPS,
};
use simrng::{rngs::StdRng, RngExt, SeedableRng};

/// The reference dispatch, mirroring [`SolverArena::solve_view_into`].
pub(crate) fn solve_view(view: &WdpView<'_>, kind: SolverKind) -> WdpSolution {
    match kind {
        SolverKind::Exact => match view.budget() {
            None => top_k(view),
            Some(_) if view.len() <= 25 => exhaustive(view),
            Some(_) => knapsack(view, 4000),
        },
        SolverKind::Exhaustive => exhaustive(view),
        SolverKind::Knapsack { grid } => match view.budget() {
            Some(_) => knapsack(view, grid),
            None => top_k(view),
        },
        SolverKind::GreedyDensity => greedy_density(view),
    }
}

/// The top-K positive-weight items, by a stable descending-weight sort.
fn top_k(view: &WdpView<'_>) -> WdpSolution {
    let k = view.max_winners().unwrap_or(view.len());
    let mut order: Vec<usize> = view
        .indices()
        .filter(|&i| view.item(i).weight > 0.0)
        .collect();
    order.sort_by(|&a, &b| {
        view.item(b)
            .weight
            .partial_cmp(&view.item(a).weight)
            .expect("weights are finite")
    });
    order.truncate(k);
    WdpSolution::from_view(view, order)
}

/// The textbook budget-constrained 0/1 knapsack over the discretized cost
/// grid: per-cell descending sweeps, a fresh traceback row per candidate,
/// reconstruction by walking candidates backwards, then budget repair.
fn knapsack(view: &WdpView<'_>, grid: usize) -> WdpSolution {
    let budget = view.budget().expect("knapsack requires a budget");
    let cand: Vec<usize> = view
        .indices()
        .filter(|&i| view.item(i).weight > 0.0 && view.item(i).cost <= budget + 1e-12)
        .collect();
    if cand.is_empty() {
        return WdpSolution::from_view(view, Vec::new());
    }
    let mut selected = match view.max_winners() {
        None => {
            let cell = knapsack_cell(budget, grid);
            let gcost = |i: usize| knapsack_gcost(view.item(i).cost, budget, cell, grid);
            let width = grid + 1;
            let mut dp = vec![0.0f64; width];
            let mut taken: Vec<Vec<bool>> = Vec::with_capacity(cand.len());
            for &i in &cand {
                let gc = gcost(i);
                let w = view.item(i).weight;
                let mut tk = vec![false; width];
                if gc <= grid {
                    for c in (gc..width).rev() {
                        let candidate = dp[c - gc] + w;
                        if candidate > dp[c] + DP_EPS {
                            dp[c] = candidate;
                            tk[c] = true;
                        }
                    }
                }
                taken.push(tk);
            }
            let mut bc = 0usize;
            for (c, &v) in dp.iter().enumerate() {
                if v > dp[bc] + DP_EPS {
                    bc = c;
                }
            }
            let mut selected = Vec::new();
            let mut c = bc;
            for t in (0..cand.len()).rev() {
                if taken[t][c] {
                    selected.push(cand[t]);
                    c -= gcost(cand[t]);
                }
            }
            selected
        }
        Some(k) => {
            let kmax = k.min(cand.len());
            let width = knapsack_width_2d(cand.len(), kmax, grid);
            let grid_eff = width - 1;
            let cell = knapsack_cell(budget, grid_eff);
            let gcost = |i: usize| knapsack_gcost(view.item(i).cost, budget, cell, grid_eff);
            let mut dp = vec![vec![0.0f64; width]; kmax + 1];
            let mut taken: Vec<Vec<bool>> = Vec::with_capacity(cand.len());
            for &i in &cand {
                let gc = gcost(i);
                let w = view.item(i).weight;
                let mut tk = vec![false; (kmax + 1) * width];
                if gc <= grid_eff {
                    for j in (1..=kmax).rev() {
                        for c in (gc..width).rev() {
                            let candidate = dp[j - 1][c - gc] + w;
                            if candidate > dp[j][c] + DP_EPS {
                                dp[j][c] = candidate;
                                tk[j * width + c] = true;
                            }
                        }
                    }
                }
                taken.push(tk);
            }
            let (mut bj, mut bc, mut best) = (0usize, 0usize, 0.0f64);
            for (j, row) in dp.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    if v > best + DP_EPS {
                        best = v;
                        bj = j;
                        bc = c;
                    }
                }
            }
            let mut selected = Vec::new();
            let (mut j, mut c) = (bj, bc);
            for t in (0..cand.len()).rev() {
                if j == 0 {
                    break;
                }
                if taken[t][j * width + c] {
                    selected.push(cand[t]);
                    c -= gcost(cand[t]);
                    j -= 1;
                }
            }
            selected
        }
    };
    repair_greedy(view, &mut selected, budget);
    WdpSolution::from_view(view, selected)
}

/// The textbook budget repair: while the selection overspends, drop its
/// current lowest-density item (`weight / cost.max(1e-12)`), the first of
/// equal ones in vector order.
fn repair_greedy(view: &WdpView<'_>, selected: &mut Vec<usize>, budget: f64) {
    let density = |i: usize| view.item(i).weight / view.item(i).cost.max(1e-12);
    let mut spent: f64 = selected.iter().map(|&i| view.item(i).cost).sum();
    while spent > budget + 1e-9 && !selected.is_empty() {
        let mut worst = 0;
        for p in 1..selected.len() {
            if density(selected[p]) < density(selected[worst]) {
                worst = p;
            }
        }
        spent -= view.item(selected.remove(worst)).cost;
    }
}

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

fn assert_bit_identical(reference: &WdpSolution, arena: &WdpSolution, ctx: &str) {
    assert_eq!(
        reference.selected, arena.selected,
        "selection diverged: {ctx}"
    );
    assert_eq!(
        reference.objective.to_bits(),
        arena.objective.to_bits(),
        "objective bits diverged ({} vs {}): {ctx}",
        reference.objective,
        arena.objective
    );
}

/// 200 seeded instances × 4 constraint combos × 2 solver kinds, one arena
/// for the entire sweep. Sizes 1..=12 and 26..=96 straddle the
/// exhaustive/knapsack dispatch boundary (25) and force multi-word
/// traceback rows.
#[test]
fn arena_bit_identical_to_reference_across_combos() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0001);
    let mut arena = SolverArena::new();
    let mut checked = 0usize;
    for round in 0..200 {
        // Skip the 13..=25 band: budgeted Exact dispatches it to the
        // *shared* exhaustive enumerator (2^n subsets — slow and with no
        // arena-vs-reference divergence possible), so spend the budget on
        // the knapsack band where the arena has its own code path.
        let n = if round % 4 == 0 {
            rng.random_range(1..=12usize)
        } else {
            rng.random_range(26..=96usize)
        };
        let items = random_items(&mut rng, n);
        let k = rng.random_range(1..=n.max(1));
        let budget = rng.random_range(0.0..20.0);
        let combos = [
            (None, None),
            (Some(k), None),
            (None, Some(budget)),
            (Some(k), Some(budget)),
        ];
        for (k, b) in combos {
            let inst = build(items.clone(), k, b);
            let view = WdpView::full(&inst);
            for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 1000 }] {
                let expected = solve_view(&view, kind);
                let fast = arena.solve_view(&view, kind);
                let ctx = format!("round={round} n={n} k={k:?} b={b:?} kind={kind:?}");
                assert_bit_identical(&expected, &fast, &ctx);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 200 * 4 * 2);
}

/// Subset views (the sharded path's geometry): the arena must honor the
/// view's index remapping, not assume 0..n.
#[test]
fn arena_matches_reference_on_subset_views() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0002);
    let mut arena = SolverArena::new();
    for round in 0..60 {
        // Alternate tiny exhaustive-band views with wide knapsack-band
        // ones; the 13..=25 band is the shared 2^n enumerator (no arena
        // code, and slow), so it gets no budget here either.
        let (n, step) = if round % 3 == 0 {
            (rng.random_range(6..=24usize), 3)
        } else {
            (rng.random_range(60..=160usize), 2)
        };
        let items = random_items(&mut rng, n);
        let budget = rng.random_range(0.0..15.0);
        let inst = build(items, Some(n / 2 + 1), Some(budget));
        // A deliberately sparse, non-contiguous subset.
        let subset: Vec<usize> = (0..n).step_by(step).collect();
        let view = WdpView::of_subset(&inst, &subset);
        for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 2000 }] {
            let expected = solve_view(&view, kind);
            let fast = arena.solve_view(&view, kind);
            let ctx = format!("round={round} n={n} subset kind={kind:?}");
            assert_bit_identical(&expected, &fast, &ctx);
        }
    }
}

/// The production ranked repair against the greedy loop, on selections in
/// the descending order both receive: exact density ties (half-unit costs
/// with weights an integer multiple of the cost), zero-cost items on the
/// `cost.max(1e-12)` floor, and budgets needing no drop, exactly one drop,
/// and many drops, with the rank taken over the whole roster or over the
/// selection alone. Same survivors, in the same order, every time.
#[test]
fn ranked_repair_matches_greedy_loop() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0003);
    let mut rank = RepairRank::default();
    let mut member = Vec::new();
    let mut drops_seen = [0usize; 3]; // none, one, many (>= 5)
    let mut tied_drops = 0usize;
    let mut free_drops = 0usize;
    for round in 0..300 {
        let n = rng.random_range(1..=150usize);
        let items: Vec<WdpItem> = (0..n)
            .map(|i| {
                let (weight, cost) = match rng.random_range(0..10u32) {
                    // Zero cost: density is weight / 1e-12. Tiny weights
                    // land it among the others, so it can be dropped.
                    0 => (rng.random_range(1e-14..1e-11), 0.0),
                    1 => (rng.random_range(0.1..9.0), 0.0),
                    // Half-unit costs with weights 1-3x the cost: many
                    // exactly equal densities.
                    2..=5 => {
                        let cost = rng.random_range(1..=4u32) as f64 * 0.5;
                        (rng.random_range(1..=3u32) as f64 * cost, cost)
                    }
                    _ => (rng.random_range(0.1..9.0), rng.random_range(0.01..4.0)),
                };
                WdpItem {
                    bidder: i,
                    weight,
                    cost,
                }
            })
            .collect();
        let inst = WdpInstance::new(items.clone()).with_budget(1.0);
        let view = WdpView::full(&inst);
        // The roster is every item; the selection is a random subset, in
        // the descending order the DP walks produce.
        let cand: Vec<usize> = (0..n).collect();
        let positions: Vec<usize> = (0..n)
            .rev()
            .filter(|_| rng.random_range(0..4u32) != 0)
            .collect();
        let spent: f64 = positions.iter().map(|&q| items[q].cost).sum();
        let lightest = positions
            .iter()
            .map(|&q| items[q].cost)
            .filter(|&c| c > 0.0)
            .fold(f64::INFINITY, f64::min);
        let budget = match round % 3 {
            0 => spent + 1.0,
            1 if lightest.is_finite() => (spent - lightest * 0.5).max(0.0),
            _ => spent * rng.random_range(0.0..0.6),
        };
        let mut greedy = positions.clone();
        repair_greedy(&view, &mut greedy, budget);
        // Alternate the two rank shapes production uses: the whole roster
        // (the pivot merge) and the selection alone (the solve).
        let mut ranked = positions.clone();
        repair_overspend(&view, &cand, &mut ranked, budget, &mut member, |sel| {
            if round % 2 == 0 {
                rank.fill(&view, &cand, 0..n)
            } else {
                rank.fill(&view, &cand, sel.iter().copied())
            }
        });
        assert_eq!(ranked, greedy, "round {round} n {n} budget {budget}");
        assert!(member.iter().all(|&w| w == 0), "bitmap left dirty");
        let drops = positions.len() - ranked.len();
        match drops {
            0 => drops_seen[0] += 1,
            1 => drops_seen[1] += 1,
            d if d >= 5 => drops_seen[2] += 1,
            _ => {}
        }
        // A drop decided by an exact tie: two dropped items of equal
        // density, or a dropped item tied with a survivor.
        let density = |q: usize| items[q].weight / items[q].cost.max(1e-12);
        let dropped: Vec<usize> = positions
            .iter()
            .copied()
            .filter(|q| !ranked.contains(q))
            .collect();
        if dropped.iter().any(|&d| {
            positions
                .iter()
                .any(|&q| q != d && density(q) == density(d))
        }) {
            tied_drops += 1;
        }
        if dropped.iter().any(|&d| items[d].cost == 0.0) {
            free_drops += 1;
        }
    }
    assert!(
        drops_seen.iter().all(|&c| c >= 20),
        "drop-count coverage too thin: {drops_seen:?}"
    );
    assert!(tied_drops >= 20, "tie coverage too thin: {tied_drops}");
    assert!(free_drops >= 5, "zero-cost coverage too thin: {free_drops}");
}
