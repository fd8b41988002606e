//! Incremental leave-one-out welfare engine for Clarke pivots.
//!
//! VCG payments need, for every winner `i`, the optimal welfare `W*₋ᵢ` of
//! the instance with `i` excluded. Re-solving the winner-determination
//! problem from scratch per winner costs `n` full solves — O(n² log n) for
//! top-K instances and O(n²·G) for the budgeted knapsack — and dominates
//! every round. This module computes the same quantities incrementally:
//!
//! * **Top-K / unconstrained** (no budget): one stable sort of the full
//!   preference order. Removing one item never reorders the rest, so each
//!   reduced optimum is a splice of that single order — the surviving
//!   winners plus the first displaced candidate. O(n log n + n·K) total.
//! * **Budgeted knapsack**: one forward and one backward DP sweep over the
//!   candidate sequence, then a per-winner merge of `prefix[i−1] ⊕
//!   suffix[i+1]` over the cost grid. O(n·G) table work total instead of
//!   O(n²·G), with the per-winner walks fanned out on [`par::Pool`].
//!
//! **Budgeted bounds.** For m candidates, t targets, `C` DP cells per row
//! (grid width times count rows) and blocks of `B` = 32 candidates:
//!
//! * *Time.* At most three DP passes of m item steps each — the forward
//!   sweep, the backward sweep, and the forward recompute of the blocks
//!   that hold targets — so O(m·C). Each item step compares its cells four
//!   at a time on AVX2 CPUs (`wdp`'s module docs show why that leaves the
//!   textbook DP's bits). One O(C) split scan per target, O(t·C); it
//!   compares four split sums at a time against the running best and
//!   re-runs the scalar rule only on a chunk where one clears it.
//!   Per target, O(m) for the two traceback walks and O(s + r)
//!   for the budget repair (s selected, r the prefix of the repair rank
//!   walked), plus one O(m log m) rank of the roster per instance.
//! * *Memory.* The two traceback tables, 2·m·C bits. Rows of f64: one
//!   checkpoint per block that holds a target and a ring of one row per
//!   target in the current block, O((min(t, m/B) + min(t, B))·C): ~1.8 MB
//!   at m ≈ 800, grid 4000.
//!
//! **Why recomputed forward rows are bit-identical.** The forward sweep
//! keeps only the row and the saturation index `sat` at the start of each
//! block that holds a target. Ahead of the backward sweep reaching such a
//! block, its rows are replayed from that checkpoint: the same kernel
//! (`knapsack_step`) on the same row bits, with the same `(gcost,
//! weight)` sequence and the same `sat` trajectory. Each step's DP values
//! are a deterministic function of exactly those inputs — IEEE-754 adds
//! and compares, no fused or reassociated arithmetic — and never of the
//! traceback row, which the kernel only ORs flags into. So the replay's
//! flags go to a throwaway row, and every replayed row equals, bit for
//! bit, the row the forward sweep held at that candidate.
//!
//! **Bit-compatibility contract.** The engine is drop-in for the naive
//! re-solve: `W*₋ᵢ` (and hence every payment) is bit-identical to
//! `solve_view(&view.skipping(i), kind).objective` (see
//! [`WdpView::skipping`]). This works because the engine never sums
//! welfare from precomputed aggregates — it determines the reduced
//! instance's *selected set* incrementally and then recomputes the
//! objective exactly the way [`crate::wdp`] does: canonical
//! ascending-index order, left-to-right float adds, identical candidate
//! filter / grid rounding / budget-repair code. The differential suite
//! (`tests/pivot_equivalence.rs`) pins this across all four constraint
//! combinations. Solver kinds the engine has no incremental formulation
//! for (exhaustive, greedy, or instances crossing the exhaustive-dispatch
//! size boundary) transparently fall back to the naive re-solve,
//! preserving the contract trivially.
//!
//! Scope of the guarantee: the top-K path is unconditionally bit-identical
//! (a stable sort makes every reduced order a splice of the full one, ties
//! included). The budgeted DP-merge path guarantees bit-identity whenever
//! the reduced instance's optimal *selection* is unique at the DP's
//! comparison epsilon — always the case for cost/weight draws from
//! continuous distributions, which is what LOVM markets produce. On
//! adversarially tied instances (distinct subsets with exactly equal
//! welfare, e.g. duplicated integer weights) the naive sequential DP and
//! the prefix/suffix merge may break the tie toward different — equally
//! DP-optimal — selections, and once budget repair acts on those different
//! sets the welfares and payments need no longer agree at all.

use crate::wdp::{
    eps_argmax, fill_knapsack_candidates, fill_preference_order, knapsack_cell, knapsack_gcost,
    knapsack_item_step_1d, knapsack_item_step_2d, knapsack_width_2d, repair_overspend, solve_view,
    FlagTable, LooScratch, SolverArena, SolverKind, WdpInstance, WdpView,
};

/// How `W*₋ᵢ` pivot welfares are computed for payments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PaymentStrategy {
    /// Re-solve the reduced instance from scratch for every pivot — the
    /// textbook O(n) independent solves. Kept as the differential-testing
    /// reference and for odd solver kinds.
    Naive,
    /// Incremental leave-one-out engine (the default): shared sorted-order
    /// / DP-table passes, per-pivot merge. Bit-identical to [`Self::Naive`].
    #[default]
    Incremental,
}

/// Computes `W*₋ᵢ`, the optimum of `inst` without item `i`, for every `i`
/// in `targets` (indices into `inst.items`), in target order.
///
/// With `PaymentStrategy::Incremental` the result is bit-identical to the
/// naive per-target re-solve (see module docs) at a fraction of the cost.
/// Per-target work is fanned out on `pool`; output does not depend on the
/// worker count.
pub fn leave_one_out_welfares_on(
    inst: &WdpInstance,
    targets: &[usize],
    kind: SolverKind,
    strategy: PaymentStrategy,
    pool: par::Pool,
) -> Vec<f64> {
    leave_one_out_welfares_view_on(&WdpView::full(inst), targets, kind, strategy, pool)
}

/// [`leave_one_out_welfares_on`] generalized to a sub-instance view:
/// `W*₋ᵢ` of the view with target `i` (a parent index that must be a view
/// member) excluded. This is what the shard pipeline (`crate::shard`) runs
/// per shard and over the champion pool.
pub fn leave_one_out_welfares_view_on(
    view: &WdpView<'_>,
    targets: &[usize],
    kind: SolverKind,
    strategy: PaymentStrategy,
    pool: par::Pool,
) -> Vec<f64> {
    let mut arena = SolverArena::new();
    let mut out = Vec::new();
    leave_one_out_welfares_view_into(view, targets, kind, strategy, pool, &mut arena, &mut out);
    out
}

/// [`leave_one_out_welfares_view_on`] into caller-recycled buffers: the
/// pivot lanes of `arena` hold every DP table, checkpoint row, and
/// reconstruction buffer, and `out` receives one welfare per target (in
/// target order, cleared first).
///
/// A serial caller (`LOVM_THREADS=1`) that keeps `arena` and `out` alive
/// across rounds runs the hot engines (top-K splice, budgeted DP merge)
/// with zero steady-state heap allocations. Parallel per-target fan-out
/// gives each worker its own `LooScratch` via [`par::Pool::run_with`],
/// so no buffer is shared and — per the pool's determinism contract — the
/// welfares are bit-identical at any worker count. The `Naive` strategy
/// and the fallback paths still allocate per call; they are reference /
/// cold paths.
pub fn leave_one_out_welfares_view_into(
    view: &WdpView<'_>,
    targets: &[usize],
    kind: SolverKind,
    strategy: PaymentStrategy,
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    // One LOO pivot pass per call: the `solve.pivots_ns` span covers the
    // whole engine (every strategy funnels through here). Inert unless
    // telemetry is enabled; records only wall time, never an output bit.
    let _pivots_span = telemetry::hist!("solve.pivots_ns").span();
    match strategy {
        PaymentStrategy::Naive => naive_loo(view, targets, kind, pool, arena, out),
        PaymentStrategy::Incremental => match (view.budget(), kind) {
            (None, SolverKind::Exact) | (None, SolverKind::Knapsack { .. }) => {
                topk_loo(view, targets, pool, arena, out)
            }
            (Some(_), SolverKind::Knapsack { grid }) => {
                merge_loo(view, targets, grid, kind, pool, arena, out)
            }
            // `Exact` dispatches reduced instances of ≤ 25 items to
            // exhaustive search; the DP merge only mirrors the knapsack
            // path, so it applies once every reduced instance is knapsack-
            // dispatched (n − 1 > 25).
            (Some(_), SolverKind::Exact) if view.len() > 26 => {
                merge_loo(view, targets, 4000, kind, pool, arena, out)
            }
            _ => naive_loo(view, targets, kind, pool, arena, out),
        },
    }
}

/// The reference engine: one full re-solve per excluded target, each on an
/// allocation-free skip view, with one arena per worker.
fn naive_loo(
    view: &WdpView<'_>,
    targets: &[usize],
    kind: SolverKind,
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    let resolve = |arena: &mut SolverArena, ti: usize| {
        arena
            .solve_view(&view.skipping(targets[ti]), kind)
            .objective
    };
    pool.run_with(targets.len(), arena, SolverArena::default, out, resolve);
}

/// Incremental engine for instances without a budget constraint.
///
/// The top-K solve sorts the positive-weight items by descending weight
/// (index ascending on ties — the stable order) and truncates; removing any
/// single item never changes the relative order of the rest, so every
/// reduced optimum reads directly off the full order: the surviving top-K
/// plus (when the cap was binding) the first displaced candidate.
///
/// The order lives in `arena.order`; per-target reconstruction uses the
/// worker's [`LooScratch`], and the final sum is the canonical
/// ascending-index left-to-right fold `WdpSolution::from_view` computes.
fn topk_loo(
    view: &WdpView<'_>,
    targets: &[usize],
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    match view.max_winners() {
        None => {
            // Reduced optimum = every positive item except the target.
            // Filtered in index order, which *is* the canonical order, so
            // each pivot is one allocation-free skip-one fold.
            arena.order.clear();
            arena
                .order
                .extend(view.indices().filter(|&i| view.item(i).weight > 0.0));
            let positives = &arena.order;
            pool.run_with(targets.len(), &mut arena.loo, LooScratch::default, out, {
                |_scratch, ti| {
                    let t = targets[ti];
                    positives
                        .iter()
                        .filter(|&&i| i != t)
                        .map(|&i| view.item(i).weight)
                        .sum()
                }
            });
        }
        Some(k) => {
            fill_preference_order(view, &mut arena.order);
            let order = &arena.order;
            pool.run_with(targets.len(), &mut arena.loo, LooScratch::default, out, {
                |scratch: &mut LooScratch, ti| {
                    let t = targets[ti];
                    let pos = order.iter().position(|&i| i == t);
                    scratch.selected.clear();
                    match pos {
                        Some(p) if p < k => {
                            // The target was in the money: the other
                            // winners stay and the first displaced
                            // candidate (if any) slides in.
                            scratch.selected.extend(
                                order[..k.min(order.len())]
                                    .iter()
                                    .copied()
                                    .filter(|&i| i != t),
                            );
                            if let Some(&d) = order.get(k) {
                                scratch.selected.push(d);
                            }
                        }
                        // The target never won (or has non-positive
                        // weight): removing it leaves the top-K untouched.
                        _ => scratch
                            .selected
                            .extend_from_slice(&order[..k.min(order.len())]),
                    }
                    // Canonical objective: ascending-index, left-to-right
                    // sum — exactly what `WdpSolution::from_view` computes
                    // for the reduced view.
                    scratch.selected.sort_unstable();
                    scratch.selected.iter().map(|&i| view.item(i).weight).sum()
                }
            });
        }
    }
}

/// Candidates per checkpoint block of the merge engine's forward sweep
/// (see the module docs). A constant, not a knob: checkpoints cost one row
/// per block and the recompute ring one row per target in a block, and 32
/// keeps both near a megabyte at the `grid = 4000` shape.
const BLOCK: usize = 32;

/// Incremental engine for budgeted instances: forward/backward knapsack DP
/// sweeps over the candidate sequence, merged per target.
///
/// The reduced instance's candidate roster is the full roster minus the
/// target, in the same order, with the same grid geometry, so the naive
/// LOO DP's state after the prefix is exactly the forward row before the
/// target — the merge only has to pick the optimal budget split between
/// prefix and suffix and reconstruct each half from its taken flags. The
/// reconstructed set is re-summed canonically, which is what makes the
/// result bit-identical to the naive re-solve rather than merely equal to
/// float noise.
fn merge_loo(
    view: &WdpView<'_>,
    targets: &[usize],
    grid: usize,
    kind: SolverKind,
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    let budget = view.budget().expect("merge engine requires a budget");
    assert!(grid >= 1, "grid must be at least 1");
    let SolverArena {
        cand,
        gcosts,
        weights,
        dp,
        rank,
        target_pos,
        fwd_taken,
        bwd_taken,
        ckpt,
        ckpt_sat,
        ring,
        fwd_row,
        scrap,
        splits,
        loo,
        ..
    } = arena;
    // The solver's own candidate filter — both engines must see the exact
    // same item roster.
    fill_knapsack_candidates(view, budget, cand);
    let m = cand.len();

    // The reduced instance drops one candidate, so its DP geometry is
    // computed from m − 1 candidates — identical for every target.
    let loo_len = m.saturating_sub(1);
    let (kmax, width) = match view.max_winners() {
        None => (None, grid + 1),
        Some(k) => {
            let km = k.min(loo_len);
            (Some(km), knapsack_width_2d(loo_len, km, grid))
        }
    };
    let rows = kmax.map_or(1, |k| k + 1);
    let grid_eff = width - 1;
    let cell = knapsack_cell(budget, grid_eff);
    gcosts.clear();
    gcosts.extend(
        cand.iter()
            .map(|&i| knapsack_gcost(view.item(i).cost, budget, cell, grid_eff)),
    );
    weights.clear();
    weights.extend(cand.iter().map(|&i| view.item(i).weight));

    // Engine-selection guard: past these table sizes the job goes to the
    // reference engine. The two engines may break exact welfare ties
    // differently (see module docs), so this predicate decides payments on
    // tied instances and stays as it is.
    target_pos.clear();
    target_pos.extend(targets.iter().filter_map(|&t| cand.binary_search(&t).ok()));
    target_pos.sort_unstable();
    target_pos.dedup();
    let cells = rows * width;
    if m.saturating_mul(cells) > (1 << 28) || target_pos.len().saturating_mul(cells) > (1 << 24) {
        naive_loo(view, targets, kind, pool, &mut SolverArena::new(), out);
        return;
    }

    // Any target that is not a knapsack candidate leaves the DP unchanged:
    // its reduced optimum is the full optimum (computed over the same
    // candidate roster, hence the same floats). Cold path — LOVM targets
    // are winners, which are always candidates — so the extra fresh-arena
    // solve's allocations don't touch the steady state.
    let full_objective = if targets.iter().any(|&t| cand.binary_search(&t).is_err()) {
        solve_view(view, SolverKind::Knapsack { grid }).objective
    } else {
        0.0
    };
    if m == 0 {
        out.clear();
        out.extend(targets.iter().map(|_| full_objective));
        return;
    }

    // Forward sweep: the row before processing cand[p] is bit-identical to
    // the naive LOO DP's state after the prefix cand[0..p] (same items,
    // same order, same update rule). Its flags are kept for the prefix
    // walks; its rows only at the start of each block that holds a target.
    let n_pos = target_pos.len();
    fwd_taken.reset(m, cells);
    ckpt.clear();
    ckpt_sat.clear();
    dp.clear();
    dp.resize(cells, 0.0);
    let mut sat = 0usize;
    let mut next = 0usize;
    for t in 0..m {
        if t % BLOCK == 0 {
            while next < n_pos && target_pos[next] < t {
                next += 1;
            }
            if next < n_pos && target_pos[next] < t + BLOCK {
                ckpt.extend_from_slice(dp);
                ckpt_sat.push(sat);
            }
        }
        sat = knapsack_step(dp, fwd_taken, t, gcosts[t], weights[t], kmax, sat);
    }

    // Backward sweep, block by block from the end: the live row before
    // processing cand[p] covers exactly the suffix cand[p+1..]. Ahead of
    // each block that holds targets, its forward rows are recomputed from
    // the block's checkpoint — same kernel, same inputs, flags into a
    // throwaway row — into `ring`, one row per target, so each target's
    // split is scanned as the sweep passes it.
    bwd_taken.reset(m, cells);
    scrap.reset(1, cells);
    splits.clear();
    splits.resize(n_pos, (0, 0));
    dp.clear();
    dp.resize(cells, 0.0);
    let mut sat = 0usize;
    let mut hi = n_pos;
    let mut ck = ckpt_sat.len();
    for start in (0..m).step_by(BLOCK).rev() {
        let lo = target_pos[..hi].partition_point(|&p| p < start);
        if lo < hi {
            ck -= 1;
            fwd_row.clear();
            fwd_row.extend_from_slice(&ckpt[ck * cells..(ck + 1) * cells]);
            ring.clear();
            let mut fsat = ckpt_sat[ck];
            let mut s = lo;
            for t in start.. {
                if target_pos[s] == t {
                    ring.extend_from_slice(fwd_row);
                    s += 1;
                    if s == hi {
                        break;
                    }
                }
                fsat = knapsack_step(fwd_row, scrap, 0, gcosts[t], weights[t], kmax, fsat);
            }
        }
        for t in (start..(start + BLOCK).min(m)).rev() {
            if hi > lo && target_pos[hi - 1] == t {
                hi -= 1;
                let fs = &ring[(hi - lo) * cells..(hi - lo + 1) * cells];
                splits[hi] = best_split(fs, dp, rows, width);
            }
            sat = knapsack_step(dp, bwd_taken, t, gcosts[t], weights[t], kmax, sat);
        }
    }

    // Per-target merge: reconstruct both halves of the chosen split from
    // their flags in the naive walk's descending order, repair, re-sum.
    // Shared-borrow the tables for the fan-out; each worker reconstructs
    // into its own `LooScratch`.
    let order = rank.fill(view, cand, 0..m);
    let (cand, gcosts, weights, target_pos, splits) =
        (&*cand, &*gcosts, &*weights, &*target_pos, &*splits);
    let (fwd_taken, bwd_taken) = (&*fwd_taken, &*bwd_taken);
    pool.run_with(targets.len(), loo, LooScratch::default, out, {
        |scratch: &mut LooScratch, ti| {
            let t = targets[ti];
            let Ok(p) = cand.binary_search(&t) else {
                return full_objective;
            };
            scratch.selected.clear();
            if m == 1 {
                // Reduced instance has no candidates at all. (Summed, not
                // a literal zero: an empty float sum is −0.0 and the
                // contract is bit-identity.)
                return scratch.selected.iter().map(|&q| weights[q]).sum();
            }
            let s = target_pos
                .binary_search(&p)
                .expect("split recorded for every candidate target");
            let (bj1, bc1) = splits[s];

            // Suffix walk (forward through items, as the backward table
            // was built last-item-first), then reversed in place so the
            // combined vector is in the naive reconstruction's descending
            // candidate order.
            {
                let mut j = rows - 1 - bj1;
                let mut c = grid_eff - bc1;
                for (q, &gc) in gcosts.iter().enumerate().skip(p + 1) {
                    if kmax.is_some() && j == 0 {
                        break;
                    }
                    let row = if kmax.is_some() { j } else { 0 };
                    if bwd_taken.get(q, row * width + c) {
                        scratch.selected.push(q);
                        c -= gc;
                        j = j.saturating_sub(1);
                    }
                }
                scratch.selected.reverse();
            }
            {
                let mut j = bj1;
                let mut c = bc1;
                for q in (0..p).rev() {
                    if kmax.is_some() && j == 0 {
                        break;
                    }
                    let row = if kmax.is_some() { j } else { 0 };
                    if fwd_taken.get(q, row * width + c) {
                        scratch.selected.push(q);
                        c -= gcosts[q];
                        j = j.saturating_sub(1);
                    }
                }
            }
            repair_overspend(
                view,
                cand,
                &mut scratch.selected,
                budget,
                &mut scratch.member,
                |_| order,
            );
            // Canonical objective: ascending-index, left-to-right sum. The
            // positions are descending and `cand` ascends, so reversed they
            // are the parent indices in ascending order.
            scratch.selected.iter().rev().map(|&q| weights[q]).sum()
        }
    });
}

/// Best prefix/suffix split of the budget (and of the winner count, when
/// capped) for one target: `fs` is the forward row before it, `bs` the
/// backward row after it. Scanned low-to-high with the DP's
/// strict-improvement epsilon, count plane by count plane through
/// [`eps_argmax`] (which skips 4-cell chunks that cannot improve); both
/// tables are monotone in count and cost, so each prefix state pairs with
/// the full remaining capacity.
fn best_split(fs: &[f64], bs: &[f64], rows: usize, width: usize) -> (usize, usize) {
    let mut best = f64::NEG_INFINITY;
    let mut split = (0usize, 0usize);
    for j1 in 0..rows {
        let f = &fs[j1 * width..(j1 + 1) * width];
        let b = &bs[(rows - 1 - j1) * width..(rows - j1) * width];
        if let Some(c1) = eps_argmax(f, Some(b), &mut best) {
            split = (j1, c1);
        }
    }
    split
}

/// One knapsack DP item update (shared by both sweeps and the forward
/// recompute): the classic reverse-cell relaxation, with a count dimension
/// when `kmax` is set. Identical update rule and epsilon to the solver's
/// knapsack, executed through the shared kernels
/// (`wdp::knapsack_item_step_{1d,2d}`: saturated high-span splat, then the
/// compare span four cells at a time where the CPU has AVX2).
/// `sat` is the caller-tracked saturation index (capped running sum of
/// processed items' grid costs); returns the advanced value.
fn knapsack_step(
    dp: &mut [f64],
    tk: &mut FlagTable,
    item_row: usize,
    gcost: usize,
    weight: f64,
    kmax: Option<usize>,
    sat: usize,
) -> usize {
    let rows = kmax.map_or(1, |k| k + 1);
    let width = dp.len() / rows;
    let grid_eff = width - 1;
    if gcost > grid_eff {
        return sat;
    }
    let row = tk.row_mut(item_row);
    match kmax {
        None => knapsack_item_step_1d(dp, row, gcost, weight, sat),
        Some(kmax) => knapsack_item_step_2d(dp, row, width, kmax, gcost, weight, sat),
    }
    (sat + gcost).min(width - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wdp::{solve, WdpItem};
    use simrng::{rngs::StdRng, RngExt, SeedableRng};

    fn item(bidder: usize, weight: f64, cost: f64) -> WdpItem {
        WdpItem {
            bidder,
            weight,
            cost,
        }
    }

    fn assert_bits_equal(a: &[f64], b: &[f64], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: target {i} incremental {x} vs naive {y}"
            );
        }
    }

    fn both(inst: &WdpInstance, targets: &[usize], kind: SolverKind) -> (Vec<f64>, Vec<f64>) {
        let pool = par::Pool::serial();
        (
            leave_one_out_welfares_on(inst, targets, kind, PaymentStrategy::Incremental, pool),
            leave_one_out_welfares_on(inst, targets, kind, PaymentStrategy::Naive, pool),
        )
    }

    #[test]
    fn topk_displacement_pivot() {
        // Weights 8, 5, 3; K = 2 → winners {0, 1}; removing a winner
        // promotes item 2.
        let inst = WdpInstance::new(vec![
            item(0, 8.0, 1.0),
            item(1, 5.0, 1.0),
            item(2, 3.0, 1.0),
        ])
        .with_max_winners(2);
        let (inc, naive) = both(&inst, &[0, 1], SolverKind::Exact);
        assert_bits_equal(&inc, &naive, "topk displacement");
        assert_eq!(inc, vec![5.0 + 3.0, 8.0 + 3.0]);
    }

    #[test]
    fn unconstrained_pivot_drops_only_target() {
        let inst = WdpInstance::new(vec![
            item(0, 2.5, 1.0),
            item(1, -1.0, 1.0),
            item(2, 4.25, 1.0),
        ]);
        let (inc, naive) = both(&inst, &[0, 2], SolverKind::Exact);
        assert_bits_equal(&inc, &naive, "unconstrained");
        assert_eq!(inc, vec![4.25, 2.5]);
    }

    #[test]
    fn loser_target_leaves_topk_unchanged() {
        let inst = WdpInstance::new(vec![
            item(0, 8.0, 1.0),
            item(1, 5.0, 1.0),
            item(2, 3.0, 1.0),
        ])
        .with_max_winners(2);
        let (inc, naive) = both(&inst, &[2], SolverKind::Exact);
        assert_bits_equal(&inc, &naive, "loser target");
        assert_eq!(inc, vec![13.0]);
    }

    #[test]
    fn merge_engine_single_candidate_reduces_to_empty() {
        let inst = WdpInstance::new(vec![item(0, 3.1, 1.3), item(1, -2.0, 0.5)]).with_budget(4.0);
        let (inc, naive) = both(&inst, &[0], SolverKind::Knapsack { grid: 64 });
        assert_bits_equal(&inc, &naive, "single candidate");
        assert_eq!(inc, vec![0.0]);
    }

    #[test]
    fn merge_engine_matches_naive_on_random_budgeted_instances() {
        let mut rng = StdRng::seed_from_u64(0x9107_5EED);
        for round in 0..40 {
            let n = rng.random_range(2..30usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-2.0..9.0), rng.random_range(0.01..4.0)))
                .collect();
            let budget = rng.random_range(0.5..8.0);
            let grid = rng.random_range(32..400usize);
            let mut inst = WdpInstance::new(items).with_budget(budget);
            if rng.random() {
                inst = inst.with_max_winners(rng.random_range(1..8usize));
            }
            let kind = SolverKind::Knapsack { grid };
            let sol = solve(&inst, kind);
            let (inc, naive) = both(&inst, &sol.selected, kind);
            assert_bits_equal(&inc, &naive, &format!("random budgeted round {round}"));
        }
    }

    #[test]
    fn zero_budget_keeps_free_items_only() {
        let inst = WdpInstance::new(vec![
            item(0, 5.5, 1.0),
            item(1, 2.25, 0.0),
            item(2, 1.125, 0.0),
        ])
        .with_budget(0.0);
        let kind = SolverKind::Knapsack { grid: 50 };
        let sol = solve(&inst, kind);
        assert_eq!(sol.selected, vec![1, 2]);
        let (inc, naive) = both(&inst, &sol.selected, kind);
        assert_bits_equal(&inc, &naive, "zero budget");
        assert_eq!(inc, vec![1.125, 2.25]);
    }

    #[test]
    fn non_candidate_target_returns_full_objective() {
        // Item 1 has negative weight: never a candidate, so excluding it
        // changes nothing.
        let inst = WdpInstance::new(vec![
            item(0, 3.3, 1.0),
            item(1, -1.0, 1.0),
            item(2, 2.2, 1.0),
        ])
        .with_budget(5.0);
        let kind = SolverKind::Knapsack { grid: 100 };
        let full = solve(&inst, kind).objective;
        let (inc, naive) = both(&inst, &[1], kind);
        assert_bits_equal(&inc, &naive, "non-candidate");
        assert_eq!(inc[0].to_bits(), full.to_bits());
    }

    #[test]
    fn exhaustive_kind_falls_back_to_naive() {
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 10.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
        ])
        .with_budget(8.0);
        let (inc, naive) = both(&inst, &[1, 2], SolverKind::Exhaustive);
        assert_bits_equal(&inc, &naive, "exhaustive fallback");
    }

    /// The textbook split scan: every (j, c) in order, first within
    /// `DP_EPS` wins.
    fn textbook_split(fs: &[f64], bs: &[f64], rows: usize, width: usize) -> (usize, usize) {
        let mut best = f64::NEG_INFINITY;
        let mut split = (0, 0);
        for j1 in 0..rows {
            for c1 in 0..width {
                let v = fs[j1 * width + c1] + bs[(rows - 1 - j1) * width + width - 1 - c1];
                if v > best + crate::wdp::DP_EPS {
                    best = v;
                    split = (j1, c1);
                }
            }
        }
        split
    }

    /// `best_split`, which skips 4-cell chunks on AVX2 CPUs, returns the
    /// textbook scan's (j, c) when split sums tie within `DP_EPS` inside
    /// one chunk, across a chunk edge and across count planes: the first
    /// tied cell wins. Seeded rows of near-tied values check the same.
    #[test]
    fn split_scan_keeps_first_of_tied_cells() {
        // Two ULPs above 1.0: distinct from it, but within DP_EPS of it.
        let near = 1.0 + 4.4e-16;
        let width = 10;
        // Plane 0 sums (b zero): ties at cells 3 and 4 across the edge of
        // chunks [0, 4) and [4, 8), and at cell 6 inside the second.
        let mut fs = vec![0.0; 2 * width];
        fs[..width].copy_from_slice(&[0.1, 0.2, 0.3, 1.0, near, 0.9, near, 0.2, 0.1, 0.0]);
        // Plane 1 ties plane 0's best at cell 1: plane 0's cell 3 still wins.
        fs[width + 1] = near;
        let bs = vec![0.0; 2 * width];
        assert_eq!(best_split(&fs, &bs, 2, width), (0, 3));
        assert_eq!(textbook_split(&fs, &bs, 2, width), (0, 3));
        // A plane-1 sum clearly above plane 0's best takes over.
        fs[width + 5] = 1.5;
        assert_eq!(best_split(&fs, &bs, 2, width), (1, 5));

        let mut rng = StdRng::seed_from_u64(0x5B11);
        for _ in 0..500 {
            let rows = rng.random_range(1..4usize);
            let width = rng.random_range(1..40usize);
            let mut draw = || [1.0, near, 1.0 - 4.4e-16, 0.5, 0.0][rng.random_range(0..5usize)];
            let fs: Vec<f64> = (0..rows * width).map(|_| draw()).collect();
            let bs: Vec<f64> = (0..rows * width).map(|_| draw() * 0.5).collect();
            assert_eq!(
                best_split(&fs, &bs, rows, width),
                textbook_split(&fs, &bs, rows, width),
                "rows {rows} width {width}"
            );
        }
    }

    #[test]
    fn pool_fanout_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(0xFA11);
        let items: Vec<WdpItem> = (0..40)
            .map(|i| item(i, rng.random_range(0.1..9.0), rng.random_range(0.05..3.0)))
            .collect();
        let inst = WdpInstance::new(items).with_budget(12.0);
        let kind = SolverKind::Knapsack { grid: 256 };
        let sol = solve(&inst, kind);
        let serial = leave_one_out_welfares_on(
            &inst,
            &sol.selected,
            kind,
            PaymentStrategy::Incremental,
            par::Pool::serial(),
        );
        let pooled = leave_one_out_welfares_on(
            &inst,
            &sol.selected,
            kind,
            PaymentStrategy::Incremental,
            par::Pool::with_threads(4),
        );
        assert_bits_equal(&pooled, &serial, "pool fanout");
    }
}
