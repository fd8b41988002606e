//! Winner-determination problem (WDP) solvers.
//!
//! The per-round problem is: given items with *score* `w_i` (already
//! combining platform value and weighted cost, e.g. `w_i = V·v_i − Q·c_i`)
//! and money cost `c_i`, choose a subset maximizing `Σ w_i` subject to an
//! optional cardinality cap and an optional budget cap on `Σ c_i`.
//!
//! Exact solutions are required for VCG truthfulness; this module provides
//! exact solvers for every constraint combination used by LOVM, plus a
//! greedy approximation and a fractional upper bound used by baselines and
//! the experiment harness. Every solve runs on one kernel, [`SolverArena`];
//! the free [`solve`]/[`solve_view`] are wrappers over a fresh arena.

/// Strict-improvement epsilon of every DP/scan comparison in the solver
/// stack: a candidate value only replaces an incumbent when it exceeds it
/// by more than `DP_EPS`.
///
/// Payments depend on this constant **bitwise**: the epsilon decides which
/// of two near-tied states wins, that decision picks the reconstructed
/// winner set, and the winner set drives every pivot welfare and payment
/// float downstream. The golden corpus, `pivot_equivalence`, and the
/// arena differential suite all pin outputs produced under this exact
/// value and comparison shape (`new > old + DP_EPS`), so any change to the
/// epsilon — or to the order the comparisons are evaluated in — is a
/// payment-breaking change, not a tuning knob.
pub const DP_EPS: f64 = 1e-15;

/// One candidate in a winner-determination instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdpItem {
    /// Stable bidder identifier carried through to the outcome.
    pub bidder: usize,
    /// Selection score (may be negative; negative items are never selected).
    pub weight: f64,
    /// Money cost counted against the budget constraint (must be ≥ 0).
    pub cost: f64,
}

/// A winner-determination instance.
#[derive(Debug, Clone, PartialEq)]
pub struct WdpInstance {
    /// Candidate items.
    pub items: Vec<WdpItem>,
    /// Maximum number of winners (`None` = unlimited).
    pub max_winners: Option<usize>,
    /// Budget cap on total selected cost (`None` = unlimited).
    pub budget: Option<f64>,
}

impl WdpInstance {
    /// Creates an unconstrained instance.
    pub fn new(items: Vec<WdpItem>) -> Self {
        WdpInstance {
            items,
            max_winners: None,
            budget: None,
        }
    }

    /// Adds a cardinality cap.
    pub fn with_max_winners(mut self, k: usize) -> Self {
        self.max_winners = Some(k);
        self
    }

    /// Adds a budget cap.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is negative or non-finite.
    pub fn with_budget(mut self, budget: f64) -> Self {
        assert!(
            budget.is_finite() && budget >= 0.0,
            "budget must be finite and >= 0"
        );
        self.budget = Some(budget);
        self
    }

    /// Objective value of a candidate selection (indices into `items`).
    pub fn objective(&self, selected: &[usize]) -> f64 {
        selected.iter().map(|&i| self.items[i].weight).sum()
    }

    /// Total cost of a candidate selection.
    pub fn total_cost(&self, selected: &[usize]) -> f64 {
        selected.iter().map(|&i| self.items[i].cost).sum()
    }

    /// Whether a selection satisfies both constraints (delegates to the
    /// full view so the comparison logic exists exactly once).
    pub fn feasible(&self, selected: &[usize]) -> bool {
        WdpView::full(self).feasible(selected)
    }
}

/// A borrowed sub-instance: a subset of a parent instance's items
/// (optionally minus one skipped item) under the parent's constraints.
///
/// Every solver in this module runs on views; [`solve`] is the
/// whole-instance wrapper. Views exist for two reasons:
///
/// * **Leave-one-out pivots** — [`WdpView::skipping`] drops one item with
///   zero allocation. The surviving parent indices keep their ascending
///   order, so every float is added in the same order as in a solve of the
///   instance with that item removed: `W*₋ᵢ` is defined as the objective
///   of `solve_view(&WdpView::full(inst).skipping(i), kind)`.
/// * **Sharding** (`crate::shard`) — a shard or a champion pool is an
///   ascending index subset of the full market; solving the view returns
///   parent indices directly, so shard solutions and reconciliation
///   outcomes compose without re-indexing.
///
/// Solutions of a view carry **parent indices** in `selected`; for a full
/// view these coincide with the instance's own indices.
#[derive(Debug, Clone, Copy)]
pub struct WdpView<'a> {
    parent: &'a WdpInstance,
    /// Ascending parent indices in the view, or `None` for all items.
    subset: Option<&'a [usize]>,
    /// Parent index excluded from the view (leave-one-out pivots).
    skip: Option<usize>,
}

impl<'a> WdpView<'a> {
    /// View over every item of `parent`.
    pub fn full(parent: &'a WdpInstance) -> Self {
        WdpView {
            parent,
            subset: None,
            skip: None,
        }
    }

    /// View over the given parent indices, which must be sorted ascending
    /// and unique (debug-checked).
    pub fn of_subset(parent: &'a WdpInstance, indices: &'a [usize]) -> Self {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "subset indices must be ascending and unique"
        );
        debug_assert!(indices.iter().all(|&i| i < parent.items.len()));
        WdpView {
            parent,
            subset: Some(indices),
            skip: None,
        }
    }

    /// The same view minus the item at `parent_idx` (for Clarke pivots).
    pub fn skipping(mut self, parent_idx: usize) -> Self {
        debug_assert!(self.skip.is_none(), "views support a single skip");
        self.skip = Some(parent_idx);
        self
    }

    /// The parent instance.
    pub fn parent(&self) -> &'a WdpInstance {
        self.parent
    }

    /// Cardinality cap (inherited from the parent).
    pub fn max_winners(&self) -> Option<usize> {
        self.parent.max_winners
    }

    /// Budget cap (inherited from the parent).
    pub fn budget(&self) -> Option<f64> {
        self.parent.budget
    }

    fn skip_is_member(&self) -> bool {
        match (self.skip, self.subset) {
            (None, _) => false,
            (Some(k), None) => k < self.parent.items.len(),
            (Some(k), Some(s)) => s.binary_search(&k).is_ok(),
        }
    }

    /// Number of items in the view.
    pub fn len(&self) -> usize {
        let base = match self.subset {
            Some(s) => s.len(),
            None => self.parent.items.len(),
        };
        base - usize::from(self.skip_is_member())
    }

    /// Whether the view has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The item at a parent index (must be a member of the view).
    #[inline]
    pub fn item(&self, parent_idx: usize) -> &WdpItem {
        &self.parent.items[parent_idx]
    }

    /// Iterates the view's parent indices in ascending order.
    pub fn indices(&self) -> WdpViewIter<'a> {
        WdpViewIter {
            subset: self.subset,
            pos: 0,
            parent_len: self.parent.items.len(),
            skip: self.skip,
        }
    }

    /// Whether a selection of parent indices satisfies the view's
    /// constraints (same comparisons and float order as
    /// [`WdpInstance::feasible`]).
    pub fn feasible(&self, selected: &[usize]) -> bool {
        if let Some(k) = self.max_winners() {
            if selected.len() > k {
                return false;
            }
        }
        if let Some(b) = self.budget() {
            let cost: f64 = selected.iter().map(|&i| self.item(i).cost).sum();
            if cost > b + 1e-9 {
                return false;
            }
        }
        true
    }
}

/// Ascending parent-index iterator of a [`WdpView`].
pub struct WdpViewIter<'a> {
    subset: Option<&'a [usize]>,
    pos: usize,
    parent_len: usize,
    skip: Option<usize>,
}

impl Iterator for WdpViewIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            let i = match self.subset {
                Some(s) => *s.get(self.pos)?,
                None => {
                    if self.pos >= self.parent_len {
                        return None;
                    }
                    self.pos
                }
            };
            self.pos += 1;
            if Some(i) == self.skip {
                continue;
            }
            return Some(i);
        }
    }
}

/// A solved winner-determination instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WdpSolution {
    /// Indices into [`WdpInstance::items`] of the selected items.
    pub selected: Vec<usize>,
    /// Achieved objective `Σ w_i`.
    pub objective: f64,
}

impl WdpSolution {
    /// Canonical solution construction: ascending parent indices, with the
    /// objective summed left-to-right over that order. Every solver and the
    /// incremental pivot engine go through this, which is what makes
    /// different derivations of the same selected set bit-identical.
    fn from_view(view: &WdpView<'_>, mut selected: Vec<usize>) -> Self {
        selected.sort_unstable();
        let objective = selected.iter().map(|&i| view.item(i).weight).sum();
        WdpSolution {
            selected,
            objective,
        }
    }
}

/// Which algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Automatically picks an exact algorithm for the constraint shape.
    Exact,
    /// Brute-force over all subsets (requires ≤ 25 items).
    Exhaustive,
    /// Budget-constrained dynamic program with this cost grid resolution.
    Knapsack {
        /// Number of grid cells the budget is discretized into.
        grid: usize,
    },
    /// Greedy by weight (cardinality) / weight-per-cost density (budget).
    GreedyDensity,
}

/// Solves a winner-determination instance ([`solve_view`] on the full
/// view).
pub fn solve(inst: &WdpInstance, kind: SolverKind) -> WdpSolution {
    solve_view(&WdpView::full(inst), kind)
}

/// Solves a winner-determination sub-instance view on a fresh
/// [`SolverArena`] (see [`SolverArena::solve_view_into`] for the dispatch).
/// Callers that solve repeatedly should keep an arena instead.
pub fn solve_view(view: &WdpView<'_>, kind: SolverKind) -> WdpSolution {
    SolverArena::new().solve_view(view, kind)
}

/// The per-`SolverKind` WDP latency histogram (`solve.wdp.<kind>_ns`).
/// Telemetry is a pure observer: these spans record wall time only and
/// can never reach a payment, digest, or journal byte.
fn solver_kind_hist(kind: SolverKind) -> &'static telemetry::Histogram {
    match kind {
        SolverKind::Exact => telemetry::hist!("solve.wdp.exact_ns"),
        SolverKind::Exhaustive => telemetry::hist!("solve.wdp.exhaustive_ns"),
        SolverKind::Knapsack { .. } => telemetry::hist!("solve.wdp.knapsack_ns"),
        SolverKind::GreedyDensity => telemetry::hist!("solve.wdp.greedy_ns"),
    }
}

/// Preference order of the no-budget solver into a caller-recycled buffer
/// (cleared first): positive-weight items by descending weight (parent
/// indices). Shared with the incremental pivot engine (`crate::pivots`)
/// and the shard pipeline, whose bit-identity contracts depend on using
/// exactly this filter and comparator.
///
/// The comparator is (weight descending, parent index ascending). Because
/// the candidates enter the buffer in ascending parent-index order, that
/// tiebreak makes `sort_unstable_by` produce the exact permutation a
/// stable descending-weight sort would — without the merge-sort scratch
/// allocation, which is what lets [`SolverArena`] top-K solves run
/// allocation-free at steady state.
pub(crate) fn fill_preference_order(view: &WdpView<'_>, order: &mut Vec<usize>) {
    order.clear();
    order.extend(view.indices().filter(|&i| view.item(i).weight > 0.0));
    order.sort_unstable_by(|&a, &b| {
        view.item(b)
            .weight
            .partial_cmp(&view.item(a).weight)
            .expect("weights are finite")
            .then_with(|| a.cmp(&b))
    });
}

/// Brute-force exact solver.
fn exhaustive(view: &WdpView<'_>) -> WdpSolution {
    let n = view.len();
    assert!(n <= 25, "exhaustive solver limited to 25 items, got {n}");
    let members: Vec<usize> = view.indices().collect();
    let mut best: Vec<usize> = Vec::new();
    let mut best_obj = 0.0f64;
    for mask in 0u32..(1u32 << n) {
        let sel: Vec<usize> = (0..n)
            .filter(|&p| mask & (1 << p) != 0)
            .map(|p| members[p])
            .collect();
        if !view.feasible(&sel) {
            continue;
        }
        let obj: f64 = sel.iter().map(|&i| view.item(i).weight).sum();
        if obj > best_obj + DP_EPS {
            best_obj = obj;
            best = sel;
        }
    }
    WdpSolution::from_view(view, best)
}

/// Knapsack candidate filter into a caller-recycled lane (cleared first):
/// positive weight and individually affordable, parent indices ascending.
/// Shared by the DP and the incremental pivot engine (`crate::pivots`) so
/// both see exactly the same item roster.
///
/// # Panics
///
/// Panics if any item of the view has a negative or non-finite cost.
pub(crate) fn fill_knapsack_candidates(view: &WdpView<'_>, budget: f64, cand: &mut Vec<usize>) {
    for i in view.indices() {
        let it = view.item(i);
        assert!(
            it.cost.is_finite() && it.cost >= 0.0,
            "knapsack requires non-negative finite costs"
        );
    }
    cand.clear();
    cand.extend(
        view.indices()
            .filter(|&i| view.item(i).weight > 0.0 && view.item(i).cost <= budget + 1e-12),
    );
}

/// Grid cell size for a budget discretized into `grid_eff` cells.
pub(crate) fn knapsack_cell(budget: f64, grid_eff: usize) -> f64 {
    if budget > 0.0 {
        budget / grid_eff as f64
    } else {
        1.0
    }
}

/// Discretized cost of one item. With a zero budget only zero-cost items
/// fit; `grid_eff + 1` marks "never fits".
pub(crate) fn knapsack_gcost(cost: f64, budget: f64, cell: f64, grid_eff: usize) -> usize {
    if budget == 0.0 {
        if cost > 0.0 {
            grid_eff + 1
        } else {
            0
        }
    } else {
        (cost / cell).floor() as usize
    }
}

/// Effective table width for the count-constrained DP: memory is
/// O(items · k · grid) bits, so the grid is coarsened if an absurd
/// combination is requested.
pub(crate) fn knapsack_width_2d(cand_len: usize, kmax: usize, grid: usize) -> usize {
    let width = grid + 1;
    let max_cells: usize = 1 << 28; // 256M flags ≈ 256 MB worst case
    if cand_len * (kmax + 1) * width > max_cells {
        (max_cells / (cand_len * (kmax + 1))).max(64)
    } else {
        width
    }
}

/// The budget repair's drop order over candidate positions (indices into
/// `cand`): density ascending, position descending on exact ties, where
/// density is `weight / cost.max(1e-12)`.
///
/// The repair drops the lowest-density selection first, the first of equal
/// ones in the selection vector's order. Every selection it sees is in
/// strictly descending candidate order: the DP traceback walks candidates
/// last to first, and the pivot merge (`crate::pivots`) emits its reversed
/// suffix walk ahead of its descending prefix walk. Within a selection,
/// "first in vector order" is therefore "highest position", so this order
/// over any superset of a selection, restricted to it, is that selection's
/// drop order. The solve ranks its own selection; the pivot merge ranks the
/// whole roster once and serves every target from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepairRank {
    density: Vec<f64>,
    order: Vec<usize>,
}

impl RepairRank {
    /// Ranks `positions` of the roster `cand` and returns the drop order.
    pub(crate) fn fill(
        &mut self,
        view: &WdpView<'_>,
        cand: &[usize],
        positions: impl IntoIterator<Item = usize>,
    ) -> &[usize] {
        let RepairRank { density, order } = self;
        density.clear();
        density.extend(
            cand.iter()
                .map(|&i| view.item(i).weight / view.item(i).cost.max(1e-12)),
        );
        order.clear();
        order.extend(positions);
        // Positions are unique, so the tiebreak makes the order total and
        // the unstable (allocation-free) sort's result unique.
        order.sort_unstable_by(|&a, &b| {
            density[a]
                .partial_cmp(&density[b])
                .expect("densities are finite")
                .then_with(|| b.cmp(&a))
        });
        order
    }
}

/// Post-DP repair: floor rounding may overshoot the true budget by up to
/// one cell per item, so lowest-density selections are dropped (first of
/// equal ones in the vector's order) until the true budget holds.
///
/// `selected` holds candidate positions (indices into `cand`) in strictly
/// descending order, and `rank` yields a [`RepairRank`] order over a
/// superset of it; it is called, with the selection, only when the
/// selection overspends. `spent` is summed in
/// selection order, then the rank is walked over a membership bitmap
/// (`member`, all zero on entry and on return), subtracting each member's
/// cost in drop order. That is the textbook greedy loop's drop sequence and
/// float trajectory, in O(s + r) for s selected and the r-long rank prefix
/// walked, instead of a rescan or a sort per selection.
pub(crate) fn repair_overspend<'r>(
    view: &WdpView<'_>,
    cand: &[usize],
    selected: &mut Vec<usize>,
    budget: f64,
    member: &mut Vec<u64>,
    rank: impl FnOnce(&[usize]) -> &'r [usize],
) {
    let cost = |q: usize| view.item(cand[q]).cost;
    let mut spent: f64 = selected.iter().map(|&q| cost(q)).sum();
    if spent <= budget + 1e-9 {
        return;
    }
    let words = cand.len().div_ceil(64);
    if member.len() < words {
        member.resize(words, 0);
    }
    for &q in selected.iter() {
        member[q >> 6] |= 1u64 << (q & 63);
    }
    for &q in rank(selected) {
        let bit = 1u64 << (q & 63);
        if member[q >> 6] & bit != 0 {
            member[q >> 6] &= !bit;
            spent -= cost(q);
            if spent <= budget + 1e-9 {
                break;
            }
        }
    }
    // Keep the survivors in order, clearing their bits on the way out.
    selected.retain(|&q| {
        let bit = 1u64 << (q & 63);
        let kept = member[q >> 6] & bit != 0;
        member[q >> 6] &= !bit;
        kept
    });
}

/// Bit-packed per-(item, cell) flag matrix backing DP tracebacks, one
/// `u64` word per 64 cells. Owned by a [`SolverArena`] (or the pivot
/// engine's sweeps) and recycled via [`FlagTable::reset`] so steady-state
/// solves re-zero the same words instead of allocating a fresh
/// `Vec<Vec<bool>>` — 8× less traceback memory than byte flags, zero
/// mallocs once warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlagTable {
    words: Vec<u64>,
    row_words: usize,
}

impl FlagTable {
    /// Clears the table and resizes it to `rows` rows of `row_bits` flags,
    /// all zero. Reuses the existing word buffer when it is large enough.
    pub(crate) fn reset(&mut self, rows: usize, row_bits: usize) {
        self.row_words = row_bits.div_ceil(64);
        self.words.clear();
        self.words.resize(rows * self.row_words, 0);
    }

    #[inline]
    pub(crate) fn get(&self, row: usize, bit: usize) -> bool {
        self.words[row * self.row_words + (bit >> 6)] & (1u64 << (bit & 63)) != 0
    }

    /// One row's words, for branchless `|=` updates in DP inner loops.
    #[inline]
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [u64] {
        let start = row * self.row_words;
        &mut self.words[start..start + self.row_words]
    }
}

/// Sets flag bits `[from, to)` in a packed row (whole words in the middle,
/// masked edges), the traceback twin of a saturated-span fill.
#[inline]
fn set_bit_span(row: &mut [u64], from: usize, to: usize) {
    if from >= to {
        return;
    }
    let (fw, fb) = (from >> 6, from & 63);
    let (lw, lb) = ((to - 1) >> 6, (to - 1) & 63);
    let first = !0u64 << fb;
    let last = !0u64 >> (63 - lb);
    if fw == lw {
        row[fw] |= first & last;
    } else {
        row[fw] |= first;
        for word in &mut row[fw + 1..lw] {
            *word = !0;
        }
        row[lw] |= last;
    }
}

/// One 0/1-knapsack item step on a 1-D cost-grid DP row, bit-identical to
/// the textbook descending sweep
/// `for c in (gc..width).rev() { if dp[c-gc] + w > dp[c] + DP_EPS { … } }`
/// but restructured for the hot path:
///
/// * **Saturated span.** `dp` is constant (bitwise) for `c >= sat`, where
///   `sat` is the capped running sum of processed items' grid costs: above
///   the reachable cost prefix every state holds the same "take
///   everything so far" value. For `c >= sat + gc` both `dp[c-gc]` and
///   `dp[c]` are that constant, so the comparison has one answer for the
///   whole span — evaluate it once, then splat-store the (identical)
///   updated value and word-fill the traceback bits. Same comparison on
///   the same bits as the per-cell loop, so the DP trajectory is
///   unchanged.
/// * **Compare span.** Below the saturation point the exact per-cell loop
///   runs, with the conditional store kept *branchy* (stores are rare and
///   the branch predicts well; an unconditional select-store doubles
///   memory traffic and measures ~2× slower here) and traceback bits
///   accumulated in a register, one `|=` per 64-cell word.
///
/// `bit_base` offsets the traceback bit index (`bit_base + c`) so the 2-D
/// solver can pack its `j` planes into one row. Callers that do not track
/// saturation pass `sat = width` (pure compare span). Returns nothing;
/// advancing `sat` (`min(sat + gc, width - 1)`) is the caller's job since
/// it is per-item state, not per-plane.
#[inline]
pub(crate) fn knapsack_item_step_1d(
    dp: &mut [f64],
    row: &mut [u64],
    bit_base: usize,
    gc: usize,
    w: f64,
    sat: usize,
) {
    let width = dp.len();
    let uni = (sat + gc).min(width);
    if uni < width {
        // Representative cells: dp[uni] == dp[c] and dp[uni-gc] == dp[c-gc]
        // for every c in the span (both indices are >= sat).
        let candidate = dp[uni - gc] + w;
        if candidate > dp[uni] + DP_EPS {
            for v in dp[uni..].iter_mut() {
                *v = candidate;
            }
            set_bit_span(row, bit_base + uni, bit_base + width);
        }
    }
    // Exact per-cell sweep over (gc..uni), highest cells first (the same
    // order the one-piece textbook loop visits them in).
    let mut upper = uni;
    while upper > gc {
        let word = (bit_base + upper - 1) >> 6;
        let base = word << 6;
        let lower = gc.max(base.saturating_sub(bit_base));
        let mut bits = row[word];
        for c in (lower..upper).rev() {
            let candidate = dp[c - gc] + w;
            if candidate > dp[c] + DP_EPS {
                dp[c] = candidate;
                bits |= 1u64 << (bit_base + c - base);
            }
        }
        row[word] = bits;
        upper = lower;
    }
}

/// One item step of the count-capped 2-D knapsack DP (`dp` is `kmax + 1`
/// row-major planes of `width` cells; plane `j` reads plane `j - 1`).
/// Descending `j` so every read sees pre-item state, each plane stepped by
/// [`knapsack_item_step_1d`] against its predecessor. The saturation
/// invariant holds per plane with the same shared `sat` (the constraint
/// `cost <= c` is vacuous above the reachable prefix in every plane).
#[inline]
pub(crate) fn knapsack_item_step_2d(
    dp: &mut [f64],
    row: &mut [u64],
    width: usize,
    kmax: usize,
    gc: usize,
    w: f64,
    sat: usize,
) {
    for j in (1..=kmax).rev() {
        let (below, plane) = dp[(j - 1) * width..(j + 1) * width].split_at_mut(width);
        let uni = (sat + gc).min(width);
        let bit_base = j * width;
        if uni < width {
            let candidate = below[uni - gc] + w;
            if candidate > plane[uni] + DP_EPS {
                for v in plane[uni..].iter_mut() {
                    *v = candidate;
                }
                set_bit_span(row, bit_base + uni, bit_base + width);
            }
        }
        let mut upper = uni;
        while upper > gc {
            let word = (bit_base + upper - 1) >> 6;
            let base = word << 6;
            let lower = gc.max(base.saturating_sub(bit_base));
            let mut bits = row[word];
            for c in (lower..upper).rev() {
                let candidate = below[c - gc] + w;
                if candidate > plane[c] + DP_EPS {
                    plane[c] = candidate;
                    bits |= 1u64 << (bit_base + c - base);
                }
            }
            row[word] = bits;
            upper = lower;
        }
    }
}

/// Per-worker reconstruction scratch: the selection being rebuilt (as
/// candidate positions) and the repair's membership bitmap. One lives in
/// every [`SolverArena`], serving its own solves and serial pivots;
/// parallel pivot workers build their own.
#[derive(Debug, Clone, Default)]
pub(crate) struct LooScratch {
    pub(crate) selected: Vec<usize>,
    pub(crate) member: Vec<u64>,
}

/// The winner-determination solver: flat DP rows, a bit-packed traceback,
/// and struct-of-arrays candidate lanes, all recycled across solves.
///
/// The knapsack kernel computes **bit-identical** results to the textbook
/// 0/1-knapsack DP: it keeps the exact `dp[c - gc] + w > dp[c] + DP_EPS`
/// comparison, the same cell iteration order, and the same
/// ascending-index reconstruction — it only restructures *where the bytes
/// live and how the iteration space is walked* (SoA lanes walked
/// contiguously, the per-candidate `gc <= grid` test hoisted out of the
/// cell loop, the saturated high-cost span collapsed to one representative
/// comparison, traceback bits accumulated per 64-cell word — see
/// [`knapsack_item_step_1d`]). Brute force only reaches 25 items, so the
/// textbook DP is kept as a test-only reference (`wdp::reference`) and a
/// seeded differential sweep pins the contract above that size.
///
/// Reuse contract: keep one arena per worker. Serial callers
/// (`LOVM_THREADS=1`) that hold an arena across rounds reach zero
/// steady-state heap allocations per solve; parallel fan-outs give each
/// worker its own arena via [`par::Pool::run_with`], so no buffer is ever
/// shared and determinism is untouched (scratch never feeds an output
/// bit).
#[derive(Debug, Clone, Default)]
pub struct SolverArena {
    /// Candidate parent indices (ascending), the SoA "who" lane.
    pub(crate) cand: Vec<usize>,
    /// Grid-discretized costs, parallel to `cand`.
    pub(crate) gcosts: Vec<usize>,
    /// Selection weights, parallel to `cand`.
    pub(crate) weights: Vec<f64>,
    /// Flat DP value table (`rows * width` for the 2-D solver).
    pub(crate) dp: Vec<f64>,
    taken: FlagTable,
    /// Preference order for top-K solves.
    pub(crate) order: Vec<usize>,
    /// The budget repair's drop order over `cand`.
    pub(crate) rank: RepairRank,
    // Lanes below are the incremental pivot engine's (crate::pivots)
    // checkpointed forward/backward merge workspace; they ride in the same
    // arena so one object threads through solve + payments.
    /// Candidate positions of the pivot targets, ascending.
    pub(crate) target_pos: Vec<usize>,
    pub(crate) fwd_taken: FlagTable,
    pub(crate) bwd_taken: FlagTable,
    /// Forward DP rows at the start of each checkpoint block that holds a
    /// target, and the saturation index each was taken at.
    pub(crate) ckpt: Vec<f64>,
    pub(crate) ckpt_sat: Vec<usize>,
    /// One block's recomputed forward rows, one per target in the block,
    /// and the row they are recomputed in.
    pub(crate) ring: Vec<f64>,
    pub(crate) fwd_row: Vec<f64>,
    /// Throwaway traceback row for the recompute's flags.
    pub(crate) scrap: FlagTable,
    /// Best (count, cost) split of each target, parallel to `target_pos`.
    pub(crate) splits: Vec<(usize, usize)>,
    pub(crate) loo: LooScratch,
}

impl SolverArena {
    /// An empty arena; buffers grow on first use and are then recycled.
    pub fn new() -> Self {
        SolverArena::default()
    }

    /// [`SolverArena::solve_view_into`] returning an owned solution.
    pub fn solve_view(&mut self, view: &WdpView<'_>, kind: SolverKind) -> WdpSolution {
        let mut out = WdpSolution::default();
        self.solve_view_into(view, kind, &mut out);
        out
    }

    /// Solves a view into a caller-recycled solution. `selected` holds
    /// **parent indices**, ascending.
    ///
    /// `SolverKind::Exact` dispatches to:
    /// * top-K selection when no budget constraint is present (exact),
    /// * exhaustive search when ≤ 25 items (exact),
    /// * knapsack DP with a fine grid otherwise (exact up to cost rounding;
    ///   costs round down onto the grid and the selection is then repaired
    ///   to true feasibility, so it is always feasible).
    ///
    /// The hot dispatches (top-K and knapsack — everything a LOVM round
    /// can hit) run entirely on arena buffers: zero heap allocations once
    /// `self` and `out` have warmed up. `Exhaustive` and `GreedyDensity`
    /// are cold experiment/baseline paths and allocate.
    ///
    /// # Panics
    ///
    /// Panics if `Exhaustive` is requested for more than 25 items, or item
    /// costs are negative/non-finite when a budget constraint is present.
    pub fn solve_view_into(&mut self, view: &WdpView<'_>, kind: SolverKind, out: &mut WdpSolution) {
        // Per-`SolverKind` latency span; inert (no clock read) unless
        // telemetry is enabled. Handles live in leaked statics, so the
        // steady-state zero-allocation contract holds with telemetry on.
        let _solve_span = solver_kind_hist(kind).span();
        match kind {
            SolverKind::Exact => match view.budget() {
                None => self.top_k_into(view, out),
                Some(_) if view.len() <= 25 => copy_solution(exhaustive(view), out),
                Some(_) => self.knapsack_into(view, 4000, out),
            },
            SolverKind::Exhaustive => copy_solution(exhaustive(view), out),
            SolverKind::Knapsack { grid } => match view.budget() {
                Some(_) => self.knapsack_into(view, grid, out),
                None => self.top_k_into(view, out),
            },
            SolverKind::GreedyDensity => copy_solution(greedy_density(view), out),
        }
    }

    /// Exact solver for views without a budget constraint: the top-K
    /// positive-weight items, via the preference order in the recycled
    /// `order` lane.
    fn top_k_into(&mut self, view: &WdpView<'_>, out: &mut WdpSolution) {
        let k = view.max_winners().unwrap_or(view.len());
        fill_preference_order(view, &mut self.order);
        let take = k.min(self.order.len());
        out.selected.clear();
        out.selected.extend_from_slice(&self.order[..take]);
        finish_canonical(view, out);
    }

    /// Budget-constrained 0/1 knapsack DP over a discretized cost grid, on
    /// SoA lanes and flat tables.
    ///
    /// Costs are rounded *down* to grid cells (which keeps tight optimal
    /// packs representable) and the reconstructed selection is then
    /// repaired to true feasibility by dropping lowest-density items; with
    /// a fine grid the objective loss is negligible. A cardinality
    /// constraint, when present, adds a count dimension.
    fn knapsack_into(&mut self, view: &WdpView<'_>, grid: usize, out: &mut WdpSolution) {
        let budget = view.budget().expect("knapsack requires a budget");
        assert!(grid >= 1, "grid must be at least 1");
        fill_knapsack_candidates(view, budget, &mut self.cand);
        let m = self.cand.len();
        if m == 0 {
            out.selected.clear();
            finish_canonical(view, out);
            return;
        }
        self.weights.clear();
        self.weights
            .extend(self.cand.iter().map(|&i| view.item(i).weight));
        match view.max_winners() {
            None => {
                let width = grid + 1;
                let cell = knapsack_cell(budget, grid);
                self.gcosts.clear();
                self.gcosts.extend(
                    self.cand
                        .iter()
                        .map(|&i| knapsack_gcost(view.item(i).cost, budget, cell, grid)),
                );
                self.dp.clear();
                self.dp.resize(width, 0.0);
                self.taken.reset(m, width);
                // `sat`: dp is constant (bitwise) from this index up — the
                // capped reachable-cost prefix (see knapsack_item_step_1d).
                let mut sat = 0usize;
                for t in 0..m {
                    let gc = self.gcosts[t];
                    // Hoisted unaffordability test: the item never fits,
                    // and the reset table's traceback row is already zero.
                    if gc > grid {
                        continue;
                    }
                    knapsack_item_step_1d(
                        &mut self.dp[..width],
                        self.taken.row_mut(t),
                        0,
                        gc,
                        self.weights[t],
                        sat,
                    );
                    sat = (sat + gc).min(width - 1);
                }
                let mut bc = 0usize;
                for (c, &v) in self.dp.iter().enumerate() {
                    if v > self.dp[bc] + DP_EPS {
                        bc = c;
                    }
                }
                out.selected.clear();
                let mut c = bc;
                for t in (0..m).rev() {
                    if self.taken.get(t, c) {
                        out.selected.push(t);
                        c -= self.gcosts[t];
                    }
                }
            }
            Some(k) => {
                let kmax = k.min(m);
                let width = knapsack_width_2d(m, kmax, grid);
                let grid_eff = width - 1;
                let cell_eff = knapsack_cell(budget, grid_eff);
                self.gcosts.clear();
                self.gcosts.extend(
                    self.cand
                        .iter()
                        .map(|&i| knapsack_gcost(view.item(i).cost, budget, cell_eff, grid_eff)),
                );
                let rows = kmax + 1;
                self.dp.clear();
                self.dp.resize(rows * width, 0.0);
                self.taken.reset(m, rows * width);
                let mut sat = 0usize;
                for t in 0..m {
                    let gc = self.gcosts[t];
                    if gc > grid_eff {
                        continue;
                    }
                    knapsack_item_step_2d(
                        &mut self.dp[..rows * width],
                        self.taken.row_mut(t),
                        width,
                        kmax,
                        gc,
                        self.weights[t],
                        sat,
                    );
                    sat = (sat + gc).min(width - 1);
                }
                // Flat row-major scan == the (j outer, c inner) order.
                let (mut bj, mut bc, mut best) = (0usize, 0usize, 0.0f64);
                for (idx, &v) in self.dp.iter().enumerate() {
                    if v > best + DP_EPS {
                        best = v;
                        bj = idx / width;
                        bc = idx % width;
                    }
                }
                out.selected.clear();
                let (mut j, mut c) = (bj, bc);
                for t in (0..m).rev() {
                    if j == 0 {
                        break;
                    }
                    if self.taken.get(t, j * width + c) {
                        out.selected.push(t);
                        c -= self.gcosts[t];
                        j -= 1;
                    }
                }
            }
        }
        // The tracebacks above pushed candidate positions, last first: the
        // order the repair expects. It ranks the selection only on
        // overspend.
        let SolverArena {
            cand, rank, loo, ..
        } = self;
        let cand = &*cand;
        repair_overspend(
            view,
            cand,
            &mut out.selected,
            budget,
            &mut loo.member,
            move |sel| rank.fill(view, cand, sel.iter().copied()),
        );
        for s in out.selected.iter_mut() {
            *s = cand[*s];
        }
        finish_canonical(view, out);
    }
}

/// Canonicalizes an in-place solution exactly like
/// [`WdpSolution::from_view`]: ascending indices, objective summed
/// left-to-right over that order.
pub(crate) fn finish_canonical(view: &WdpView<'_>, out: &mut WdpSolution) {
    out.selected.sort_unstable();
    out.objective = out.selected.iter().map(|&i| view.item(i).weight).sum();
}

/// Moves an owned solution into a recycled output slot (cold paths only).
fn copy_solution(sol: WdpSolution, out: &mut WdpSolution) {
    out.selected.clear();
    out.selected.extend_from_slice(&sol.selected);
    out.objective = sol.objective;
}

/// Greedy approximation: by weight when only cardinality binds, by
/// weight/cost density under a budget.
fn greedy_density(view: &WdpView<'_>) -> WdpSolution {
    let mut order: Vec<usize> = view
        .indices()
        .filter(|&i| view.item(i).weight > 0.0)
        .collect();
    match view.budget() {
        None => order.sort_by(|&a, &b| {
            view.item(b)
                .weight
                .partial_cmp(&view.item(a).weight)
                .expect("weights are finite")
        }),
        Some(_) => order.sort_by(|&a, &b| {
            let da = view.item(a).weight / view.item(a).cost.max(1e-12);
            let db = view.item(b).weight / view.item(b).cost.max(1e-12);
            db.partial_cmp(&da).expect("densities are finite")
        }),
    }
    let k = view.max_winners().unwrap_or(view.len());
    let mut selected = Vec::new();
    let mut spent = 0.0;
    for i in order {
        if selected.len() >= k {
            break;
        }
        if let Some(b) = view.budget() {
            if spent + view.item(i).cost > b + 1e-12 {
                continue;
            }
        }
        spent += view.item(i).cost;
        selected.push(i);
    }
    WdpSolution::from_view(view, selected)
}

/// Fractional (LP-relaxation) upper bound on the optimum of a
/// budget-constrained instance; equals the exact optimum when no budget is
/// present. Used as the denominator in competitive-ratio plots.
pub fn fractional_upper_bound(inst: &WdpInstance) -> f64 {
    match inst.budget {
        None => solve(inst, SolverKind::Exact).objective,
        Some(budget) => {
            let mut order: Vec<usize> = (0..inst.items.len())
                .filter(|&i| inst.items[i].weight > 0.0)
                .collect();
            order.sort_by(|&a, &b| {
                let da = inst.items[a].weight / inst.items[a].cost.max(1e-12);
                let db = inst.items[b].weight / inst.items[b].cost.max(1e-12);
                db.partial_cmp(&da).expect("densities are finite")
            });
            let k = inst.max_winners.unwrap_or(inst.items.len());
            let mut remaining = budget;
            let mut total = 0.0;
            let mut count = 0usize;
            for i in order {
                if count >= k || remaining <= 0.0 {
                    break;
                }
                let it = inst.items[i];
                if it.cost <= remaining {
                    total += it.weight;
                    remaining -= it.cost;
                    count += 1;
                } else if it.cost > 0.0 {
                    total += it.weight * remaining / it.cost;
                    remaining = 0.0;
                }
            }
            total
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{rngs::StdRng, RngExt, SeedableRng};

    fn item(bidder: usize, weight: f64, cost: f64) -> WdpItem {
        WdpItem {
            bidder,
            weight,
            cost,
        }
    }

    /// The instance with item `idx` removed, materialized: the oracle the
    /// allocation-free [`WdpView::skipping`] is held against.
    fn without_item(inst: &WdpInstance, idx: usize) -> WdpInstance {
        let mut items = inst.items.clone();
        items.remove(idx);
        WdpInstance {
            items,
            max_winners: inst.max_winners,
            budget: inst.budget,
        }
    }

    #[test]
    fn top_k_selects_heaviest_positive() {
        let inst = WdpInstance::new(vec![
            item(0, 3.0, 1.0),
            item(1, -1.0, 1.0),
            item(2, 5.0, 1.0),
            item(3, 1.0, 1.0),
        ])
        .with_max_winners(2);
        let sol = solve(&inst, SolverKind::Exact);
        assert_eq!(sol.selected, vec![0, 2]);
        assert_eq!(sol.objective, 8.0);
    }

    #[test]
    fn unconstrained_takes_all_positive() {
        let inst = WdpInstance::new(vec![
            item(0, 1.0, 0.0),
            item(1, -2.0, 0.0),
            item(2, 0.5, 0.0),
        ]);
        let sol = solve(&inst, SolverKind::Exact);
        assert_eq!(sol.selected, vec![0, 2]);
    }

    #[test]
    fn exhaustive_respects_budget() {
        // Best unbudgeted = {0, 1} (weight 10), but budget only allows {1, 2}.
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 10.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
        ])
        .with_budget(8.0);
        let sol = solve(&inst, SolverKind::Exhaustive);
        assert_eq!(sol.selected, vec![1, 2]);
        assert_eq!(sol.objective, 7.0);
    }

    #[test]
    fn knapsack_matches_exhaustive_small() {
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 10.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
            item(3, 2.5, 2.0),
        ])
        .with_budget(9.0);
        let ex = solve(&inst, SolverKind::Exhaustive);
        let kn = solve(&inst, SolverKind::Knapsack { grid: 2000 });
        assert!((ex.objective - kn.objective).abs() < 0.05);
        assert!(inst.feasible(&kn.selected));
    }

    #[test]
    fn knapsack_with_cardinality() {
        let inst = WdpInstance::new(vec![
            item(0, 5.0, 1.0),
            item(1, 4.0, 1.0),
            item(2, 3.0, 1.0),
        ])
        .with_budget(10.0)
        .with_max_winners(2);
        let sol = solve(&inst, SolverKind::Knapsack { grid: 100 });
        assert_eq!(sol.selected, vec![0, 1]);
    }

    #[test]
    fn knapsack_zero_budget_only_free_items() {
        let inst = WdpInstance::new(vec![item(0, 5.0, 1.0), item(1, 2.0, 0.0)]).with_budget(0.0);
        let sol = solve(&inst, SolverKind::Knapsack { grid: 100 });
        assert_eq!(sol.selected, vec![1]);
    }

    #[test]
    fn greedy_density_feasible_and_reasonable() {
        let inst = WdpInstance::new(vec![
            item(0, 10.0, 10.0), // density 1.0
            item(1, 6.0, 3.0),   // density 2.0
            item(2, 5.0, 3.0),   // density 1.67
        ])
        .with_budget(6.0);
        let sol = solve(&inst, SolverKind::GreedyDensity);
        assert_eq!(sol.selected, vec![1, 2]);
        assert!(inst.feasible(&sol.selected));
    }

    #[test]
    fn fractional_bound_dominates_exact() {
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 5.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
        ])
        .with_budget(7.0);
        let exact = solve(&inst, SolverKind::Exhaustive);
        let bound = fractional_upper_bound(&inst);
        assert!(bound >= exact.objective - 1e-9);
    }

    #[test]
    fn without_item_shifts_indices() {
        let inst = WdpInstance::new(vec![
            item(0, 1.0, 1.0),
            item(1, 2.0, 2.0),
            item(2, 3.0, 3.0),
        ]);
        let reduced = without_item(&inst, 1);
        assert_eq!(reduced.items.len(), 2);
        assert_eq!(reduced.items[1].bidder, 2);
    }

    /// Property: the allocation-free skip view visits the same item
    /// sequence as the materialized `without_item` clone, so solving it is
    /// bit-identical — objective included — across all four constraint
    /// combos and every solver dispatch.
    #[test]
    fn skip_view_bit_identical_to_without_item() {
        let mut rng = StdRng::seed_from_u64(0x5C1B);
        for round in 0..60 {
            // Small n exercises the exhaustive dispatch (2ⁿ masks), larger
            // n the knapsack/top-K dispatch via an explicit grid kind.
            let small = rng.random();
            let n = if small {
                rng.random_range(2..11usize)
            } else {
                rng.random_range(28..50usize)
            };
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-3.0..9.0), rng.random_range(0.0..4.0)))
                .collect();
            let mut inst = WdpInstance::new(items);
            if rng.random() {
                inst = inst.with_max_winners(rng.random_range(1..8usize));
            }
            if rng.random() {
                inst = inst.with_budget(rng.random_range(0.0..12.0));
            }
            let kind = if small {
                SolverKind::Exact
            } else {
                SolverKind::Knapsack { grid: 300 }
            };
            for idx in 0..n {
                let cloned = solve(&without_item(&inst, idx), kind);
                let viewed = solve_view(&WdpView::full(&inst).skipping(idx), kind);
                assert_eq!(
                    cloned.objective.to_bits(),
                    viewed.objective.to_bits(),
                    "round {round} idx {idx}: clone {} vs view {}",
                    cloned.objective,
                    viewed.objective
                );
                assert_eq!(cloned.selected.len(), viewed.selected.len());
            }
        }
    }

    /// A subset view solves exactly the materialized sub-instance: same
    /// winner set (mapped through the subset) and bit-identical objective.
    #[test]
    fn subset_view_matches_materialized_subinstance() {
        let mut rng = StdRng::seed_from_u64(0x50B5);
        for _ in 0..40 {
            // Subsets stay ≤ ~16 items so the budgeted Exact dispatch
            // (exhaustive) remains cheap.
            let n = rng.random_range(4..32usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-2.0..8.0), rng.random_range(0.1..3.0)))
                .collect();
            let mut inst = WdpInstance::new(items).with_max_winners(rng.random_range(1..6usize));
            if rng.random() {
                inst = inst.with_budget(rng.random_range(0.5..10.0));
            }
            let subset: Vec<usize> = (0..n)
                .filter(|_| rng.random_range(0..2usize) == 0)
                .take(16)
                .collect();
            let materialized = WdpInstance {
                items: subset.iter().map(|&i| inst.items[i]).collect(),
                max_winners: inst.max_winners,
                budget: inst.budget,
            };
            let sub_sol = solve(&materialized, SolverKind::Exact);
            let view_sol = solve_view(&WdpView::of_subset(&inst, &subset), SolverKind::Exact);
            assert_eq!(
                sub_sol.objective.to_bits(),
                view_sol.objective.to_bits(),
                "objectives diverged"
            );
            let mapped: Vec<usize> = sub_sol.selected.iter().map(|&p| subset[p]).collect();
            assert_eq!(mapped, view_sol.selected, "selections diverged");
        }
    }

    #[test]
    fn view_len_and_iteration_respect_skip() {
        let inst = WdpInstance::new(vec![
            item(0, 1.0, 1.0),
            item(1, 2.0, 1.0),
            item(2, 3.0, 1.0),
            item(3, 4.0, 1.0),
        ]);
        let full = WdpView::full(&inst);
        assert_eq!(full.len(), 4);
        assert_eq!(full.indices().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let skipped = full.skipping(2);
        assert_eq!(skipped.len(), 3);
        assert_eq!(skipped.indices().collect::<Vec<_>>(), vec![0, 1, 3]);
        let subset = [1usize, 2, 3];
        let sub = WdpView::of_subset(&inst, &subset).skipping(3);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.indices().collect::<Vec<_>>(), vec![1, 2]);
        assert!(!sub.is_empty());
    }

    #[test]
    fn empty_instance_empty_solution() {
        let inst = WdpInstance::new(vec![]);
        for kind in [
            SolverKind::Exact,
            SolverKind::Exhaustive,
            SolverKind::GreedyDensity,
        ] {
            let sol = solve(&inst, kind);
            assert!(sol.selected.is_empty());
            assert_eq!(sol.objective, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "exhaustive solver limited")]
    fn exhaustive_size_guard() {
        let items: Vec<WdpItem> = (0..30).map(|i| item(i, 1.0, 1.0)).collect();
        let _ = solve(&WdpInstance::new(items), SolverKind::Exhaustive);
    }

    /// Property: exact dispatch must match brute force on small instances
    /// (seeded random instances).
    #[test]
    fn exact_matches_exhaustive() {
        let mut rng = StdRng::seed_from_u64(0xE8AC);
        for _ in 0..150 {
            let n = rng.random_range(1..10usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-5.0..10.0), rng.random_range(0.0..5.0)))
                .collect();
            let k = rng.random_range(1..6usize);
            let use_budget: bool = rng.random();
            let mut inst = WdpInstance::new(items).with_max_winners(k);
            if use_budget {
                inst = inst.with_budget(rng.random_range(0.0..15.0));
            }
            let exact = solve(&inst, SolverKind::Exact);
            let brute = solve(&inst, SolverKind::Exhaustive);
            // Knapsack grid rounding may lose a sliver of objective; the
            // no-budget path must be exactly optimal.
            let tol = if use_budget { 0.1 } else { 1e-9 };
            assert!(
                exact.objective >= brute.objective - tol,
                "exact {} < brute {}",
                exact.objective,
                brute.objective
            );
            assert!(inst.feasible(&exact.selected));
        }
    }

    /// Boundary behaviour of the grid discretizer: exact cell edges floor
    /// onto the edge, unaffordable items land strictly past `grid_eff`,
    /// and a zero budget admits only zero-cost items.
    #[test]
    fn gcost_boundaries() {
        let budget = 10.0;
        let grid_eff = 100usize;
        let cell = knapsack_cell(budget, grid_eff);
        assert_eq!(cell, 0.1);
        // Cost exactly on a cell edge: 2.0 / 0.1 = 20.0 floors to cell 20,
        // not 19 or 21 — the pack stays representable without rounding up.
        assert_eq!(knapsack_gcost(2.0, budget, cell, grid_eff), 20);
        // Cost equal to the whole budget occupies the last cell, still
        // affordable.
        assert_eq!(knapsack_gcost(budget, budget, cell, grid_eff), grid_eff);
        // Just inside an edge floors down to the previous cell.
        assert_eq!(
            knapsack_gcost(0.1 * 20.0 - 1e-9, budget, cell, grid_eff),
            19
        );
        // Cost above the budget grid-rounds past grid_eff, so the DP's
        // `gc <= grid` guard (and the arena's hoisted twin) skips it.
        assert!(knapsack_gcost(10.5, budget, cell, grid_eff) > grid_eff);
        // Zero budget: any positive cost is "never fits" = grid_eff + 1,
        // zero cost occupies cell 0.
        assert_eq!(
            knapsack_gcost(0.5, 0.0, knapsack_cell(0.0, grid_eff), grid_eff),
            grid_eff + 1
        );
        assert_eq!(
            knapsack_gcost(0.0, 0.0, knapsack_cell(0.0, grid_eff), grid_eff),
            0
        );
    }

    /// Boundary behaviour of the 2-D table sizing: small shapes keep the
    /// full grid, absurd shapes coarsen to the memory cap, and the width
    /// never collapses below the 64-cell floor.
    #[test]
    fn width_2d_coarsening_edges() {
        // Small instance, kmax = 1: full width survives.
        assert_eq!(knapsack_width_2d(10, 1, 4000), 4001);
        // Exactly at the cap: 2 * 2 * width <= 1<<28 holds for width
        // (1<<26), so no coarsening.
        assert_eq!(knapsack_width_2d(2, 1, (1 << 26) - 1), 1 << 26);
        // Absurd n × grid: 4096 candidates × kmax 15 over a 2²⁰ grid
        // coarsens the width to max_cells / (n * (kmax + 1)).
        let w = knapsack_width_2d(1 << 12, 15, 1 << 20);
        assert_eq!(w, (1usize << 28) / ((1 << 12) * 16));
        assert_eq!(w, 4096);
        // Degenerate overload: the 64-cell floor wins over the quotient.
        assert_eq!(knapsack_width_2d(1 << 24, 63, 4000), 64);
        // kmax = 1 with a huge candidate pool: quotient 32 is clamped up
        // to the 64-cell floor.
        assert_eq!(knapsack_width_2d(1 << 22, 1, 1 << 10), 64);
    }

    /// The arena solver matches the textbook reference bit-for-bit on
    /// hand-built boundary instances (the big seeded sweeps live in
    /// `wdp::reference`).
    #[test]
    fn arena_matches_legacy_on_boundaries() {
        let mut arena = SolverArena::new();
        let cases = [
            WdpInstance::new(vec![item(0, 5.0, 1.0), item(1, 2.0, 0.0)]).with_budget(0.0),
            WdpInstance::new(vec![
                item(0, 6.0, 10.0),
                item(1, 4.0, 4.0),
                item(2, 3.0, 3.0),
                item(3, 2.5, 2.0),
            ])
            .with_budget(9.0),
            WdpInstance::new(vec![
                item(0, 5.0, 1.0),
                item(1, 4.0, 1.0),
                item(2, 3.0, 1.0),
            ])
            .with_budget(10.0)
            .with_max_winners(2),
            WdpInstance::new(vec![item(0, 3.0, 1.0), item(1, 5.0, 1.0)]).with_max_winners(1),
            WdpInstance::new(vec![]),
        ];
        for inst in &cases {
            for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 100 }] {
                let view = WdpView::full(inst);
                let expected = reference::solve_view(&view, kind);
                let fresh = arena.solve_view(&view, kind);
                assert_eq!(expected.selected, fresh.selected);
                assert_eq!(expected.objective.to_bits(), fresh.objective.to_bits());
                // Second solve through the now-warm arena: recycled
                // buffers must not leak state between solves.
                let warm = arena.solve_view(&view, kind);
                assert_eq!(expected.selected, warm.selected);
                assert_eq!(expected.objective.to_bits(), warm.objective.to_bits());
            }
        }
    }

    /// Property: greedy is always feasible and never exceeds the exact
    /// optimum (seeded random instances).
    #[test]
    fn greedy_feasible_and_bounded() {
        let mut rng = StdRng::seed_from_u64(0x62EE);
        for _ in 0..150 {
            let n = rng.random_range(1..12usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(0.1..10.0), rng.random_range(0.1..5.0)))
                .collect();
            let budget = rng.random_range(1.0..20.0f64);
            let inst = WdpInstance::new(items).with_budget(budget);
            let greedy = solve(&inst, SolverKind::GreedyDensity);
            let brute = solve(&inst, SolverKind::Exhaustive);
            assert!(inst.feasible(&greedy.selected));
            assert!(greedy.objective <= brute.objective + 1e-9);
            let bound = fractional_upper_bound(&inst);
            assert!(bound >= brute.objective - 1e-9);
        }
    }
}
