//! Clarke-pivot (VCG) procurement auction over a weighted score.
//!
//! The mechanism maximizes the *virtual welfare*
//! `W(S) = Σ_{i∈S} (V·v_i − Q·ĉ_i)` where `V` is the value weight
//! ([`VcgConfig::value_weight`]), `Q > 0` the cost weight
//! ([`VcgConfig::cost_weight`]), `v_i` the platform's (verifiable) value for
//! client `i` and `ĉ_i` the reported cost. Winner `i` is paid
//!
//! ```text
//! p_i = ĉ_i + (W* − W*₋ᵢ) / Q
//! ```
//!
//! where `W*₋ᵢ` is the optimal virtual welfare with `i` excluded. Because
//! the allocation maximizes `W` exactly and `Q` is bid-independent, this is
//! the Clarke pivot rule expressed in money: reporting `ĉ_i = c_i` is a
//! dominant strategy, and `p_i ≥ ĉ_i` (individual rationality) follows from
//! `W* ≥ W*₋ᵢ`.

use crate::bid::Bid;
use crate::outcome::{AuctionOutcome, Award};
use crate::pivots::{leave_one_out_welfares_view_into, PaymentStrategy};
use crate::shard::{solve_sharded_arena_on, MarketTopology};
use crate::valuation::Valuation;
use crate::wdp::{SolverArena, SolverKind, WdpInstance, WdpItem, WdpSolution, WdpView};

/// Reusable workspace for an auction round: the solver arena plus the
/// instance/solution/welfare buffers one round churns through. Every
/// `VcgAuction` entry point runs on one; the allocating ones pass a fresh
/// scratch. `core::Lovm` keeps one alive across rounds, which is what
/// makes a sustained `lovm stream` / `serve` session allocate nothing per
/// sealed round inside the solver (the returned [`AuctionOutcome`] still
/// owns its award vector — that is the API's output, not solver scratch).
#[derive(Debug, Clone, Default)]
pub struct RoundScratch {
    arena: SolverArena,
    items: Vec<WdpItem>,
    solution: WdpSolution,
    welfares: Vec<f64>,
}

impl RoundScratch {
    /// An empty scratch; buffers warm up over the first rounds.
    pub fn new() -> Self {
        RoundScratch::default()
    }
}

/// Configuration of one VCG round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcgConfig {
    /// Weight on platform value in the virtual welfare (`V ≥ 0`).
    pub value_weight: f64,
    /// Weight on reported cost in the virtual welfare (`Q > 0`).
    pub cost_weight: f64,
    /// Cardinality cap on winners.
    pub max_winners: Option<usize>,
    /// Reserve price: bids reporting a cost above it are excluded and no
    /// payment exceeds it. With exact allocation the critical report
    /// becomes `min(standard pivot price, reserve)`, so truthfulness is
    /// preserved. `None` disables the reserve.
    pub reserve_price: Option<f64>,
    /// Market layout: one monolithic winner determination, or the
    /// partition → per-shard solve → champion-reconciliation pipeline of
    /// [`crate::shard`]. `Sharded { count: 1 }` is the monolithic path;
    /// for no-budget (top-K) rounds every shard count is bit-identical to
    /// it, while budgeted rounds trade a measured sliver of welfare for
    /// bounded memory.
    pub topology: MarketTopology,
}

impl Default for VcgConfig {
    fn default() -> Self {
        VcgConfig {
            value_weight: 1.0,
            cost_weight: 1.0,
            max_winners: None,
            reserve_price: None,
            topology: MarketTopology::Monolithic,
        }
    }
}

/// A sealed-bid VCG procurement auction (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcgAuction {
    config: VcgConfig,
}

impl VcgAuction {
    /// Creates the auction.
    ///
    /// # Panics
    ///
    /// Panics if `cost_weight <= 0`, `value_weight < 0`, or either weight is
    /// non-finite.
    pub fn new(config: VcgConfig) -> Self {
        assert!(
            config.cost_weight.is_finite() && config.cost_weight > 0.0,
            "cost_weight must be finite and positive"
        );
        assert!(
            config.value_weight.is_finite() && config.value_weight >= 0.0,
            "value_weight must be finite and non-negative"
        );
        if let Some(r) = config.reserve_price {
            assert!(
                r.is_finite() && r >= 0.0,
                "reserve_price must be finite and >= 0"
            );
        }
        VcgAuction { config }
    }

    /// The configuration.
    pub fn config(&self) -> &VcgConfig {
        &self.config
    }

    /// The WDP item for one bid: its virtual-welfare score and money cost.
    /// Bids whose reported cost exceeds the reserve price get weight
    /// −∞-like exclusion (never selected).
    fn item_for(&self, b: &Bid, valuation: &Valuation) -> WdpItem {
        let above_reserve = self.config.reserve_price.is_some_and(|r| b.cost > r);
        WdpItem {
            bidder: b.bidder,
            weight: if above_reserve {
                f64::MIN
            } else {
                self.config.value_weight * valuation.client_value(b)
                    - self.config.cost_weight * b.cost
            },
            cost: b.cost,
        }
    }

    /// Builds the winner-determination instance for the given bids.
    pub fn instance(&self, bids: &[Bid], valuation: &Valuation) -> WdpInstance {
        self.instance_in(Vec::new(), bids, valuation)
    }

    /// [`VcgAuction::instance`] built inside a recycled item buffer.
    fn instance_in(
        &self,
        mut items: Vec<WdpItem>,
        bids: &[Bid],
        valuation: &Valuation,
    ) -> WdpInstance {
        items.clear();
        items.extend(bids.iter().map(|b| self.item_for(b, valuation)));
        let mut inst = WdpInstance::new(items);
        if let Some(k) = self.config.max_winners {
            inst = inst.with_max_winners(k);
        }
        inst
    }

    /// Runs the auction: exact winner determination plus Clarke payments.
    ///
    /// Runtime is `O(n log n + n·K)` where `K` is the winner count: the
    /// optimum is the top-K positive-score set and the incremental pivot
    /// engine ([`crate::pivots`]) reads every `W*₋ᵢ` off one shared sorted
    /// order, at an O(n) canonical re-sum per winner (the price of
    /// bit-identity with the naive re-solve). With the winner caps LOVM
    /// runs in practice (`K` ≪ n) that is `O(n log n)`; with no cap and
    /// all-positive scores it degrades to `O(n²)` float adds.
    pub fn run(&self, bids: &[Bid], valuation: &Valuation) -> AuctionOutcome {
        // Serial pool: per-pivot work here is O(K) — far below the
        // threshold where fan-out pays for itself in this hot loop.
        self.run_with_strategy_on(
            bids,
            valuation,
            PaymentStrategy::Incremental,
            par::Pool::serial(),
        )
    }

    /// [`VcgAuction::run`] with an explicit pivot-welfare strategy and
    /// worker pool. Both strategies produce bit-identical payments; `Naive`
    /// re-solves the winner determination once per winner and exists as the
    /// differential-testing reference.
    pub fn run_with_strategy_on(
        &self,
        bids: &[Bid],
        valuation: &Valuation,
        strategy: PaymentStrategy,
        pool: par::Pool,
    ) -> AuctionOutcome {
        let scratch = &mut RoundScratch::new();
        self.clear_on(bids, valuation, None, strategy, pool, scratch)
    }

    /// [`VcgAuction::run`] through a caller-recycled [`RoundScratch`] and
    /// an explicit worker pool: the same auction, the same payments bit for
    /// bit. A monolithic caller that keeps the scratch across rounds
    /// reaches zero steady-state solver allocations per round; sharded
    /// topologies get per-worker arenas (correctness under `LOVM_THREADS`,
    /// not zero-alloc — scoped workers cannot persist buffers across
    /// rounds).
    pub fn run_with_scratch_on(
        &self,
        bids: &[Bid],
        valuation: &Valuation,
        pool: par::Pool,
        scratch: &mut RoundScratch,
    ) -> AuctionOutcome {
        self.clear_on(
            bids,
            valuation,
            None,
            PaymentStrategy::Incremental,
            pool,
            scratch,
        )
    }

    /// Runs the auction with an arbitrary (budget-capped) instance and the
    /// generic Clarke pivot `W* − W*₋ᵢ`.
    ///
    /// Use an exact `solver` for truthfulness; a greedy solver voids the
    /// VCG guarantee (use critical-value payments instead — see
    /// [`crate::critical`]).
    ///
    /// Pivot welfares come from the incremental leave-one-out engine
    /// ([`crate::pivots`], `PaymentStrategy::Incremental`), which shares
    /// one forward/backward DP pass across all winners instead of
    /// re-solving per winner — same payments, bit for bit, at a fraction of
    /// the cost. The per-winner merges run on [`par::Pool::auto`]; use
    /// [`VcgAuction::run_with_budget_on`] to pin the worker count. Output
    /// is bit-identical at any worker count.
    pub fn run_with_budget(
        &self,
        bids: &[Bid],
        valuation: &Valuation,
        budget: f64,
        solver: SolverKind,
    ) -> AuctionOutcome {
        self.run_with_budget_on(bids, valuation, budget, solver, par::Pool::auto())
    }

    /// [`VcgAuction::run_with_budget`] with an explicit worker pool for the
    /// per-winner pivot computations.
    pub fn run_with_budget_on(
        &self,
        bids: &[Bid],
        valuation: &Valuation,
        budget: f64,
        solver: SolverKind,
        pool: par::Pool,
    ) -> AuctionOutcome {
        self.run_with_budget_strategy_on(
            bids,
            valuation,
            budget,
            solver,
            PaymentStrategy::Incremental,
            pool,
        )
    }

    /// [`VcgAuction::run_with_budget_on`] with an explicit pivot-welfare
    /// strategy. `PaymentStrategy::Naive` re-solves the reduced instance
    /// once per winner (the pre-incremental behavior); the differential
    /// suite holds both strategies to bit-identical outcomes.
    pub fn run_with_budget_strategy_on(
        &self,
        bids: &[Bid],
        valuation: &Valuation,
        budget: f64,
        solver: SolverKind,
        strategy: PaymentStrategy,
        pool: par::Pool,
    ) -> AuctionOutcome {
        let scratch = &mut RoundScratch::new();
        let budgeted = Some((budget, solver));
        self.clear_on(bids, valuation, budgeted, strategy, pool, scratch)
    }

    /// The one auction path behind every entry point: build the instance
    /// in the scratch's item buffer, solve it and its leave-one-out pivots
    /// under the configured topology, and award Clarke payments.
    /// `budgeted` is the budget cap with the solver to meet it; `None` is
    /// the exact no-budget round.
    fn clear_on(
        &self,
        bids: &[Bid],
        valuation: &Valuation,
        budgeted: Option<(f64, SolverKind)>,
        strategy: PaymentStrategy,
        pool: par::Pool,
        scratch: &mut RoundScratch,
    ) -> AuctionOutcome {
        let mut inst = self.instance_in(std::mem::take(&mut scratch.items), bids, valuation);
        let mut kind = SolverKind::Exact;
        if let Some((budget, solver)) = budgeted {
            inst = inst.with_budget(budget);
            kind = solver;
        }
        self.solve_and_pivots(&inst, kind, strategy, pool, scratch);
        scratch.items = inst.items;
        self.awards(bids, valuation, &scratch.solution, &scratch.welfares)
    }

    /// Winner determination plus leave-one-out pivot welfares under the
    /// configured market topology, into `scratch.solution` and
    /// `scratch.welfares`. Monolithic (and single-shard) rounds take the
    /// direct solve + pivot path on the scratch's arena; larger shard
    /// counts run the partition → per-shard solve →
    /// champion-reconciliation pipeline.
    fn solve_and_pivots(
        &self,
        inst: &WdpInstance,
        kind: SolverKind,
        strategy: PaymentStrategy,
        pool: par::Pool,
        scratch: &mut RoundScratch,
    ) {
        if self.config.topology.effective_shards(inst.items.len()) <= 1 {
            let view = WdpView::full(inst);
            scratch
                .arena
                .solve_view_into(&view, kind, &mut scratch.solution);
            leave_one_out_welfares_view_into(
                &view,
                &scratch.solution.selected,
                kind,
                strategy,
                pool,
                &mut scratch.arena,
                &mut scratch.welfares,
            );
        } else {
            let round = solve_sharded_arena_on(
                inst,
                kind,
                self.config.topology,
                strategy,
                pool,
                &mut scratch.arena,
            );
            scratch.solution = round.solution;
            scratch.welfares = round.loo_welfares;
        }
    }

    /// Clarke awards for a solved round: `p_i = c_i + pivot/Q`,
    /// reserve-capped.
    fn awards(
        &self,
        bids: &[Bid],
        valuation: &Valuation,
        sol: &WdpSolution,
        w_minus: &[f64],
    ) -> AuctionOutcome {
        let w_star = sol.objective;
        let q = self.config.cost_weight;
        let winners = sol
            .selected
            .iter()
            .zip(w_minus)
            .map(|(&i, &w_minus_i)| {
                let bid = &bids[i];
                // An exact solver gives W* ≥ W*₋ᵢ; the clamp only absorbs
                // last-ulp float noise when the pivot is a mathematical
                // tie, and keeps IR if an approximate solver is supplied.
                let pivot = (w_star - w_minus_i).max(0.0);
                let mut payment = bid.cost + pivot / q;
                // The reserve caps the critical report, hence the payment.
                if let Some(r) = self.config.reserve_price {
                    payment = payment.min(r);
                }
                Award {
                    bidder: bid.bidder,
                    cost: bid.cost,
                    value: valuation.client_value(bid),
                    payment,
                }
            })
            .collect();
        AuctionOutcome::new(winners, w_star)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::ClientValue;

    fn linear() -> Valuation {
        Valuation::Linear(ClientValue {
            value_per_unit: 1.0,
            base_value: 0.0,
        })
    }

    fn bid(id: usize, cost: f64, data: usize) -> Bid {
        Bid::new(id, cost, data, 1.0)
    }

    #[test]
    fn selects_positive_virtual_scores() {
        // scores: 10-2=8, 5-7=-2, 3-1=2
        let bids = vec![bid(0, 2.0, 10), bid(1, 7.0, 5), bid(2, 1.0, 3)];
        let auction = VcgAuction::new(VcgConfig::default());
        let o = auction.run(&bids, &linear());
        assert_eq!(o.winner_ids(), vec![0, 2]);
        assert!((o.virtual_welfare - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_pays_marginal_contribution() {
        // Without a cap, W*₋ᵢ = W* − w_i, so p_i = c_i + w_i / Q.
        let bids = vec![bid(0, 2.0, 10), bid(1, 1.0, 3)];
        let auction = VcgAuction::new(VcgConfig::default());
        let o = auction.run(&bids, &linear());
        assert!((o.payment_of(0).unwrap() - (2.0 + 8.0)).abs() < 1e-9);
        assert!((o.payment_of(1).unwrap() - (1.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn capped_pays_displacement() {
        // scores: A=8, B=5, C=3. K=2 → winners A, B.
        // p_A = c_A + (w_A − w_C)/Q, p_B = c_B + (w_B − w_C)/Q.
        let bids = vec![bid(0, 2.0, 10), bid(1, 1.0, 6), bid(2, 1.0, 4)];
        let auction = VcgAuction::new(VcgConfig {
            max_winners: Some(2),
            ..VcgConfig::default()
        });
        let o = auction.run(&bids, &linear());
        assert_eq!(o.winner_ids(), vec![0, 1]);
        assert!((o.payment_of(0).unwrap() - (2.0 + (8.0 - 3.0))).abs() < 1e-9);
        assert!((o.payment_of(1).unwrap() - (1.0 + (5.0 - 3.0))).abs() < 1e-9);
    }

    #[test]
    fn cap_not_binding_behaves_unconstrained() {
        let bids = vec![bid(0, 2.0, 10), bid(1, 1.0, 6)];
        let capped = VcgAuction::new(VcgConfig {
            max_winners: Some(5),
            ..VcgConfig::default()
        })
        .run(&bids, &linear());
        let free = VcgAuction::new(VcgConfig::default()).run(&bids, &linear());
        assert_eq!(capped, free);
    }

    #[test]
    fn payments_cover_reported_cost() {
        let bids = vec![
            bid(0, 2.0, 10),
            bid(1, 7.0, 9),
            bid(2, 1.0, 3),
            bid(3, 0.5, 2),
        ];
        let auction = VcgAuction::new(VcgConfig {
            max_winners: Some(2),
            ..VcgConfig::default()
        });
        let o = auction.run(&bids, &linear());
        for w in &o.winners {
            assert!(w.payment >= w.cost - 1e-9);
        }
    }

    #[test]
    fn cost_weight_scales_payments() {
        // Larger Q shrinks the money bonus (the virtual pivot is divided by Q).
        let bids = vec![bid(0, 2.0, 10)];
        let pay = |q: f64| {
            VcgAuction::new(VcgConfig {
                value_weight: 1.0,
                cost_weight: q,
                ..VcgConfig::default()
            })
            .run(&bids, &linear())
            .payment_of(0)
        };
        let p1 = pay(1.0).unwrap();
        let p4 = pay(4.0).unwrap();
        assert!(p4 < p1);
        assert!(p4 >= 2.0);
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_when_loose() {
        let bids = vec![bid(0, 2.0, 10), bid(1, 1.0, 6)];
        let auction = VcgAuction::new(VcgConfig::default());
        let loose = auction.run_with_budget(&bids, &linear(), 1e6, SolverKind::Exhaustive);
        let free = auction.run(&bids, &linear());
        assert_eq!(loose.winner_ids(), free.winner_ids());
        for w in &loose.winners {
            assert!((w.payment - free.payment_of(w.bidder).unwrap()).abs() < 1e-6);
        }
    }

    #[test]
    fn budgeted_run_respects_budget_on_costs() {
        let bids = vec![bid(0, 5.0, 10), bid(1, 4.0, 8), bid(2, 3.0, 6)];
        let auction = VcgAuction::new(VcgConfig::default());
        let o = auction.run_with_budget(&bids, &linear(), 7.0, SolverKind::Exhaustive);
        assert!(o.total_cost() <= 7.0 + 1e-9);
        assert!(!o.winners.is_empty());
    }

    #[test]
    fn empty_bids_empty_outcome() {
        let auction = VcgAuction::new(VcgConfig::default());
        let o = auction.run(&[], &linear());
        assert!(o.winners.is_empty());
        assert_eq!(o.virtual_welfare, 0.0);
    }

    #[test]
    fn reserve_excludes_expensive_bids() {
        let bids = vec![bid(0, 2.0, 10), bid(1, 6.0, 50)];
        let auction = VcgAuction::new(VcgConfig {
            reserve_price: Some(5.0),
            ..VcgConfig::default()
        });
        let o = auction.run(&bids, &linear());
        assert_eq!(o.winner_ids(), vec![0]);
    }

    #[test]
    fn reserve_caps_payment() {
        // Single winner, unconstrained: uncapped payment would be
        // c + w = 2 + 8 = 10; reserve 5 caps it.
        let bids = vec![bid(0, 2.0, 10)];
        let auction = VcgAuction::new(VcgConfig {
            reserve_price: Some(5.0),
            ..VcgConfig::default()
        });
        let o = auction.run(&bids, &linear());
        assert_eq!(o.payment_of(0), Some(5.0));
    }

    #[test]
    fn reserve_preserves_truthfulness_and_ir() {
        use crate::properties::{default_factor_grid, individually_rational, probe_truthfulness};
        let bids = vec![bid(0, 2.0, 10), bid(1, 1.0, 6), bid(2, 3.0, 8)];
        let auction = VcgAuction::new(VcgConfig {
            max_winners: Some(2),
            reserve_price: Some(4.0),
            ..VcgConfig::default()
        });
        let o = auction.run(&bids, &linear());
        assert!(individually_rational(&o, 1e-9));
        for i in 0..bids.len() {
            let report = probe_truthfulness(&bids, i, &default_factor_grid(), |b| {
                auction.run(b, &linear())
            });
            assert!(
                report.is_truthful(1e-9),
                "bidder {i} gains {}",
                report.max_gain()
            );
        }
    }

    #[test]
    fn reserve_caps_budgeted_payment() {
        // A loose budget leaves the pivot at c + w = 2 + 8 = 10; budgeted
        // clears honor the reserve cap like the top-K path does.
        let bids = vec![bid(0, 2.0, 10)];
        let auction = VcgAuction::new(VcgConfig {
            reserve_price: Some(5.0),
            ..VcgConfig::default()
        });
        let o = auction.run_with_budget(&bids, &linear(), 100.0, SolverKind::Exhaustive);
        assert_eq!(o.payment_of(0), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "reserve_price must be finite")]
    fn rejects_negative_reserve() {
        let _ = VcgAuction::new(VcgConfig {
            reserve_price: Some(-1.0),
            ..VcgConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "cost_weight must be finite and positive")]
    fn rejects_zero_cost_weight() {
        let _ = VcgAuction::new(VcgConfig {
            cost_weight: 0.0,
            ..VcgConfig::default()
        });
    }
}
