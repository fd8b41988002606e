//! Solver roofline: the warm-arena knapsack/top-K kernel
//! (`auction::wdp::SolverArena`) across n × grid × constraint-combo, plus
//! one leave-one-out pivot pass (`pivots/budget_n4096_g4000`: every
//! winner's Clarke pivot on a warm arena and the serial pool, at the
//! `budgeted-clear` benchmark's shape — n=4096, grid 4000, budget 5% of
//! the total cost, no cap).
//!
//! Every row is a `lovm.bench.v1` row (`bench::harness::BenchResult`)
//! with the extras `n`, `grid`, `combo`, `cells` (DP cells one solve
//! touches; 0 on top-K and pivot rows) and `bytes_per_solve` (heap bytes
//! per solve or pass, counted by a wrapping `#[global_allocator]` outside
//! the timed region).
//!
//! Output contract:
//! * stdout — one JSON line per row (the CI gate reads
//!   `solver/budgetcap_n4096_g4000_arena` median_ns with `bench_rows
//!   --get`, from this build and from the committed baseline's build, run
//!   alternately),
//! * stderr — the human roofline table (ns/solve, cells/ns, bytes/solve).
//!
//! It writes no file: the committed `BENCH_solver.json` is its stdout
//! piped through `bench_rows --artifact`, so it changes only when someone
//! regenerates it on purpose.

use auction::pivots::{leave_one_out_welfares_view_into, PaymentStrategy};
use auction::valuation::Valuation;
use auction::vcg::{VcgAuction, VcgConfig};
use auction::wdp::{SolverArena, SolverKind, WdpInstance, WdpItem, WdpSolution, WdpView};
use bench::harness::{BenchResult, Bencher};
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The standard roofline population: same cost range as `bench::random_bids`
/// with pre-scored weights (a mix of winners and losers, some negative so
/// the candidate filter does real work).
fn items(n: usize, seed: u64) -> Vec<WdpItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| WdpItem {
            bidder: i,
            weight: rng.random_range(-3.0..12.0),
            cost: rng.random_range(0.2..3.0),
        })
        .collect()
}

/// DP cells the budgeted solve touches: candidates × grid width × count
/// rows. Valid while `m·cells` stays under the solver's coarsening
/// threshold (`1 << 28`) — the row sizes below are chosen to stay under it,
/// and the assert guards the invariant if someone scales the table up.
fn dp_cells(inst: &WdpInstance, grid: usize, cap: Option<usize>) -> u64 {
    let budget = inst.budget.expect("budgeted combos only");
    let m = inst
        .items
        .iter()
        .filter(|it| it.weight > 0.0 && it.cost <= budget + 1e-12)
        .count() as u64;
    let width = grid as u64 + 1;
    let rows = cap.map_or(1, |k| (k as u64).min(m) + 1);
    let cells = m * width * rows;
    assert!(
        cells < 1 << 28,
        "row exceeds the coarsening threshold; cells/ns would be wrong"
    );
    cells
}

/// Heap bytes per solve, measured over `reps` warm solves (outside the
/// timed region, so counting overhead never pollutes the ns columns).
fn bytes_per_solve(mut solve: impl FnMut(), reps: u64) -> u64 {
    solve(); // warm-up: capacity growth is not steady-state behavior
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    for _ in 0..reps {
        solve();
    }
    (ALLOC_BYTES.load(Ordering::Relaxed) - before) / reps
}

/// A row's shape: `n`, `grid` (0 on top-K rows), `combo`, and the DP
/// `cells` one solve touches (0 where no DP runs).
type Shape = (usize, usize, &'static str, u64);

/// The row with its shape and heap bytes per solve attached as extras.
fn roofline(row: BenchResult, (n, grid, combo, cells): Shape, bytes: u64) -> BenchResult {
    row.with("n", n)
        .with("grid", grid)
        .with("combo", combo)
        .with("cells", cells)
        .with("bytes_per_solve", bytes)
}

/// One warm-arena row (`{combo}_n{n}[_g{grid}]_arena`): heap bytes per
/// solve, then the timed solve.
fn bench_row(
    bencher: &mut Bencher,
    arena: &mut SolverArena,
    view: &WdpView<'_>,
    kind: SolverKind,
    shape: Shape,
) {
    let (n, grid, combo, _) = shape;
    let name = match grid {
        0 => format!("{combo}_n{n}_arena"),
        _ => format!("{combo}_n{n}_g{grid}_arena"),
    };
    let mut out = WdpSolution::default();
    let bytes = bytes_per_solve(|| arena.solve_view_into(view, kind, &mut out), 4);
    let row = bencher.measure(&name, || {
        arena.solve_view_into(black_box(view), kind, &mut out);
        out.objective
    });
    bencher.report(roofline(row, shape, bytes));
}

fn main() {
    let mut bencher = Bencher::new("solver");
    let mut arena = SolverArena::new();

    // Budgeted knapsack combos: budget alone, budget + cardinality cap.
    // The cap of 8 keeps rows·width·m under the 2-D coarsening threshold at
    // every size, so the cells column is the literal DP trip count.
    for n in [256usize, 1024, 4096] {
        let base = items(n, 0x50F7_0000 + n as u64);
        let total_cost: f64 = base.iter().map(|it| it.cost).sum();
        for grid in [1000usize, 4000] {
            let kind = SolverKind::Knapsack { grid };
            for (combo, cap) in [("budget", None), ("budgetcap", Some(8usize))] {
                let mut inst = WdpInstance::new(base.clone()).with_budget(0.3 * total_cost);
                if let Some(k) = cap {
                    inst = inst.with_max_winners(k);
                }
                let cells = dp_cells(&inst, grid, cap);
                let view = WdpView::full(&inst);
                bench_row(
                    &mut bencher,
                    &mut arena,
                    &view,
                    kind,
                    (n, grid, combo, cells),
                );
            }
        }
    }

    // Top-K rows (no budget → preference-order path; grid is irrelevant).
    for n in [1024usize, 4096] {
        let base = items(n, 0x50F7_1000 + n as u64);
        let inst = WdpInstance::new(base).with_max_winners(64);
        let view = WdpView::full(&inst);
        bench_row(
            &mut bencher,
            &mut arena,
            &view,
            SolverKind::Exact,
            (n, 0, "topk", 0),
        );
    }

    // Leave-one-out pivots of every winner, at the budgeted-clear shape.
    let mut pivots = Bencher::new("pivots");
    {
        // The clear's instance: VCG scores of `random_bids` (the cost,
        // data and quality ranges `budgeted-clear` draws from), budget 5%
        // of the total reported cost.
        let n = 4096usize;
        let grid = 4000usize;
        let bids = bench::random_bids(n, 0x50F7_2000);
        let total_cost: f64 = bids.iter().map(|b| b.cost).sum();
        let auction = VcgAuction::new(VcgConfig {
            max_winners: None,
            ..VcgConfig::default()
        });
        let inst = auction
            .instance(&bids, &Valuation::default())
            .with_budget(0.05 * total_cost);
        let view = WdpView::full(&inst);
        let kind = SolverKind::Knapsack { grid };
        let winners = arena.solve_view(&view, kind).selected;
        let mut welfares = Vec::new();
        let pass = |arena: &mut SolverArena, welfares: &mut Vec<f64>| {
            leave_one_out_welfares_view_into(
                black_box(&view),
                &winners,
                kind,
                PaymentStrategy::Incremental,
                par::Pool::serial(),
                arena,
                welfares,
            );
        };
        let bytes = bytes_per_solve(|| pass(&mut arena, &mut welfares), 2);
        let row = pivots.measure("budget_n4096_g4000", || {
            pass(&mut arena, &mut welfares);
            welfares.len()
        });
        pivots.report(roofline(row, (n, grid, "budget", 0), bytes));
    }

    // Human roofline table (stderr, like the bench rows themselves).
    eprintln!();
    eprintln!(
        "{:<38} {:>12} {:>10} {:>12}",
        "row", "ns/solve", "cells/ns", "bytes/solve"
    );
    for row in bencher.results().iter().chain(pivots.results()) {
        let json = row.to_json();
        let extra = |key| json.get(key).and_then(|v| v.as_u64()).expect("extra");
        let cells = extra("cells");
        let cells_per_ns = if cells > 0 {
            format!("{:.2}", cells as f64 / row.median_ns)
        } else {
            "-".to_string()
        };
        eprintln!(
            "{:<38} {:>12.0} {:>10} {:>12}",
            row.name,
            row.median_ns,
            cells_per_ns,
            extra("bytes_per_solve")
        );
    }
}
