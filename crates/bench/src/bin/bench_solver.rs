//! Solver roofline: the warm-arena knapsack/top-K kernel
//! (`auction::wdp::SolverArena`) across n × grid × constraint-combo.
//!
//! Every row reports ns/solve (median), DP cells touched per ns, and heap
//! bytes allocated per solve (counted by a wrapping `#[global_allocator]`,
//! measured outside the timed region).
//!
//! Output contract:
//! * stdout — one JSON line per benchmark (the `Bencher` contract; the CI
//!   gate reads `solver/budgetcap_n4096_g4000_arena` median_ns from this
//!   build and from the committed baseline's build, run alternately),
//! * stderr — the human roofline table,
//! * `BENCH_solver.json` in the working directory — the machine-readable
//!   roofline (validated by re-parsing with `metrics::json` before the
//!   process exits 0).

use auction::wdp::{SolverArena, SolverKind, WdpInstance, WdpItem, WdpSolution, WdpView};
use bench::harness::Bencher;
use metrics::json::JsonValue;
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

struct Row {
    name: String,
    n: usize,
    grid: usize,
    combo: &'static str,
    median_ns: f64,
    cells: u64,
    bytes: u64,
}

/// One warm-arena row: heap bytes per solve, then the timed median.
fn bench_row(
    bencher: &mut Bencher,
    arena: &mut SolverArena,
    out: &mut WdpSolution,
    name: &str,
    view: &WdpView<'_>,
    kind: SolverKind,
    reps: u64,
) -> (f64, u64) {
    let bytes = bytes_per_solve(|| arena.solve_view_into(view, kind, out), reps);
    let median_ns = bencher
        .bench(name, || {
            arena.solve_view_into(black_box(view), kind, out);
            out.objective
        })
        .median_ns;
    (median_ns, bytes)
}

/// `bench_solver --check <path>`: parse a previously written roofline with
/// `metrics::json` and validate its shape, without running any benchmark.
/// The CI gate uses this to prove the committed artifact is valid JSON.
fn check_artifact(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("lovm.bench_solver.v1"),
        "{path}: wrong or missing schema tag"
    );
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{path}: missing rows array"));
    assert!(!rows.is_empty(), "{path}: empty rows array");
    for row in rows {
        for key in ["bench", "impl", "median_ns", "bytes_per_solve"] {
            assert!(row.get(key).is_some(), "{path}: row missing {key:?}");
        }
    }
    eprintln!("# {path}: valid ({} rows)", rows.len());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--check" {
        check_artifact(&args[2]);
        return;
    }
    let mut bencher = Bencher::new("solver");
    let mut rows: Vec<Row> = Vec::new();
    let mut arena = SolverArena::new();
    let mut out = WdpSolution::default();

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
                let name = format!("{combo}_n{n}_g{grid}_arena");
                let (median_ns, bytes) =
                    bench_row(&mut bencher, &mut arena, &mut out, &name, &view, kind, 4);
                rows.push(Row {
                    name: format!("solver/{name}"),
                    n,
                    grid,
                    combo,
                    median_ns,
                    cells,
                    bytes,
                });
            }
        }
    }

    // Top-K rows (no budget → preference-order path; grid is irrelevant).
    for n in [1024usize, 4096] {
        let base = items(n, 0x50F7_1000 + n as u64);
        let inst = WdpInstance::new(base).with_max_winners(64);
        let view = WdpView::full(&inst);
        let name = format!("topk_n{n}_arena");
        let (median_ns, bytes) = bench_row(
            &mut bencher,
            &mut arena,
            &mut out,
            &name,
            &view,
            SolverKind::Exact,
            8,
        );
        rows.push(Row {
            name: format!("solver/{name}"),
            n,
            grid: 0,
            combo: "topk",
            median_ns,
            cells: 0,
            bytes,
        });
    }

    // Human roofline table (stderr, like the bench rows themselves).
    eprintln!();
    eprintln!(
        "{:<38} {:>12} {:>10} {:>12}",
        "row", "ns/solve", "cells/ns", "bytes/solve"
    );
    for row in &rows {
        let cells_per_ns = if row.cells > 0 {
            format!("{:.2}", row.cells as f64 / row.median_ns)
        } else {
            "-".to_string()
        };
        eprintln!(
            "{:<38} {:>12.0} {:>10} {:>12}",
            row.name, row.median_ns, cells_per_ns, row.bytes
        );
    }

    // Machine-readable roofline, then prove it re-parses before exiting 0.
    let mut table = JsonValue::array();
    for row in &rows {
        table = table.item(
            JsonValue::object()
                .field("bench", row.name.as_str())
                .field("n", row.n)
                .field("grid", row.grid)
                .field("combo", row.combo)
                // One kernel now; the `_arena` names and this field keep the
                // `lovm.bench_solver.v1` rows comparable with older artifacts.
                .field("impl", "arena")
                .field("median_ns", row.median_ns)
                .field("cells", row.cells)
                .field(
                    "cells_per_ns",
                    if row.cells > 0 {
                        row.cells as f64 / row.median_ns
                    } else {
                        0.0
                    },
                )
                .field("bytes_per_solve", row.bytes),
        );
    }
    let doc = JsonValue::object()
        .field("schema", "lovm.bench_solver.v1")
        .field("rows", table);
    let text = doc.to_string();
    let parsed = JsonValue::parse(&text).expect("BENCH_solver.json must be valid JSON");
    let row_count = parsed
        .get("rows")
        .and_then(|r| r.as_array())
        .map(<[JsonValue]>::len)
        .expect("rows array survives the roundtrip");
    assert_eq!(row_count, rows.len(), "roundtrip dropped rows");
    std::fs::write("BENCH_solver.json", text + "\n").expect("write BENCH_solver.json");
    eprintln!("# wrote BENCH_solver.json ({row_count} rows)");
}
