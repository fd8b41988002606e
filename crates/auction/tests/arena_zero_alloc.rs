//! Steady-state allocation audit for the arena-backed solver.
//!
//! A counting `#[global_allocator]` wraps `System` and tallies every
//! `alloc`/`realloc`. The test drives a 100-round streamed-style loop —
//! solve + leave-one-out pivot welfares each round, exactly what a sealed
//! LOVM round does — through one persistent [`SolverArena`] on a serial
//! pool, and asserts the allocation counter does not move at all after
//! warm-up. This is the reuse contract the hot path is built on: if a
//! future edit sneaks a `Vec::new()`/`clone()` back into the per-round
//! solver, this test fails with the exact round that allocated.
//!
//! The zero-allocation guarantee is a *serial* contract (`LOVM_THREADS=1`):
//! parallel pools spawn scoped workers with per-worker arenas (correctness,
//! not allocation-freedom). This file is its own crate, so the counting
//! allocator cannot perturb any other test binary.
//!
//! Only the measuring thread is counted. The default harness runs this
//! file's tests concurrently, and a sibling test allocating on its own
//! thread must not show up as a solver allocation; the measuring thread
//! arms a thread-local flag around its measured loop instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialized
    /// and drop-free, so reading it from inside the allocator never
    /// allocates or registers a TLS destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_armed() {
    if ARMED.with(Cell::get) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        // SAFETY: the caller's `GlobalAlloc::alloc` contract is forwarded
        // to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`, as the caller's `dealloc` contract guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        // SAFETY: the caller's `realloc` contract (a live `System` block
        // with this `layout`, a valid `new_size`) is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use auction::pivots::{leave_one_out_welfares_view_into, PaymentStrategy};
use auction::wdp::{SolverArena, SolverKind, WdpInstance, WdpItem, WdpSolution, WdpView};

fn instance(n: usize, budget: Option<f64>, seed: u64) -> WdpInstance {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let items: Vec<WdpItem> = (0..n)
        .map(|i| WdpItem {
            bidder: i,
            weight: next() * 12.0 - 3.0,
            cost: next() * 4.0,
        })
        .collect();
    let mut inst = WdpInstance::new(items).with_max_winners(n / 3 + 1);
    if let Some(b) = budget {
        inst = inst.with_budget(b);
    }
    inst
}

/// One sealed round's worth of solver work: winner determination plus all
/// Clarke-pivot leave-one-out welfares, everything written into persistent
/// buffers.
fn run_round(
    view: &WdpView<'_>,
    kind: SolverKind,
    arena: &mut SolverArena,
    solution: &mut WdpSolution,
    welfares: &mut Vec<f64>,
) {
    let pool = par::Pool::serial();
    arena.solve_view_into(view, kind, solution);
    leave_one_out_welfares_view_into(
        view,
        &solution.selected,
        kind,
        PaymentStrategy::Incremental,
        pool,
        arena,
        welfares,
    );
}

/// 100-round streamed loop over budgeted knapsack rounds (n = 80 keeps the
/// budgeted Exact dispatch on the arena DP, not the exhaustive enumerator;
/// the uncapped n = 200 round's ~150 candidates span five of the pivot
/// engine's 32-candidate checkpoint blocks, so its checkpoint, ring, split
/// and repair-rank lanes are audited too) interleaved with top-K rounds:
/// zero allocations after warm-up — first
/// with telemetry disabled, then again with it force-enabled. Recording
/// into the preallocated histograms must be as allocation-free as not
/// recording at all (handle registration allocates once, in the warm-up).
#[test]
fn streamed_rounds_allocate_nothing_after_warmup() {
    // All instances are built BEFORE measurement; rounds only read them.
    let budgeted = instance(80, Some(12.0), 0xFEED_0001);
    let budgeted_small = instance(48, Some(5.0), 0xFEED_0002);
    let topk = instance(96, None, 0xFEED_0003);
    let mut blocks = instance(200, Some(12.0), 0xFEED_0005);
    blocks.max_winners = None;
    let views = [
        WdpView::full(&budgeted),
        WdpView::full(&budgeted_small),
        WdpView::full(&topk),
        WdpView::full(&blocks),
    ];
    let kinds = [
        SolverKind::Exact,
        SolverKind::Knapsack { grid: 2000 },
        SolverKind::Exact,
        SolverKind::Knapsack { grid: 2000 },
    ];

    let mut arena = SolverArena::new();
    let mut solution = WdpSolution::default();
    let mut welfares: Vec<f64> = Vec::new();

    // The multi-block round really is one: its winners (the pivot targets)
    // sit in at least four 32-candidate blocks of the knapsack roster.
    let roster: Vec<usize> = (0..blocks.items.len())
        .filter(|&i| blocks.items[i].weight > 0.0 && blocks.items[i].cost <= 12.0 + 1e-12)
        .collect();
    arena.solve_view_into(&views[3], kinds[3], &mut solution);
    let mut target_blocks: Vec<usize> = solution
        .selected
        .iter()
        .map(|w| roster.binary_search(w).expect("winners are candidates") / 32)
        .collect();
    target_blocks.dedup();
    assert!(
        target_blocks.len() >= 4,
        "winners span only blocks {target_blocks:?} of a {}-candidate roster",
        roster.len()
    );

    // Warm-up: every (view, kind) pairing once, so all arena lanes, the
    // traceback tables, checkpoint and ring rows, and output buffers reach
    // their high-water capacity.
    for (view, kind) in views.iter().zip(kinds) {
        run_round(view, kind, &mut arena, &mut solution, &mut welfares);
    }

    let mut last_objective = 0u64;
    for phase in ["telemetry-off", "telemetry-on"] {
        if phase == "telemetry-on" {
            // Enabled-mode recording must stay on the zero-allocation
            // budget: histogram buckets are preallocated and the handle
            // caches are `&'static`. The re-warm-up below pays the
            // one-time registration allocations.
            telemetry::force_configure(true, telemetry::SinkSpec::None);
            for (view, kind) in views.iter().zip(kinds) {
                run_round(view, kind, &mut arena, &mut solution, &mut welfares);
            }
        }
        ARMED.with(|armed| armed.set(true));
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for round in 0..100 {
            let i = round % views.len();
            run_round(
                &views[i],
                kinds[i],
                &mut arena,
                &mut solution,
                &mut welfares,
            );
            // Consume the outputs so the solves cannot be optimized away
            // (the rotate keeps identical passes from cancelling to 0).
            last_objective = last_objective.rotate_left(1) ^ solution.objective.to_bits();
            last_objective ^= welfares.iter().map(|w| w.to_bits()).fold(0, |a, b| a ^ b);
            let now = ALLOC_CALLS.load(Ordering::Relaxed);
            assert_eq!(
                now,
                before,
                "{phase} round {round} allocated ({} calls) — arena reuse \
                 contract broken",
                now - before
            );
        }
        ARMED.with(|armed| armed.set(false));
    }
    assert_ne!(last_objective, 0, "solves produced no output?");
}

/// The warm arena still produces bit-identical answers — the allocation
/// audit must not be satisfied by caching stale results.
#[test]
fn warm_solver_output_stays_correct() {
    let inst = instance(64, Some(9.0), 0xFEED_0004);
    let view = WdpView::full(&inst);
    let mut arena = SolverArena::new();
    let mut solution = WdpSolution::default();
    let mut welfares: Vec<f64> = Vec::new();
    let mut reference: Option<(Vec<usize>, u64, Vec<u64>)> = None;
    for _ in 0..10 {
        run_round(
            &view,
            SolverKind::Exact,
            &mut arena,
            &mut solution,
            &mut welfares,
        );
        let snap = (
            solution.selected.clone(),
            solution.objective.to_bits(),
            welfares.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
        );
        match &reference {
            None => reference = Some(snap),
            Some(r) => assert_eq!(*r, snap, "warm solve diverged from first solve"),
        }
    }
}
