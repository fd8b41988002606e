//! # par — deterministic data-parallel execution on scoped std threads
//!
//! A zero-dependency worker pool for the embarrassingly parallel hot paths
//! of this workspace: the `n` leave-one-out WDP solves behind VCG payments,
//! per-client local training inside a federated round, and independent
//! seeds/sweep points in the experiment binaries.
//!
//! **Determinism contract.** Every combinator returns results in *input
//! index order*, regardless of which worker computed which item or in what
//! order workers finished. As long as the per-item closure is a pure
//! function of its input (true everywhere in this workspace: all randomness
//! is derived from per-item seeds), the output of a parallel run is
//! *bit-identical* to the serial run — floats included, because each item's
//! arithmetic happens entirely within one task and any cross-item reduction
//! is performed by the caller over the index-ordered `Vec`. The test suite
//! in `tests/determinism.rs` (umbrella crate) locks this down for each
//! wired path.
//!
//! **Worker count.** [`Pool::auto`] uses the `LOVM_THREADS` environment
//! variable when set (`LOVM_THREADS=1` forces serial execution), otherwise
//! [`std::thread::available_parallelism`]. Work is distributed by an atomic
//! index counter, so uneven per-item costs (e.g. leave-one-out instances of
//! different sizes) balance automatically.
//!
//! ```
//! let squares = par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Explicit pools pin the worker count independent of the environment:
//! let serial = par::Pool::serial().map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(serial, squares);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard ceiling on the worker count: beyond this, per-call thread spawn
/// overhead dwarfs any conceivable gain for this workspace's task sizes.
pub const MAX_THREADS: usize = 128;

/// Name of the environment variable overriding the worker count.
pub const THREADS_ENV: &str = "LOVM_THREADS";

/// Worker count from the environment (`LOVM_THREADS`) when set to an
/// integer — `LOVM_THREADS=0` is honored as "serial", not ignored —
/// otherwise the machine's available parallelism. Always in
/// `1..=MAX_THREADS`.
///
/// # Panics
///
/// Panics when the variable is set to anything that is not an unsigned
/// integer (`abc`, `2.5`, an empty string): a typo in a determinism sweep
/// must fail loudly at startup, not silently fall back to machine
/// parallelism — the same contract `LOVM_SHARDS` and the ingest variables
/// already enforce.
pub fn configured_threads() -> usize {
    parse_env_value(std::env::var(THREADS_ENV).ok().as_deref())
}

/// The parse behind [`configured_threads`], split out so the valid and
/// panicking cases are unit-testable without mutating the process
/// environment (a data race against concurrent `getenv`).
fn parse_env_value(raw: Option<&str>) -> usize {
    let from_env = raw.map(|raw| match raw.trim().parse::<usize>() {
        Ok(n) => n.max(1),
        Err(_) => panic!(
            "{THREADS_ENV} must be an unsigned worker count, got `{raw}` \
             (unset the variable to use the machine's parallelism)"
        ),
    });
    from_env
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(MAX_THREADS)
}

/// A worker-count policy for the data-parallel combinators.
///
/// A `Pool` is a plain value (no OS resources): threads are scoped to each
/// call and joined before it returns, so there is no shutdown to manage and
/// panics from workers propagate to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

impl Pool {
    /// Pool sized by [`configured_threads`] (environment override or
    /// detected parallelism).
    pub fn auto() -> Self {
        Pool {
            threads: configured_threads(),
        }
    }

    /// Single-worker pool: runs everything inline on the caller's thread.
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// Pool with an explicit worker count (clamped to `1..=MAX_THREADS`).
    pub fn with_threads(threads: usize) -> Self {
        Pool {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// The worker count this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the workers and returns the
    /// results in index order.
    ///
    /// With one worker (or fewer than two items) this degenerates to a
    /// plain serial loop with no thread spawned at all.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from `f` on the calling thread.
    pub fn run<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let mut out = Vec::new();
        self.run_with(n, &mut (), || (), &mut out, |_, i| f(i));
        out
    }

    /// [`Pool::run`] with per-worker scratch state, writing results into a
    /// caller-recycled output vector (cleared first, filled in index
    /// order).
    ///
    /// Serial runs (one worker or fewer than two items) borrow the
    /// caller's `scratch` directly — a caller that keeps `scratch` and
    /// `out` alive across calls reaches a zero-allocation steady state
    /// once their capacities have warmed up. Parallel runs give each
    /// worker its own state built by `init` (created and dropped on the
    /// worker thread, so `S` needs no `Send`); `scratch` is untouched.
    ///
    /// This is what the solver-arena hot paths (`auction::wdp`,
    /// `auction::pivots`) run on: per-worker arenas mean `LOVM_THREADS>1`
    /// never shares a buffer, and by the determinism contract the scratch
    /// (and worker count) cannot change any output bit — only `f`'s return
    /// values land in `out`, in index order.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from `f` on the calling thread.
    pub fn run_with<S, U, I, F>(&self, n: usize, scratch: &mut S, init: I, out: &mut Vec<U>, f: F)
    where
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> U + Sync,
    {
        out.clear();
        let workers = self.threads.min(n);
        if workers <= 1 {
            out.reserve(n);
            for i in 0..n {
                let v = f(scratch, i);
                out.push(v);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, U)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut state = init();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(&mut state, i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for part in parts {
            for (i, v) in part {
                debug_assert!(slots[i].is_none(), "index {i} computed twice");
                slots[i] = Some(v);
            }
        }
        out.extend(
            slots
                .into_iter()
                .map(|s| s.expect("every index in 0..n is claimed exactly once")),
        );
    }

    /// Maps `f` over `items`, returning results in item order.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }

    /// Splits this pool's workers between an outer fan-out of `tasks` and
    /// the nested work each task performs, returning `(outer, inner)` with
    /// `outer.threads() · inner.threads() ≤ self.threads()`. This is what
    /// makes two-level fan-outs (e.g. shards × per-shard pivot merges)
    /// safe: the worker count is budgeted once at the top instead of
    /// multiplying at every level.
    pub fn split(&self, tasks: usize) -> (Pool, Pool) {
        let outer = self.threads.min(tasks.max(1));
        let inner = (self.threads / outer).max(1);
        (Pool::with_threads(outer), Pool::with_threads(inner))
    }
}

/// [`Pool::map`] on the [`Pool::auto`] pool.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    Pool::auto().map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 4, 7] {
            let out = Pool::with_threads(threads).map(&items, |&x| x * 3 + 1);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(Pool::with_threads(4).map(&empty, |&x| x).is_empty());
        assert_eq!(Pool::with_threads(4).map(&[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn serial_pool_never_spawns_and_matches_parallel() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let f = |&x: &f64| (x.sin() * 1e9).mul_add(x, x.sqrt());
        let serial = Pool::serial().map(&items, f);
        let parallel = Pool::with_threads(4).map(&items, f);
        // Bit-identical, not approximately equal.
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(2).run(8, |i| {
                if i == 5 {
                    panic!("boom at 5");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    /// Exercises the `configured_threads` parse — valid and panicking
    /// cases — through the extracted value parser: mutating the real
    /// environment from a test races concurrent `getenv` callers on other
    /// test threads (UB on glibc), so the env read stays untested-thin and
    /// the decision logic is covered here (same pattern as
    /// `auction::shard`).
    #[test]
    fn threads_env_parses_or_panics() {
        assert!(parse_env_value(None) >= 1);
        assert_eq!(parse_env_value(Some("1")), 1);
        assert_eq!(parse_env_value(Some(" 4 ")), 4);
        // 0 is honored as "serial", and huge values clamp to the ceiling.
        assert_eq!(parse_env_value(Some("0")), 1);
        assert_eq!(parse_env_value(Some("100000")), MAX_THREADS);
        // Malformed values must panic loudly, not fall back silently to
        // machine parallelism (which would void a determinism sweep).
        for bad in ["abc", "", "-3", "2.5", "4 workers"] {
            let result = std::panic::catch_unwind(|| parse_env_value(Some(bad)));
            let err = result.expect_err(&format!("`{bad}` must panic"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("LOVM_THREADS must be an unsigned worker count"),
                "unhelpful panic message for `{bad}`: {msg}"
            );
        }
        // The thin env wrapper itself must accept whatever ci.sh exported
        // for this very test process (always a valid setting there).
        let _ = configured_threads();
    }

    #[test]
    fn with_threads_clamps() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(usize::MAX).threads(), MAX_THREADS);
        assert_eq!(Pool::serial().threads(), 1);
        assert!(Pool::auto().threads() >= 1);
        assert!(Pool::auto().threads() <= MAX_THREADS);
    }

    #[test]
    fn uneven_workloads_still_ordered() {
        // Item i busy-loops proportionally to (i % 7), so completion order
        // differs wildly from index order.
        let items: Vec<u64> = (0..200).collect();
        let out = Pool::with_threads(4).map(&items, |&i| {
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx as u64, *i);
        }
    }

    #[test]
    fn run_counts_each_index_once() {
        let out = Pool::with_threads(8).run(10_000, |i| i);
        let expect: Vec<usize> = (0..10_000).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn run_with_matches_run_and_reuses_output() {
        let mut out = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = Pool::with_threads(threads);
            let mut scratch = vec![0u64; 8];
            pool.run_with(
                100,
                &mut scratch,
                || vec![0u64; 8],
                &mut out,
                |state, i| {
                    // Scratch is genuinely mutable per worker.
                    state[i % 8] = state[i % 8].wrapping_add(i as u64);
                    (i as u64) * 3 + 1
                },
            );
            let expect: Vec<u64> = (0..100).map(|i| i * 3 + 1).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
        // Serial path mutated the caller's scratch in place.
        let pool = Pool::serial();
        let mut scratch = 0u64;
        pool.run_with(
            10,
            &mut scratch,
            || 0u64,
            &mut out,
            |s, i| {
                *s += i as u64;
                i as u64
            },
        );
        assert_eq!(scratch, (0..10).sum::<u64>());
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn run_with_empty_and_uneven_inputs() {
        let mut out: Vec<usize> = vec![1, 2, 3];
        Pool::with_threads(4).run_with(0, &mut (), || (), &mut out, |_, i| i);
        assert!(out.is_empty(), "out must be cleared even for n = 0");
        // Uneven per-item work: completion order differs from index order,
        // yet the scatter restores index order exactly.
        Pool::with_threads(4).run_with(
            200,
            &mut (),
            || (),
            &mut out,
            |_, i| {
                let mut acc = i as u64;
                for _ in 0..(i % 7) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                let _ = acc;
                i
            },
        );
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn run_with_worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut out = Vec::new();
            Pool::with_threads(2).run_with(
                8,
                &mut (),
                || (),
                &mut out,
                |_, i| {
                    if i == 5 {
                        panic!("boom at 5");
                    }
                    i
                },
            );
        });
        assert!(result.is_err());
    }

    #[test]
    fn split_budgets_workers_across_levels() {
        let (outer, inner) = Pool::with_threads(8).split(4);
        assert_eq!(outer.threads(), 4);
        assert_eq!(inner.threads(), 2);
        assert!(outer.threads() * inner.threads() <= 8);
        // More tasks than workers: all workers go to the outer level.
        let (outer, inner) = Pool::with_threads(4).split(64);
        assert_eq!((outer.threads(), inner.threads()), (4, 1));
        // Serial pool stays serial at both levels.
        let (outer, inner) = Pool::serial().split(16);
        assert_eq!((outer.threads(), inner.threads()), (1, 1));
        // Degenerate task counts never panic or zero out.
        let (outer, inner) = Pool::with_threads(6).split(0);
        assert!(outer.threads() >= 1 && inner.threads() >= 1);
    }

    #[test]
    fn map_nested_matches_flat_map() {
        // An outer fan-out whose tasks each fan out again on the inner pool
        // of a split returns the same result as a flat serial map.
        let items: Vec<u64> = (0..300).collect();
        // Reference: x² + (0 + 1 + 2) computed serially.
        let flat = Pool::serial().map(&items, |&x| x * x + 3);
        for threads in [1, 2, 8] {
            let (outer, inner) = Pool::with_threads(threads).split(items.len());
            let nested = outer.map(&items, |&x| {
                x * x + inner.run(3, |j| j as u64).iter().sum::<u64>()
            });
            assert_eq!(nested, flat, "threads={threads}");
        }
    }

    #[test]
    fn chunks_nested_covers_everything_in_order() {
        // The grouped two-level pattern `auction::shard` uses: the outer
        // pool runs over groups, each group fans out on the inner pool.
        let items: Vec<usize> = (0..97).collect();
        let groups: Vec<&[usize]> = items.chunks(10).collect();
        for threads in [1, 4, 8] {
            let (outer, inner) = Pool::with_threads(threads).split(groups.len());
            let sums: Vec<usize> =
                outer.run(groups.len(), |g| inner.map(groups[g], |&x| x).iter().sum());
            assert_eq!(sums.len(), 10, "threads={threads}");
            assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
            assert_eq!(sums[0], (0..10).sum::<usize>());
            assert_eq!(sums[9], (90..97).sum::<usize>());
        }
    }

    #[test]
    fn split_on_a_one_worker_pool_stays_serial() {
        // Every split of a serial pool must be (1, 1): nesting can never
        // manufacture parallelism the budget does not hold.
        for tasks in [0usize, 1, 3, 100] {
            let (outer, inner) = Pool::with_threads(1).split(tasks);
            assert_eq!((outer.threads(), inner.threads()), (1, 1), "tasks={tasks}");
        }
    }

    #[test]
    fn split_with_more_tasks_than_budget_caps_outer() {
        // Requesting a wider outer fan-out than there are workers pins the
        // outer level at the full budget and the inner level at 1 — the
        // product never exceeds the budget.
        for (threads, tasks) in [(2usize, 1000usize), (5, 7), (8, 9)] {
            let (outer, inner) = Pool::with_threads(threads).split(tasks);
            assert_eq!(outer.threads(), threads.min(tasks));
            assert!(
                outer.threads() * inner.threads() <= threads,
                "threads={threads} tasks={tasks}: {} x {}",
                outer.threads(),
                inner.threads()
            );
        }
    }
}
