//! Golden-output regression suite: every `exp_e*` binary's stdout, pinned.
//!
//! Each test runs one experiment binary at `LOVM_SCALE=0.1` /
//! `LOVM_THREADS=1`, normalizes away wall-clock noise
//! (see `bench::golden::normalize`), and diffs the result against the
//! checked-in snapshot under `tests/golden/` at the repo root. Any change
//! to selection, payments, queue dynamics, training, or table layout shows
//! up as a failing diff here before it can silently drift.
//!
//! Re-record intentionally changed outputs with:
//!
//! ```sh
//! LOVM_BLESS=1 cargo test -p bench --test golden_experiments
//! ```
//!
//! The determinism contract (`crates/par`, `tests/determinism.rs`) makes
//! these snapshots valid at any `LOVM_THREADS`; `scripts/ci.sh` runs the
//! suite under both 1 and 4 workers to hold that line.

use bench::golden::{assert_golden, normalize};
use std::process::Command;

fn run_and_check(exe: &str, name: &str) {
    // Snapshots are thread-count invariant (determinism contract), so an
    // ambient LOVM_THREADS — e.g. the ci.sh 4-worker pass — is honored;
    // otherwise pin to fully serial.
    let threads = std::env::var("LOVM_THREADS").unwrap_or_else(|_| "1".to_string());
    let out = Command::new(exe)
        .env("LOVM_SCALE", "0.1")
        .env("LOVM_THREADS", threads)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {:?}; stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout)
        .unwrap_or_else(|e| panic!("{name} produced non-UTF8 stdout: {e}"));
    assert_golden(name, &normalize(&stdout));
}

macro_rules! golden {
    ($test:ident, $bin:ident, $name:literal) => {
        #[test]
        fn $test() {
            run_and_check(env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), $name);
        }
    };
}

golden!(e1_welfare, exp_e1_welfare, "e1_welfare");
golden!(e2_budget, exp_e2_budget, "e2_budget");
golden!(e3_v_tradeoff, exp_e3_v_tradeoff, "e3_v_tradeoff");
golden!(e4_truthfulness, exp_e4_truthfulness, "e4_truthfulness");
golden!(e5_ir, exp_e5_ir, "e5_ir");
golden!(e6_accuracy, exp_e6_accuracy, "e6_accuracy");
golden!(e7_scalability, exp_e7_scalability, "e7_scalability");
golden!(e8_budget_sweep, exp_e8_budget_sweep, "e8_budget_sweep");
golden!(e9_fairness, exp_e9_fairness, "e9_fairness");
golden!(e10_ablation, exp_e10_ablation, "e10_ablation");
golden!(e11_energy, exp_e11_energy, "e11_energy");
golden!(
    e12_multi_constraint,
    exp_e12_multi_constraint,
    "e12_multi_constraint"
);
golden!(
    e13_adaptive_bidders,
    exp_e13_adaptive_bidders,
    "e13_adaptive_bidders"
);
// e14 pins its shard counts in code, so its snapshot is shard-count
// invariant on top of the usual thread-count invariance.
golden!(e14_sharding, exp_e14_sharding, "e14_sharding");
// e15 pins its ingestion knobs in code (not LOVM_DEADLINE etc.) and runs
// on the deterministic virtual-time `ingest::drive`, so its snapshot is
// invariant across worker and shard counts with no masked columns at all.
golden!(e15_streaming, exp_e15_streaming, "e15_streaming");
// e16 pins every topology per cell in code and replays seeded traces
// through the deterministic ingest path, so its snapshot — regret tables
// included — is byte-identical at any shard or worker count; the binary
// itself exits nonzero if any regret cell breaks the truthfulness gate.
golden!(e16_adversary, exp_e16_adversary, "e16_adversary");
