#!/usr/bin/env bash
# Tier-1 verify as one command: check formatting, build everything in
# release mode, run the whole-workspace test suite, and hold the tree to
# zero clippy warnings. The workspace has no external dependencies, so
# this runs fully offline.
#
# The test suite runs under a worker × shard matrix — LOVM_THREADS ∈ {1,4}
# crossed with LOVM_SHARDS ∈ {1,8} — because two layers each guarantee
# invariant output: the parallel execution layer (crates/par) is
# bit-identical at any worker count, and the sharded market engine
# (auction::shard) is bit-identical to the monolithic path on the top-K
# rounds the LOVM loop runs (LOVM_SHARDS only re-routes those rounds).
# Every cell includes the golden-output suite (crates/bench
# tests/golden_experiments.rs: every exp_e* bin's stdout vs
# tests/golden/*.md) and the payment-engine differential suite
# (crates/auction tests/pivot_equivalence.rs: incremental vs naive vs
# oracle, bit-identical), so all four cells re-prove both contracts off
# the same snapshots.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
for shards in 1 8; do
  for threads in 1 4; do
    echo "ci: test pass LOVM_SHARDS=$shards LOVM_THREADS=$threads"
    LOVM_SHARDS=$shards LOVM_THREADS=$threads cargo test -q
  done
done
# One more whole-suite pass with telemetry live: the sink is a real file,
# so every golden-output and determinism test re-proves the pure-observer
# contract with recording and emission enabled (the zero-alloc audit also
# covers its telemetry-on phase under a configured global sink).
telemetry_log=$(mktemp)
echo "ci: test pass LOVM_TELEMETRY=$telemetry_log"
LOVM_TELEMETRY="$telemetry_log" cargo test -q
rm -f "$telemetry_log"
# Scheduling-dependence guard: the zero-allocation audit shares its test
# binary with a concurrently running sibling under the default harness, so
# one green pass proves little. Run that binary 20 times back to back.
for run in $(seq 1 20); do
  if ! out=$(cargo test -q -p auction --test arena_zero_alloc 2>&1); then
    echo "ci: FAIL — arena_zero_alloc failed on back-to-back run $run/20"
    printf '%s\n' "$out" | tail -20
    exit 1
  fi
done
echo "ci: arena_zero_alloc green on 20 back-to-back default-harness runs"
cargo clippy --all-targets -- -D warnings

# Smoke the sharded-market experiment: a 10⁵-bidder (scale 0.1) budgeted
# round through partition → per-shard solve → champion reconciliation.
LOVM_SCALE=0.1 ./target/release/exp_e14_sharding > /dev/null
echo "ci: exp_e14_sharding smoke ok"

# Smoke the streaming-ingestion experiment at both worker counts:
# `ingest::drive` runs in virtual time and is deterministic, so both passes
# must produce the byte-identical table set (the golden suite already pins
# its content).
e15_one=$(LOVM_SCALE=0.1 LOVM_THREADS=1 ./target/release/exp_e15_streaming)
e15_four=$(LOVM_SCALE=0.1 LOVM_THREADS=4 ./target/release/exp_e15_streaming)
if [ "$e15_one" != "$e15_four" ]; then
  echo "ci: FAIL — exp_e15_streaming output differs between LOVM_THREADS=1 and =4"
  exit 1
fi
echo "ci: exp_e15_streaming smoke ok (thread-invariant)"

# Smoke the strategic-adversary gate across the full shard × thread
# matrix: the binary itself exits nonzero if any regret cell dips below
# -1e-9 (a profitable deviation — a truthfulness break) or if no
# adversary strictly loses, and because e16 pins every topology per cell
# in code, all four passes must also produce byte-identical tables.
e16_ref=""
for shards in 1 8; do
  for t in 1 4; do
    if ! out=$(LOVM_SCALE=0.1 LOVM_SHARDS=$shards LOVM_THREADS=$t \
        ./target/release/exp_e16_adversary); then
      echo "ci: FAIL — exp_e16_adversary truthfulness gate broke at LOVM_SHARDS=$shards LOVM_THREADS=$t"
      printf '%s\n' "$out" | tail -5
      exit 1
    fi
    if [ -z "$e16_ref" ]; then
      e16_ref="$out"
    elif [ "$out" != "$e16_ref" ]; then
      echo "ci: FAIL — exp_e16_adversary output differs at LOVM_SHARDS=$shards LOVM_THREADS=$t"
      exit 1
    fi
  done
done
echo "ci: exp_e16_adversary truthfulness gate ok (shard- and thread-invariant)"

# Smoke the payment-path benchmark in both modes (tiny sample counts: this
# checks the bins run and report, not the timings themselves) and gate the
# payment-engine regression: the incremental leave-one-out engine must stay
# at least 5x faster than the naive per-winner re-solve for the n=1024
# budgeted payment path on a single worker. The win is algorithmic
# (O(n·G) total DP work vs O(n²·G)), so one core is exactly where it must
# show. Every bench gate reads rows with `bench_rows --get BENCH FIELD`,
# the one `lovm.bench.v1` reader: it fails, naming the row or key, unless
# every stdin line is a valid row and exactly one is named BENCH. Both
# passes are read; the one-worker pass runs last, so its medians are the
# ones gated.
for t in 4 1; do
  out=$(LOVM_THREADS=$t LOVM_BENCH_SAMPLES=5 LOVM_BENCH_BATCH_NS=200000 \
    ./target/release/bench_payments)
  naive_ns=$(printf '%s\n' "$out" \
    | ./target/release/bench_rows --get payment_engine/1024_naive median_ns)
  incremental_ns=$(printf '%s\n' "$out" \
    | ./target/release/bench_rows --get payment_engine/1024_incremental median_ns)
done
awk -v n="$naive_ns" -v i="$incremental_ns" 'BEGIN {
  speedup = n / i
  printf "ci: payment engine n=1024 speedup %.2fx (naive %.0f ns, incremental %.0f ns)\n", speedup, n, i
  if (speedup < 5.0) {
    print "ci: FAIL — incremental payment engine below the 5x floor at n=1024"; exit 1
  }
}'

# Paired solver gate. bench_solver is built a second time from the
# committed baseline — HEAD when the tree has uncommitted changes, else
# HEAD's parent, so a clean checkout gates its last commit — and the two
# builds run alternately, five pairs, each first in turn. On the capped
# budgeted n=4096 row (the shape a LOVM round actually solves — budget plus
# max_winners) the median of the per-pair ratios must stay within 1.5x.
# The previous allocating kernel ran this row 2.3x slower and the scalar
# compare span runs it ~4x slower than the AVX2 one, so falling back to
# either trips the gate. A tighter 1.3x was not taken: an A/A run (one
# build on both sides) spread its pair ratios 0.85-1.02. Pairing matters here: this
# row's unpaired median moves by up to 1.7x between runs on a shared host,
# which a fixed committed number cannot tell from a regression. Both builds
# run in a scratch directory: a baseline from before bench_solver printed
# rows only writes BENCH_solver.json into its working directory.
solver_dir=$(mktemp -d)
trap 'rm -rf "$solver_dir"' EXIT
base_rev=HEAD
if git diff --quiet HEAD -- && git rev-parse --verify -q HEAD~1 >/dev/null; then
  base_rev=HEAD~1
fi
mkdir "$solver_dir/src"
git archive "$base_rev" | tar -x -C "$solver_dir/src"
echo "ci: building the solver gate baseline at $base_rev ($(git rev-parse --short "$base_rev"))"
CARGO_TARGET_DIR="$solver_dir/target" cargo build -q --release \
  --manifest-path "$solver_dir/src/Cargo.toml" -p bench --bin bench_solver
base_bin="$solver_dir/target/release/bench_solver"
new_bin="$PWD/target/release/bench_solver"
gate_row_ns() { # $1 = binary; prints the gate row median
  (cd "$solver_dir" && LOVM_THREADS=1 LOVM_BENCH_SAMPLES=5 LOVM_BENCH_BATCH_NS=200000 "$1" 2>/dev/null) \
    | ./target/release/bench_rows --get solver/budgetcap_n4096_g4000_arena median_ns
}
solver_ratios=""
for pair in 1 2 3 4 5; do
  if [ $((pair % 2)) = 1 ]; then
    b=$(gate_row_ns "$base_bin")
    n=$(gate_row_ns "$new_bin")
  else
    n=$(gate_row_ns "$new_bin")
    b=$(gate_row_ns "$base_bin")
  fi
  solver_ratios="$solver_ratios $(awk -v n="$n" -v b="$b" 'BEGIN { printf "%.4f", n / b }')"
done
printf '%s\n' $solver_ratios | sort -g | awk '{ r[NR] = $1 } END {
  printf "ci: solver n=4096 g=4000 budget+cap %.2fx of the baseline build (paired median; pairs %.2f-%.2f)\n", r[3], r[1], r[5]
  if (r[3] > 1.5) {
    print "ci: FAIL — solver more than 1.5x slower than the baseline build on the capped budgeted n=4096 row"; exit 1
  }
}'
# The other thread mode only has to run. Its rows, piped through
# `bench_rows --artifact`, make a fresh roofline artifact; it and the
# committed one must be valid `lovm.bench.v1` artifacts (`bench_rows
# --check` parses them through metrics::json), and they must hold the same
# rows: a change that adds or renames a solver row without regenerating
# the committed artifact fails here.
LOVM_THREADS=4 LOVM_BENCH_SAMPLES=5 LOVM_BENCH_BATCH_NS=200000 "$new_bin" 2>/dev/null \
  | ./target/release/bench_rows --artifact >"$solver_dir/fresh.json"
fresh_rows=$(./target/release/bench_rows --check "$solver_dir/fresh.json")
committed_rows=$(./target/release/bench_rows --check BENCH_solver.json)
if [ "$fresh_rows" != "$committed_rows" ]; then
  echo "ci: FAIL — committed BENCH_solver.json rows differ from a fresh bench_solver run; regenerate it"
  diff <(printf '%s\n' "$committed_rows") <(printf '%s\n' "$fresh_rows") || true
  exit 1
fi
rm -rf "$solver_dir"
echo "ci: fresh and committed BENCH_solver.json validated, same rows"

# Telemetry overhead gate: observing the full streamed round loop must
# cost no more than 5% vs telemetry disabled. bench_telemetry times the
# two modes as back-to-back pairs (no sink, so the delta is pure
# recording) and reports the median per-pair on/off ratio as the
# `median_ratio` extra of its `round_loop_on` row — pairing is what makes
# the gate stable on a noisy box, where sequential phases drift by far
# more than the effect being measured.
ratio=$(LOVM_THREADS=1 LOVM_BENCH_SAMPLES=25 ./target/release/bench_telemetry \
  | ./target/release/bench_rows --get telemetry_stream/round_loop_on median_ratio)
awk -v r="$ratio" 'BEGIN {
  printf "ci: telemetry round-loop overhead %+.2f%% (paired median)\n", (r - 1.0) * 100
  if (r > 1.05) {
    print "ci: FAIL — telemetry overhead above the 5% ceiling"; exit 1
  }
}'

# The served smokes (kill-and-recover, hostile input, telemetry on/off)
# run in `cargo test` above, as tests/served.rs, against real `lovm`
# processes.

# The repository benchmark's own quick test: it builds `lovm` and the
# `perfbench` package against the workspace crates and runs both
# workloads at `--quick` scale, so a public API the benchmark uses fails
# here rather than first inside a benchmark run.
python3 perfbench/test_run.py
echo "ci: perfbench quick test ok"
# perfbench's own unit tests (its package is outside the workspace, so the
# workspace `cargo test` above does not run them), in the same build dir.
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/Cargo.toml
echo "ci: perfbench unit tests ok"

echo "ci: all green"
