//! Telemetry overhead gate: one full streamed marketplace run (arrival
//! ingestion → seal → LOVM round, every round of the scenario) with
//! telemetry disabled vs force-enabled with no sink — the enabled cost
//! is pure recording (span clocks, histogram/counter atomics, the
//! per-round record build), with no I/O mixed in.
//!
//! Measurement is **paired**: each sample times one disabled run and one
//! enabled run back-to-back, so machine-level drift (frequency scaling,
//! noisy neighbors) hits both phases of a pair equally and cancels in
//! the ratio. Sequential off-then-on phases measured here drifted by
//! ±25% between phases — an order of magnitude more than the effect.
//!
//! The `telemetry_stream/round_loop_on` row carries the extra
//! `median_ratio` (median over per-pair enabled/disabled ratios); CI
//! reads it and fails the PR if observing the round loop costs more than
//! 5% of running it.

use bench::harness::{BenchConfig, BenchResult, Bencher};
use ingest::IngestConfig;
use lovm_core::lovm::{Lovm, LovmConfig};
use lovm_core::streaming::run_stream;
use metrics::stats::percentile_sorted;
use std::hint::black_box;
use std::time::Instant;
use workload::Scenario;

/// Wall time of one full streamed run, in ns.
fn timed_run(enabled: bool, scenario: &Scenario, cfg: &IngestConfig) -> f64 {
    telemetry::force_configure(enabled, telemetry::SinkSpec::None);
    let start = Instant::now();
    let mut mech = Lovm::new(LovmConfig::for_scenario(scenario, 20.0));
    let run = run_stream(&mut mech, black_box(scenario), 42, cfg);
    black_box(run.result.ledger.social_welfare());
    start.elapsed().as_nanos() as f64
}

fn main() {
    // A representative round size: 256 bidders per round keeps the solver
    // doing real work, so the gate measures telemetry against a round a
    // deployment would actually run. (A 20-bidder toy round solves in a
    // few µs, where the fixed sub-µs of span clocks + counters per round
    // would read as a huge percentage of nothing.)
    let mut scenario = Scenario::large(256);
    scenario.horizon = 60;
    let cfg = IngestConfig::default();
    let samples = BenchConfig::default().samples;
    let mut bencher = Bencher::new("telemetry_stream");

    // Warm-up: one run per phase pays lazy registration and path warmup.
    timed_run(false, &scenario, &cfg);
    timed_run(true, &scenario, &cfg);

    let mut off = Vec::with_capacity(samples);
    let mut on = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for _ in 0..samples {
        let o = timed_run(false, &scenario, &cfg);
        let n = timed_run(true, &scenario, &cfg);
        ratios.push(n / o);
        off.push(o);
        on.push(n);
    }

    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median_ratio = percentile_sorted(&ratios, 50.0);
    bencher.report(BenchResult::from_samples(
        "telemetry_stream/round_loop_off",
        1,
        off,
    ));
    bencher.report(
        BenchResult::from_samples("telemetry_stream/round_loop_on", 1, on)
            .with("median_ratio", median_ratio),
    );
    eprintln!(
        "telemetry_stream: paired overhead {:+.2}% (median of {samples} on/off pairs)",
        (median_ratio - 1.0) * 100.0,
    );
}
