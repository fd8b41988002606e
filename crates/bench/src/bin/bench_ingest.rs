//! Ingestion-throughput microbenchmarks: sealed-rounds/sec for
//! `ingest::drive`, the virtual-time ingest loop, on pre-generated Poisson
//! arrival streams of 10⁴–10⁶ bids.
//!
//! Rows are named `{arrivals}_virtual`; the human summary on stderr
//! converts each median into sealed-rounds/sec and arrivals/sec.
//!
//! The 10⁶ row re-drives a million-arrival stream per sample; to keep the
//! default run short it caps its sample count at 5 (`LOVM_BENCH_SAMPLES`
//! below 5 is honored).

use bench::harness::{BenchConfig, Bencher};
use ingest::{IngestConfig, LateBidPolicy};
use std::hint::black_box;
use workload::arrivals::{ArrivalKind, ArrivalProcess, TimedBid};

const RATE: f64 = 1000.0; // arrivals per round

fn stream(n: usize) -> (Vec<TimedBid>, usize) {
    let arrivals: Vec<TimedBid> = ArrivalProcess::new(ArrivalKind::Poisson { rate: RATE }, 7)
        .take(n)
        .collect();
    let rounds = (arrivals.last().map(|tb| tb.at).unwrap_or(0.0)).ceil() as usize;
    (arrivals, rounds.max(1))
}

fn main() {
    let cfg = IngestConfig {
        deadline: 0.8,
        late_policy: LateBidPolicy::DeferToNext,
        capacity: 16_384,
        ..IngestConfig::default()
    };

    for n in [10_000usize, 100_000, 1_000_000] {
        let (arrivals, rounds) = stream(n);
        // A single drive over 10⁶ arrivals is ~10⁶ heap operations; cap
        // the expensive row's samples so the default run stays short.
        let base = BenchConfig::default();
        let config = BenchConfig {
            samples: if n >= 1_000_000 {
                base.samples.min(5)
            } else {
                base.samples
            },
            ..base
        };
        let mut group = Bencher::with_config("ingest_drive", config);

        let virtual_ns = group
            .bench(&format!("{n}_virtual"), || {
                ingest::drive(black_box(&arrivals), rounds, &cfg)
            })
            .median_ns;

        eprintln!(
            "ingest_drive/{n}: {:.0} sealed-rounds/s ({:.2}M arrivals/s)",
            rounds as f64 / (virtual_ns * 1e-9),
            n as f64 / (virtual_ns * 1e-9) / 1e6,
        );
    }
}
