//! # bench — experiment harness shared code
//!
//! Each `exp_e*` binary in `src/bin/` regenerates one table/figure of the
//! reconstructed evaluation (see EXPERIMENTS.md); this library holds the
//! pieces they share: the standard mechanism roster, checkpointed series
//! tables, environment-variable scaling for quick runs, the
//! zero-dependency micro-benchmark [`harness`] behind the `bench_*` bins,
//! and the [`golden`] snapshot helper that pins every experiment's stdout.

pub mod golden;
pub mod harness;

use auction::bid::Bid;
use baselines::{
    AllAvailable, BudgetSplitGreedy, FixedPrice, MyopicVcg, ProportionalShare, RandomK,
};
use lovm_core::lovm::{Lovm, LovmConfig};
use lovm_core::mechanism::Mechanism;
use metrics::table::Table;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};
use workload::Scenario;

/// The standard random bid population used by the micro-benchmarks:
/// costs in `0.2..3.0`, data sizes in `50..500`, qualities in `0.5..1.0`.
/// One generator so every benchmark family measures the same workload.
pub fn random_bids(n: usize, seed: u64) -> Vec<Bid> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            Bid::new(
                i,
                rng.random_range(0.2..3.0),
                rng.random_range(50..500),
                rng.random_range(0.5..1.0),
            )
        })
        .collect()
}

/// Name of the environment variable scaling experiment sizes.
const SCALE_ENV: &str = "LOVM_SCALE";

/// Scale factor for experiment sizes, from `LOVM_SCALE` (default 1.0).
/// `LOVM_SCALE=0.1 cargo run --bin exp_e1_welfare` gives a 10× faster smoke
/// run with the same code path.
///
/// # Panics
///
/// Panics when the variable is set to anything but a finite positive
/// number (`0`, `-1`, `0,1`, an empty string): a mistyped smoke must fail
/// at startup, not silently run the full-size experiment.
pub fn scale() -> f64 {
    parse_scale(std::env::var(SCALE_ENV).ok().as_deref())
}

/// The parse behind [`scale`], with the raw variable value injected;
/// `None` means unset (full size).
fn parse_scale(raw: Option<&str>) -> f64 {
    raw.map_or(1.0, |raw| {
        raw.trim()
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .unwrap_or_else(|| {
                panic!("{SCALE_ENV} must be a finite positive number such as `0.1`, got `{raw}`")
            })
    })
}

/// Applies [`scale`] to a round/size count (at least 10).
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(10)
}

/// Shrinks a scenario's horizon (and budget proportionally) by [`scale`].
pub fn scale_scenario(mut s: Scenario) -> Scenario {
    let factor = scale();
    if (factor - 1.0).abs() > 1e-12 {
        let new_h = ((s.horizon as f64 * factor) as usize).max(10);
        s.total_budget *= new_h as f64 / s.horizon as f64;
        s.horizon = new_h;
    }
    s
}

/// The standard mechanism roster used by most experiments: LOVM plus every
/// baseline, configured consistently for the scenario.
pub fn roster(scenario: &Scenario, v: f64, seed: u64) -> Vec<Box<dyn Mechanism>> {
    let valuation = scenario.valuation;
    vec![
        Box::new(Lovm::new(LovmConfig::for_scenario(scenario, v))),
        Box::new(MyopicVcg::new(valuation, None)),
        Box::new(BudgetSplitGreedy::new(valuation, None)),
        Box::new(ProportionalShare::new(valuation)),
        Box::new(FixedPrice::new(1.2, valuation, None)),
        Box::new(RandomK::new(4, valuation, seed)),
    ]
}

/// The roster plus the budget-agnostic FedAvg reference.
pub fn roster_with_upper_bound(scenario: &Scenario, v: f64, seed: u64) -> Vec<Box<dyn Mechanism>> {
    let mut r = roster(scenario, v, seed);
    r.push(Box::new(AllAvailable::new(scenario.valuation)));
    r
}

/// Evenly spaced checkpoints (1-based round numbers) for series tables.
pub fn checkpoints(horizon: usize, count: usize) -> Vec<usize> {
    let count = count.max(1).min(horizon.max(1));
    (1..=count).map(|i| (horizon * i) / count).collect()
}

/// Builds a table of one metric sampled at checkpoints for several runs.
///
/// `rows` maps a label to the full per-round series; values are sampled at
/// `points` (1-based, clamped to the series length).
pub fn series_table(
    metric: &str,
    points: &[usize],
    rows: &[(String, Vec<f64>)],
    precision: usize,
) -> Table {
    let mut headers = vec![format!("{metric} @round")];
    for p in points {
        headers.push(p.to_string());
    }
    let mut table = Table::new(headers);
    for (label, series) in rows {
        let mut cells = vec![label.clone()];
        for &p in points {
            let idx = p.min(series.len()).saturating_sub(1);
            cells.push(format!(
                "{:.precision$}",
                series.get(idx).copied().unwrap_or(f64::NAN)
            ));
        }
        table.row(cells);
    }
    table
}

/// Prints an experiment header in a stable format the EXPERIMENTS.md
/// tables reference.
pub fn header(id: &str, claim: &str, scenario: &Scenario, seed: u64) {
    println!("## {id}: {claim}");
    println!(
        "scenario `{}` (N={}, horizon={}, budget={:.0}, rho={:.2}), seed {seed}, scale {}\n",
        scenario.name,
        scenario.population.num_clients,
        scenario.horizon,
        scenario.total_budget,
        scenario.budget_per_round(),
        scale()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_are_within_horizon_and_sorted() {
        let cps = checkpoints(1000, 5);
        assert_eq!(cps, vec![200, 400, 600, 800, 1000]);
        let one = checkpoints(3, 10);
        assert!(one.iter().all(|&c| (1..=3).contains(&c)));
    }

    #[test]
    fn series_table_samples_checkpoints() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = series_table("welfare", &[50, 100], &[("LOVM".to_string(), series)], 1);
        let md = t.to_markdown();
        assert!(md.contains("49.0"));
        assert!(md.contains("99.0"));
    }

    #[test]
    fn roster_contains_lovm_and_baselines() {
        let s = Scenario::small();
        let r = roster(&s, 10.0, 0);
        assert_eq!(r.len(), 6);
        assert!(r[0].name().starts_with("LOVM"));
        let rb = roster_with_upper_bound(&s, 10.0, 0);
        assert_eq!(rb.len(), 7);
    }

    #[test]
    fn scaled_has_floor() {
        assert!(scaled(1000) >= 10);
    }

    #[test]
    fn scale_env_parses_or_panics() {
        assert_eq!(parse_scale(None), 1.0);
        assert_eq!(parse_scale(Some("0.1")), 0.1);
        assert_eq!(parse_scale(Some(" 2 ")), 2.0);
        for bad in ["0", "-1", "0,1", "abc", "", "inf", "NaN"] {
            let err = std::panic::catch_unwind(|| parse_scale(Some(bad)))
                .expect_err(&format!("`{bad}` must panic"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("LOVM_SCALE must be a finite positive number"),
                "unhelpful panic message for `{bad}`: {msg}"
            );
        }
    }
}
