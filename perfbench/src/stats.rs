//! Percentiles with the benchmark's tail rule, and the metric rows a run
//! reports.

use metrics::json::JsonValue;

/// Fewest samples that must lie beyond a tail percentile for it to count.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Independent observations of one operation, one value each.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// Percentile `p` in `(0, 1)`, as `metrics::stats::percentile` gives
    /// it. `None` when the set is empty, or when `p` is a tail (above the
    /// median) with fewer than [`TAIL_MIN_BEYOND`] observations beyond it —
    /// such a tail is missing, not measured.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.values.len() as f64;
        // The epsilon keeps float rounding of `1 - p` from rejecting an
        // exact count (100 samples hold exactly 10 beyond p90).
        if n == 0.0 || (p > 0.5 && n * (1.0 - p) + 1e-9 < TAIL_MIN_BEYOND) {
            return None;
        }
        Some(metrics::stats::percentile(&self.values, p * 100.0))
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }
}

/// One reported metric: `value` is `None` when it could not be measured
/// (too few samples for its percentile).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: Option<f64>, unit: &'static str, samples: u64) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The `metrics` object of the result line.
pub fn metrics_json(rows: &[Metric]) -> JsonValue {
    let mut out = JsonValue::object();
    for m in rows {
        let value = match m.value {
            Some(v) if v.is_finite() => JsonValue::Number(v),
            _ => JsonValue::Null,
        };
        out = out.field(
            m.name,
            JsonValue::object()
                .field("value", value)
                .field("unit", m.unit),
        );
    }
    out
}

/// Per-metric sample counts, for the provenance line.
pub fn samples_json(rows: &[Metric]) -> JsonValue {
    let mut out = JsonValue::object();
    for m in rows {
        out = out.field(m.name, m.samples);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_with_too_few_samples_beyond_is_missing() {
        let mut s = Samples::default();
        for i in 0..99 {
            s.push(f64::from(i));
        }
        // 99 samples: 9.9 lie beyond p90, so p90 is missing; the median is not.
        assert_eq!(s.percentile(0.9), None);
        assert_eq!(s.median(), Some(49.0));
        s.push(99.0);
        assert!((s.percentile(0.9).unwrap() - 89.1).abs() < 1e-9);
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn empty_and_missing_render_as_null() {
        let rows = [Metric::new(
            "bid_p99_us",
            Samples::default().percentile(0.99),
            "us",
            0,
        )];
        assert_eq!(
            metrics_json(&rows).to_string(),
            r#"{"bid_p99_us":{"value":null,"unit":"us"}}"#
        );
    }
}
