//! In-repo micro-benchmark harness.
//!
//! The workspace builds offline with no external dependencies, so the old
//! `criterion` benches are ordinary `[[bin]]`s built on this module:
//! calibrated batching, a warmup phase, and per-sample statistics
//! (min/mean/median/p95 in nanoseconds), printed both as an aligned
//! human-readable row and as one JSON line per benchmark on stdout.
//!
//! Every row is a [`BenchResult`] (schema [`BENCH_SCHEMA`]); [`read_rows`]
//! and [`read_artifact`] are its one reader, exposed by the `bench_rows` bin.
//!
//! Knobs (environment variables):
//!
//! * `LOVM_BENCH_SAMPLES` — measured samples per benchmark (default 50).
//! * `LOVM_BENCH_BATCH_NS` — target wall time per sample batch in
//!   nanoseconds (default 2 ms); iterations per batch are calibrated so a
//!   sample takes roughly this long even for nanosecond-scale bodies.

use metrics::json::JsonValue;
use metrics::stats::percentile_sorted;
use std::hint::black_box;
use std::time::Instant;

/// Harness configuration; `default()` reads the environment knobs.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Measured samples per benchmark.
    pub samples: usize,
    /// Target batch duration in nanoseconds (the calibrated unit of
    /// measurement; per-iteration time is batch time / batch size).
    pub target_batch_ns: u64,
}

/// Name of the environment variable setting the measured samples.
const SAMPLES_ENV: &str = "LOVM_BENCH_SAMPLES";

/// Name of the environment variable setting the target batch duration.
const BATCH_NS_ENV: &str = "LOVM_BENCH_BATCH_NS";

impl Default for BenchConfig {
    /// # Panics
    ///
    /// Panics when either variable is set to anything but a positive
    /// integer (`0`, `-1`, `abc`, an empty string), naming the variable.
    fn default() -> Self {
        Self::from_env_values(
            std::env::var(SAMPLES_ENV).ok().as_deref(),
            std::env::var(BATCH_NS_ENV).ok().as_deref(),
        )
    }
}

impl BenchConfig {
    /// The parse behind [`BenchConfig::default`], with the raw variable
    /// values injected; `None` means unset (keep the default).
    fn from_env_values(samples: Option<&str>, batch_ns: Option<&str>) -> Self {
        let positive = |name: &str, raw: Option<&str>, default: u64| {
            raw.map_or(default, |raw| {
                raw.trim()
                    .parse::<u64>()
                    .ok()
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| panic!("{name} must be a positive integer, got `{raw}`"))
            })
        };
        Self {
            samples: positive(SAMPLES_ENV, samples, 50) as usize,
            target_batch_ns: positive(BATCH_NS_ENV, batch_ns, 2_000_000),
        }
    }
}

/// Schema tag of a bench artifact file: `{"schema":"lovm.bench.v1","rows":[…]}`.
pub const BENCH_SCHEMA: &str = "lovm.bench.v1";

/// One `lovm.bench.v1` row: statistics for one benchmark, all in
/// nanoseconds per iteration, plus optional named extras.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id, e.g. `wdp_topk_exact/1000`.
    pub name: String,
    /// Iterations per measured sample (after calibration).
    pub batch: u64,
    /// Number of measured samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: f64,
    /// Arithmetic mean over samples.
    pub mean_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Named extras (finite numbers or strings), rendered after the
    /// statistics in insertion order.
    pub extras: Vec<(String, JsonValue)>,
}

impl BenchResult {
    /// The statistics of one benchmark's samples (ns per iteration, any
    /// order): the one place min/mean/median/p95 are computed.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or a NaN sample.
    pub fn from_samples(name: impl Into<String>, batch: u64, mut samples_ns: Vec<f64>) -> Self {
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        Self {
            name: name.into(),
            batch,
            samples: samples_ns.len(),
            min_ns: samples_ns[0],
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            median_ns: percentile_sorted(&samples_ns, 50.0),
            p95_ns: percentile_sorted(&samples_ns, 95.0),
            extras: Vec::new(),
        }
    }

    /// Attaches a named extra (a number or a string).
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.extras.push((key.to_string(), value.into()));
        self
    }

    /// One-line JSON record (the machine-readable output contract).
    pub fn to_json(&self) -> JsonValue {
        let row = JsonValue::object()
            .field("bench", self.name.as_str())
            .field("batch", self.batch)
            .field("samples", self.samples)
            .field("min_ns", self.min_ns)
            .field("mean_ns", self.mean_ns)
            .field("median_ns", self.median_ns)
            .field("p95_ns", self.p95_ns);
        self.extras
            .iter()
            .fold(row, |row, (k, v)| row.field(k, v.clone()))
    }

    /// The one validator: reads a row back. Rejects, naming the key, a
    /// missing or non-finite required key, `batch`/`samples` below 1, a
    /// negative timing, `min_ns > median_ns` or `median_ns > p95_ns`, and
    /// an extra that is neither a finite number nor a string.
    pub fn from_json(row: &JsonValue) -> Result<Self, String> {
        let fields = row.entries().ok_or("a bench row must be a JSON object")?;
        let key = |k: &str| row.get(k).ok_or_else(|| format!("missing `{k}`"));
        let count = |k: &str| {
            let v = key(k)?.as_u64().filter(|&v| v >= 1);
            v.ok_or_else(|| format!("`{k}` must be an integer ≥ 1"))
        };
        let ns = |k: &str| {
            let v = key(k)?.as_f64().filter(|v| v.is_finite() && *v >= 0.0);
            v.ok_or_else(|| format!("`{k}` must be a finite number ≥ 0"))
        };
        let name = key("bench")?.as_str().ok_or("`bench` must be a string")?;
        let mut result = Self {
            name: name.to_string(),
            batch: count("batch")?,
            samples: count("samples")? as usize,
            min_ns: ns("min_ns")?,
            mean_ns: ns("mean_ns")?,
            median_ns: ns("median_ns")?,
            p95_ns: ns("p95_ns")?,
            extras: Vec::new(),
        };
        for (lo, hi) in [("min_ns", "median_ns"), ("median_ns", "p95_ns")] {
            if ns(lo)? > ns(hi)? {
                return Err(format!("`{lo}` exceeds `{hi}`"));
            }
        }
        // Every key the statistics render is required; the rest are extras.
        let required = result.to_json();
        for (k, value) in fields.iter().filter(|(k, _)| required.get(k).is_none()) {
            if !matches!(value, JsonValue::Number(v) if v.is_finite()) && value.as_str().is_none() {
                return Err(format!("extra `{k}` must be a finite number or a string"));
            }
            result.extras.push((k.clone(), value.clone()));
        }
        Ok(result)
    }
}

/// Reads bench stdout: every line must be one valid row. Errors name the
/// 1-based line.
pub fn read_rows(text: &str) -> Result<Vec<BenchResult>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            JsonValue::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|row| BenchResult::from_json(&row))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// The artifact file holding `rows`: `{"schema":"lovm.bench.v1","rows":[…]}`.
pub fn artifact(rows: &[BenchResult]) -> JsonValue {
    let rows: Vec<JsonValue> = rows.iter().map(BenchResult::to_json).collect();
    JsonValue::object()
        .field("schema", BENCH_SCHEMA)
        .field("rows", rows)
}

/// Reads an artifact file back: the schema tag, a non-empty `rows`, and
/// every row valid. Errors name the key (and the row's index).
pub fn read_artifact(text: &str) -> Result<Vec<BenchResult>, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!("`schema` must be \"{BENCH_SCHEMA}\""));
    }
    match doc.get("rows").and_then(JsonValue::as_array) {
        None => Err("missing `rows` array".into()),
        Some([]) => Err("`rows` is empty".into()),
        Some(rows) => rows
            .iter()
            .enumerate()
            .map(|(i, row)| BenchResult::from_json(row).map_err(|e| format!("rows[{i}]: {e}")))
            .collect(),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// A named group of benchmarks sharing one [`BenchConfig`]; mirrors the
/// shape of the old criterion groups so the bench bins read naturally.
pub struct Bencher {
    group: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
}

impl Bencher {
    /// Starts a group with settings from the environment.
    pub fn new(group: &str) -> Self {
        Self::with_config(group, BenchConfig::default())
    }

    /// Starts a group with explicit settings.
    pub fn with_config(group: &str, config: BenchConfig) -> Self {
        eprintln!("# bench group {group}");
        Self {
            group: group.to_string(),
            config,
            results: Vec::new(),
        }
    }

    /// Measures `f` and [reports](Self::report) the row.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) -> &BenchResult {
        let row = self.measure(name, f);
        self.report(row)
    }

    /// Measures `f` as row `<group>/<name>` without reporting it, so the
    /// caller can attach extras first. The closure's return value is
    /// passed through [`black_box`] so the optimizer cannot delete the
    /// body.
    pub fn measure<T>(&self, name: &str, mut f: impl FnMut() -> T) -> BenchResult {
        // Calibrate: grow the batch until one batch takes ≥ target/4, then
        // scale to the target. Doubles as warmup.
        let mut batch: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed >= self.config.target_batch_ns / 4 || batch >= 1 << 30 {
                break (elapsed.max(1) as f64 / batch as f64).max(0.25);
            }
            batch *= 2;
        };
        batch = ((self.config.target_batch_ns as f64 / per_iter_ns) as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        BenchResult::from_samples(format!("{}/{name}", self.group), batch, samples_ns)
    }

    /// Reports a finished row: one human row (stderr), one JSON line
    /// (stdout), and keeps it in [`results`](Self::results).
    pub fn report(&mut self, row: BenchResult) -> &BenchResult {
        eprintln!(
            "{:<44} median {:>12}  p95 {:>12}  min {:>12}  ({} x {})",
            row.name,
            fmt_ns(row.median_ns),
            fmt_ns(row.p95_ns),
            fmt_ns(row.min_ns),
            row.samples,
            row.batch,
        );
        println!("{}", row.to_json());
        self.results.push(row);
        self.results.last().expect("just pushed")
    }

    /// All rows reported so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            samples: 5,
            target_batch_ns: 50_000,
        }
    }

    #[test]
    fn measures_a_cheap_closure() {
        let mut b = Bencher::with_config("test", tiny_config());
        let mut x = 0u64;
        let r = b.bench("wrapping_add", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert_eq!(r.samples, 5);
        assert!(r.batch >= 1);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn json_line_has_contract_fields() {
        let mut b = Bencher::with_config("test", tiny_config());
        let r = b.bench("noop", || 1 + 1);
        let line = r.to_json().to_string();
        for key in [
            "\"bench\"",
            "\"median_ns\"",
            "\"p95_ns\"",
            "\"min_ns\"",
            "\"samples\"",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(line.starts_with("{\"bench\":\"test/noop\""));
    }

    #[test]
    fn from_samples_computes_the_row_statistics() {
        let r = BenchResult::from_samples("g/x", 3, vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((r.name.as_str(), r.batch, r.samples), ("g/x", 3, 5));
        assert_eq!((r.min_ns, r.mean_ns, r.median_ns), (1.0, 3.0, 3.0));
        assert!((r.p95_ns - 4.8).abs() < 1e-12);
        assert!(r.extras.is_empty());
    }

    #[test]
    fn printed_row_with_extras_validates_and_reads_back_identical() {
        let mut b = Bencher::with_config("test", tiny_config());
        let row = b
            .measure("extras", || 2 + 2)
            .with("n", 4096usize)
            .with("combo", "budgetcap")
            .with("bytes_per_solve", 0u64);
        let printed = b.report(row).clone();
        let line = printed.to_json().to_string();
        let back = BenchResult::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(back, printed);
        assert_eq!(
            read_rows(&format!("{line}\n{line}")).unwrap(),
            vec![printed.clone(), printed.clone()]
        );
        let json = back.to_json();
        assert_eq!(json.get("combo"), Some(&JsonValue::from("budgetcap")));
        assert_eq!(
            json.get("median_ns"),
            Some(&JsonValue::from(printed.median_ns))
        );
        let doc = artifact(b.results()).to_string();
        assert_eq!(read_artifact(&doc).unwrap(), vec![printed]);
    }

    #[test]
    fn parent_format_row_is_accepted() {
        let line = r#"{"bench":"solver/budgetcap_n4096_g4000_arena","batch":1,"samples":5,"min_ns":84121030,"mean_ns":86102210.4,"median_ns":85901234.5,"p95_ns":89550012}"#;
        let row = read_rows(line).unwrap().remove(0);
        assert_eq!(row.name, "solver/budgetcap_n4096_g4000_arena");
        assert_eq!(row.median_ns, 85901234.5);
        assert!(row.extras.is_empty());
        assert_eq!(row.to_json().to_string(), line);
    }

    #[test]
    fn invalid_rows_are_rejected_naming_the_key() {
        let good = BenchResult::from_samples("g/x", 2, vec![1.0, 2.0, 3.0]).to_json();
        let without = |key: &str| match good.clone() {
            JsonValue::Object(mut fields) => {
                fields.retain(|(k, _)| k != key);
                JsonValue::Object(fields)
            }
            _ => unreachable!(),
        };
        let cases = [
            (without("median_ns"), "missing `median_ns`"),
            (good.clone().field("mean_ns", f64::NAN), "`mean_ns` must be"),
            (good.clone().field("p95_ns", -3.0), "`p95_ns` must be"),
            (good.clone().field("samples", 0), "`samples` must be"),
            (good.clone().field("batch", 0), "`batch` must be"),
            (
                good.clone().field("min_ns", 2.5),
                "`min_ns` exceeds `median_ns`",
            ),
            (
                good.clone().field("p95_ns", 1.5),
                "`median_ns` exceeds `p95_ns`",
            ),
            (good.clone().field("bench", 7), "`bench` must be a string"),
            (
                good.clone().field("cells", JsonValue::array()),
                "extra `cells`",
            ),
        ];
        for (row, expected) in cases {
            let err = BenchResult::from_json(&row).expect_err(&row.to_string());
            assert!(
                err.contains(expected),
                "{row}: got `{err}`, want `{expected}`"
            );
            // A NaN renders as `null`; the text path names the key too.
            let line = row.to_string();
            let err = read_rows(&format!("{good}\n{line}")).expect_err(&line);
            assert!(
                err.starts_with("line 2: ") && err.contains(expected),
                "{err}"
            );
        }
    }

    #[test]
    fn invalid_artifacts_are_rejected_naming_the_key() {
        let row = BenchResult::from_samples("g/x", 1, vec![1.0]);
        let good = artifact(std::slice::from_ref(&row));
        assert_eq!(read_artifact(&good.to_string()).unwrap(), vec![row.clone()]);
        let bad_row = row.to_json().field("min_ns", 9.0);
        let cases = [
            (good.clone().field("schema", "lovm.bench.v2"), "`schema`"),
            (
                good.clone().field("rows", JsonValue::array()),
                "`rows` is empty",
            ),
            (
                JsonValue::object().field("schema", BENCH_SCHEMA),
                "missing `rows`",
            ),
            (
                good.clone()
                    .field("rows", JsonValue::array().item(row.to_json()).item(bad_row)),
                "rows[1]: `min_ns` exceeds `median_ns`",
            ),
        ];
        for (doc, expected) in cases {
            let err = read_artifact(&doc.to_string()).expect_err(&doc.to_string());
            assert!(
                err.contains(expected),
                "{doc}: got `{err}`, want `{expected}`"
            );
        }
    }

    #[test]
    fn env_values_parse_or_panic() {
        let unset = BenchConfig::from_env_values(None, None);
        assert_eq!((unset.samples, unset.target_batch_ns), (50, 2_000_000));
        let set = BenchConfig::from_env_values(Some("5"), Some(" 200000 "));
        assert_eq!((set.samples, set.target_batch_ns), (5, 200_000));
        for bad in ["0", "-1", "abc", "", "2.5"] {
            for (samples, batch_ns, name) in [
                (Some(bad), None, SAMPLES_ENV),
                (None, Some(bad), BATCH_NS_ENV),
            ] {
                let err =
                    std::panic::catch_unwind(|| BenchConfig::from_env_values(samples, batch_ns))
                        .expect_err(&format!("{name}=`{bad}` must panic"));
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    msg.contains(&format!("{name} must be a positive integer")),
                    "unhelpful panic message for {name}=`{bad}`: {msg}"
                );
            }
        }
    }
}
