//! The one reader of `lovm.bench.v1` rows (`bench::harness`) for shell gates.
//! `--check FILE` validates an artifact file and prints its row names;
//! `--get BENCH FIELD` requires every stdin line to be a valid row and
//! prints FIELD of the one row named BENCH. Failures exit 1, naming the
//! file, line, row or key.

use bench::harness::{read_artifact, read_rows};
use metrics::json::JsonValue;

fn run(args: &[String]) -> Result<String, String> {
    match args {
        [mode, file] if mode == "--check" => {
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let rows = read_artifact(&text).map_err(|e| format!("{file}: {e}"))?;
            Ok(rows
                .iter()
                .map(|r| r.name.as_str())
                .collect::<Vec<_>>()
                .join("\n"))
        }
        [mode, bench, field] if mode == "--get" => {
            let text = std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string())?;
            let rows = read_rows(&text).map_err(|e| format!("stdin {e}"))?;
            let named: Vec<_> = rows.iter().filter(|r| r.name == *bench).collect();
            let [row] = named[..] else {
                return Err(format!("{} rows named `{bench}`, want one", named.len()));
            };
            match row.to_json().get(field) {
                Some(JsonValue::String(s)) => Ok(s.clone()),
                Some(v) => Ok(v.to_string()),
                None => Err(format!("row `{bench}` has no field `{field}`")),
            }
        }
        _ => Err("usage: bench_rows --check FILE | bench_rows --get BENCH FIELD".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("bench_rows: {e}");
            std::process::exit(1);
        }
    }
}
