//! The one reader of `lovm.bench.v1` rows (`bench::harness`) for shell gates.
//! `--check FILE` validates an artifact file and prints its row names;
//! `--get BENCH FIELD` requires every stdin line to be a valid row and
//! prints FIELD of the one row named BENCH; `--artifact` requires the same
//! of stdin and prints those rows as one artifact document. Failures exit
//! 1, naming the file, line, row or key.

use bench::harness::{artifact, read_artifact, read_rows};
use metrics::json::JsonValue;
use std::io::{ErrorKind, Write};

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
        [mode] if mode == "--artifact" => {
            let text = std::io::read_to_string(std::io::stdin()).map_err(|e| e.to_string())?;
            let rows = read_rows(&text).map_err(|e| format!("stdin {e}"))?;
            if rows.is_empty() {
                return Err("no rows on stdin".into());
            }
            Ok(artifact(&rows).to_string())
        }
        _ => Err(
            "usage: bench_rows --check FILE | bench_rows --get BENCH FIELD | bench_rows --artifact"
                .into(),
        ),
    }
}

/// Writes `text` and a newline to `out`. A reader that closed early, as
/// `bench_rows --check FILE | head -3` does, took what it wanted: a
/// broken pipe is a clean finish, not an error.
fn emit(out: &mut impl Write, text: &str) -> std::io::Result<()> {
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        done => done,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let written = run(&args).and_then(|out| {
        emit(&mut std::io::stdout().lock(), &out).map_err(|e| format!("stdout: {e}"))
    });
    if let Err(e) = written {
        eprintln!("bench_rows: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose reader is gone, or that fails some other way.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn a_closed_pipe_is_a_clean_finish() {
        assert!(emit(&mut Failing(ErrorKind::BrokenPipe), "row").is_ok());
        let err = emit(&mut Failing(ErrorKind::PermissionDenied), "row").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        let mut out = Vec::new();
        emit(&mut out, "row").unwrap();
        assert_eq!(out, b"row\n");
    }
}
