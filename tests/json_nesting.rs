//! The parser's nesting cap against every document the workspace writes:
//! journal lines, the compaction header, snapshots and bench artifacts all
//! nest a handful of levels deep, far below `metrics::json::MAX_DEPTH`, so
//! the cap only ever refuses hostile input.

use auction::bid::Bid;
use auction::outcome::Award;
use bench::harness::BenchResult;
use ingest::events::Event;
use ingest::{AdmitClass, CollectorState, StreamTotals};
use journal::{JournalEvent, JournalWriter, OutcomeMark, Snapshot};
use metrics::json::{JsonValue, MAX_DEPTH};

/// Levels of arrays and objects; scalars are depth 0.
fn depth(v: &JsonValue) -> usize {
    match v {
        JsonValue::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        JsonValue::Object(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

fn parsed_depth(line: &str) -> usize {
    depth(&JsonValue::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
}

fn snapshot() -> Snapshot {
    let event = |seq: u64| Event {
        time: 3.25 + seq as f64,
        seq,
        bid: Bid::new(seq as usize, 1.5, 40, 0.75),
    };
    Snapshot {
        events: 8,
        collector: CollectorState {
            next_round: 2,
            next_seq: 7,
            offered: 7,
            queued: vec![event(5)],
            pending: vec![(2, event(6), AdmitClass::Grace)],
        },
        backlog: 0.5,
        welfare: 4.2,
        spend: 1.3,
        digest: 0x1234_5678_9abc_def0,
        totals: StreamTotals::default(),
    }
}

/// Every kind of document paired with its name.
fn documents() -> Vec<(&'static str, String)> {
    let bid = Bid::new(3, 1.25, 300, 0.9);
    let round = [
        JournalEvent::Arrival {
            seq: 0,
            at: 0.25,
            bid,
        },
        JournalEvent::Seal {
            round: 1,
            sealed: vec![bid],
        },
        JournalEvent::Outcome {
            round: 1,
            awards: vec![Award {
                bidder: 3,
                cost: 1.25,
                value: 2.0,
                payment: 1.5,
            }],
            virtual_welfare: 0.75,
            spend: 1.5,
            backlog: 0.5,
            digest: 0x1234_5678_9abc_def0,
        },
    ];

    // The compaction header is only ever written by `compact`, so take it
    // from a real compacted journal whose first round the snapshot covers.
    let path = std::env::temp_dir().join(format!("lovm-json-nesting-{}.jsonl", std::process::id()));
    let mut w = JournalWriter::create(&path).unwrap();
    for ev in &round {
        w.append(ev).unwrap();
    }
    w.sync().unwrap();
    // The mark of the round's outcome line, from the writer's commit.
    let at = OutcomeMark {
        events: w.events(),
        round: 1,
        digest: 0x1234_5678_9abc_def0,
        bytes: w.commit().bytes,
    };
    drop(w);
    let mut snap = snapshot();
    snap.events = 3;
    journal::compact(&path, &snap, &at).unwrap();
    let committed = journal::scan_meta(&path).unwrap().committed_bytes as usize;
    let text = std::fs::read_to_string(&path).unwrap();
    let header = text[..committed].lines().next().unwrap().to_string();
    std::fs::remove_file(&path).ok();

    let bench_row =
        BenchResult::from_samples("solver/budget_n4096_g4000_arena", 4, vec![1.0, 2.0, 3.0])
            .with("n", 4096)
            .with("combo", "budget");
    let solver_artifact =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_solver.json")).unwrap();

    vec![
        ("arrival", round[0].to_line()),
        ("seal", round[1].to_line()),
        ("outcome", round[2].to_line()),
        ("compaction header", header),
        ("snapshot", snapshot().to_json().to_string()),
        ("bench row", bench_row.to_json().to_string()),
        ("solver artifact", solver_artifact.trim().to_string()),
    ]
}

#[test]
fn written_documents_nest_far_below_the_cap() {
    let depths: Vec<(&str, usize)> = documents()
        .iter()
        .map(|(name, line)| (*name, parsed_depth(line)))
        .collect();
    for &(name, d) in &depths {
        assert!(d >= 1, "{name} parsed as a scalar");
        assert!(
            d * 16 <= MAX_DEPTH,
            "{name} nests {d} deep, too close to the cap of {MAX_DEPTH}"
        );
    }
    // The compaction header is the deepest: a snapshot (its pending bids
    // three levels down) inside an envelope.
    assert_eq!(depths.iter().map(|&(_, d)| d).max(), Some(7));
}
