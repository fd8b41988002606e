//! Journal lines at real round sizes. A 4096-bid round seals into one
//! line of a few hundred kilobytes; recovery must read it back
//! bit-identically and must still refuse every torn prefix of it.

use auction::bid::Bid;
use auction::outcome::Award;
use journal::JournalEvent;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

const BIDS: usize = 4096;

fn seal_and_outcome() -> (JournalEvent, JournalEvent) {
    let mut rng = StdRng::seed_from_u64(4096);
    let sealed: Vec<Bid> = (0..BIDS)
        .map(|bidder| {
            Bid::new(
                bidder,
                rng.random_range(0.0..5.0),
                rng.random_range(1..2000usize),
                rng.random(),
            )
        })
        .collect();
    let mut awards = Vec::new();
    for b in &sealed {
        if rng.random_bool(0.05) {
            awards.push(Award {
                bidder: b.bidder,
                cost: b.cost,
                value: b.cost + rng.random_range(0.0..3.0),
                payment: b.cost + rng.random_range(0.0..1.0),
            });
        }
    }
    let spend = awards.iter().map(|a| a.payment).sum();
    let outcome = JournalEvent::Outcome {
        round: 41,
        virtual_welfare: awards.iter().map(|a| a.value - a.cost).sum(),
        awards,
        spend,
        backlog: rng.random_range(0.0..10.0),
        digest: rng.random(),
    };
    (JournalEvent::Seal { round: 41, sealed }, outcome)
}

#[test]
fn round_sized_lines_round_trip_bit_identically() {
    let (seal, outcome) = seal_and_outcome();
    for ev in [seal, outcome] {
        let line = ev.to_line();
        let back = JournalEvent::parse_line(&line).expect("a whole line parses");
        assert_eq!(back, ev);
        // Re-rendering is byte-identical, so every float kept its bits.
        assert_eq!(back.to_line(), line);
    }
}

#[test]
fn torn_prefixes_of_a_round_sized_seal_never_parse() {
    let (seal, _) = seal_and_outcome();
    let line = seal.to_line();
    assert!(line.len() > 250_000, "seal line is {} bytes", line.len());

    // Every cut in the last 256 bytes: the usual shape of a torn tail.
    let mut cuts: Vec<usize> = (line.len() - 256..line.len()).collect();
    // Every cut inside one bid in the middle of the line, string keys
    // included.
    let middle = format!("{{\"bidder\":{},", BIDS / 2);
    let start = line.find(&middle).expect("middle bid rendered");
    let end = start + line[start..].find('}').expect("bid object closes") + 1;
    cuts.extend(start..=end);
    // And a stride of cuts across the rest of the line.
    cuts.extend((0..line.len()).step_by(997));

    for cut in cuts {
        assert!(
            JournalEvent::parse_line(&line[..cut]).is_none(),
            "torn prefix of {cut} bytes parsed"
        );
    }
}
