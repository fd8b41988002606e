//! Seeded inputs. The program under test only ever sees what these
//! functions generate; the same `(seed, round)` always yields the same bids.

use auction::Bid;
use metrics::json::JsonValue;
use simrng::{derive_seed, rngs::StdRng, RngExt, SeedableRng};

/// Bids per served (and journaled) round.
pub const ROUND_BIDS: usize = 1000;

/// Decorrelates the served stream from the clear instances of one seed.
const STREAM_SALT: u64 = 0x7065_7266_7374_726d;
const CLEAR_SALT: u64 = 0x7065_7266_636c_7272;

/// One arrival of the served stream.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub at: f64,
    pub bid: Bid,
}

/// Round `round` of the served stream: `n` bidders arriving inside the
/// round's span, drawn like `lovm drive` draws them.
pub fn stream_round(seed: u64, round: usize, n: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ STREAM_SALT, round as u64));
    (0..n)
        .map(|bidder| {
            let at = round as f64 + rng.random_range(0.05..0.95);
            let cost = rng.random_range(0.5..3.0);
            let data = rng.random_range(50..500usize);
            let quality = rng.random_range(0.5..1.0);
            Arrival {
                at,
                bid: Bid::new(bidder, cost, data, quality),
            }
        })
        .collect()
}

/// The bids of budgeted clear number `clear` (the E7 bid shape).
pub fn clear_bids(seed: u64, clear: usize, n: usize) -> Vec<Bid> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ CLEAR_SALT, clear as u64));
    (0..n)
        .map(|bidder| {
            Bid::new(
                bidder,
                rng.random_range(0.2..3.0),
                rng.random_range(50..500usize),
                rng.random_range(0.5..1.0),
            )
        })
        .collect()
}

/// The clear's bids as one round of arrivals, spread evenly over round
/// `round`, so the serving layers can be probed with the clear's volume.
pub fn clear_as_round(bids: &[Bid], round: usize) -> Vec<Arrival> {
    let n = bids.len().max(1) as f64;
    bids.iter()
        .enumerate()
        .map(|(i, &bid)| Arrival {
            at: round as f64 + 0.05 + 0.9 * i as f64 / n,
            bid,
        })
        .collect()
}

/// The wire request a client sends for one arrival.
pub fn bid_request(a: &Arrival) -> String {
    let mut line = JsonValue::object()
        .field("cmd", "bid")
        .field("at", a.at)
        .field("bidder", a.bid.bidder)
        .field("cost", a.bid.cost)
        .field("data", a.bid.data_size)
        .field("quality", a.bid.quality)
        .to_string();
    line.push('\n');
    line
}
