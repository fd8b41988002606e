//! Journal events and their JSON-line encoding.
//!
//! One event per line, rendered with `metrics::json` — whose writer
//! guarantees that every finite `f64` parses back *bit-identically*
//! (shortest-roundtrip rendering, correctly rounded parsing, `-0.0`
//! kept signed). That exactness is what lets a replayed journal
//! reconstruct the market's float state without drift.
//!
//! Decoding is total: any malformed, truncated, or out-of-domain line
//! yields `None` instead of panicking, because the reader uses decode
//! failure to locate the torn tail of a crashed write.
//! `lovm serve` requests decode bids through the same [`decode_bid`] and
//! [`decode_at`].

use auction::bid::{Bid, BidField};
use auction::outcome::Award;
use ingest::clock::valid_arrival_time;
use metrics::json::JsonValue;

/// One entry in the append-only market journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A bid arrival accepted by the collector under stream sequence
    /// number `seq`.
    Arrival {
        /// Stream sequence number (the deterministic tie-break).
        seq: u64,
        /// Virtual arrival instant.
        at: f64,
        /// The bid.
        bid: Bid,
    },
    /// A round sealed: the frozen, canonically ordered bid set.
    Seal {
        /// Round index.
        round: usize,
        /// Sealed bids in ascending-bidder order.
        sealed: Vec<Bid>,
    },
    /// The auction outcome of a sealed round — the commit record. A round
    /// is durable if and only if its outcome line is complete on disk.
    Outcome {
        /// Round index.
        round: usize,
        /// Winner awards in outcome order.
        awards: Vec<Award>,
        /// Virtual welfare of the selection.
        virtual_welfare: f64,
        /// Total payment of the round.
        spend: f64,
        /// Mechanism virtual-queue backlog *after* observing the spend.
        backlog: f64,
        /// Running state digest after this round (see `crate::Digest`).
        digest: u64,
    },
}

impl JournalEvent {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            JournalEvent::Arrival { seq, at, bid } => JsonValue::object()
                .field("event", "arrival")
                .field("seq", *seq)
                .field("at", *at)
                .field("bid", bid_to_json(bid))
                .to_string(),
            JournalEvent::Seal { round, sealed } => {
                let mut bids = JsonValue::array();
                for b in sealed {
                    bids = bids.item(bid_to_json(b));
                }
                JsonValue::object()
                    .field("event", "seal")
                    .field("round", *round)
                    .field("sealed", bids)
                    .to_string()
            }
            JournalEvent::Outcome {
                round,
                awards,
                virtual_welfare,
                spend,
                backlog,
                digest,
            } => {
                let mut aw = JsonValue::array();
                for a in awards {
                    aw = aw.item(
                        JsonValue::object()
                            .field("bidder", a.bidder)
                            .field("cost", a.cost)
                            .field("value", a.value)
                            .field("payment", a.payment),
                    );
                }
                JsonValue::object()
                    .field("event", "outcome")
                    .field("round", *round)
                    .field("awards", aw)
                    .field("welfare", *virtual_welfare)
                    .field("spend", *spend)
                    .field("backlog", *backlog)
                    .field("digest", crate::u64_hex(*digest))
                    .to_string()
            }
        }
    }

    /// Decodes one journal line; `None` on anything malformed.
    pub fn parse_line(line: &str) -> Option<JournalEvent> {
        Self::from_json(&JsonValue::parse(line).ok()?)
    }

    /// Decodes one parsed journal line; `None` on anything malformed.
    pub(crate) fn from_json(v: &JsonValue) -> Option<JournalEvent> {
        match v.get("event")?.as_str()? {
            "arrival" => Some(JournalEvent::Arrival {
                seq: v.get("seq")?.as_u64()?,
                at: decode_at(v).ok()?,
                bid: decode_bid(v.get("bid")?).ok()?,
            }),
            "seal" => {
                let sealed = v
                    .get("sealed")?
                    .as_array()?
                    .iter()
                    .map(decode_bid)
                    .collect::<Result<Vec<Bid>, _>>()
                    .ok()?;
                Some(JournalEvent::Seal {
                    round: v.get("round")?.as_usize()?,
                    sealed,
                })
            }
            "outcome" => {
                let awards = v
                    .get("awards")?
                    .as_array()?
                    .iter()
                    .map(award_from_json)
                    .collect::<Option<Vec<Award>>>()?;
                Some(JournalEvent::Outcome {
                    round: v.get("round")?.as_usize()?,
                    awards,
                    virtual_welfare: v.get("welfare")?.as_f64()?,
                    spend: v.get("spend")?.as_f64()?,
                    backlog: v.get("backlog")?.as_f64()?,
                    digest: crate::u64_from_hex(v.get("digest")?.as_str()?)?,
                })
            }
            _ => None,
        }
    }
}

/// Renders a bid as a JSON object.
pub(crate) fn bid_to_json(bid: &Bid) -> JsonValue {
    JsonValue::object()
        .field("bidder", bid.bidder)
        .field("cost", bid.cost)
        .field("data", bid.data_size)
        .field("quality", bid.quality)
}

/// Decodes `v`'s arrival time `at`, which must be finite and `>= 0`; the
/// error names `at`.
pub fn decode_at(v: &JsonValue) -> Result<f64, &'static str> {
    v.get("at")
        .and_then(JsonValue::as_f64)
        .filter(|&t| valid_arrival_time(t))
        .ok_or("bid needs a finite `at` >= 0")
}

/// Decodes `v`'s `bidder`, `cost`, `data` and `quality` fields into a bid
/// in [`Bid::try_new`]'s domain; the error names the first missing or
/// out-of-domain field.
pub fn decode_bid(v: &JsonValue) -> Result<Bid, &'static str> {
    const COST: &str = "bid needs a non-negative finite `cost`";
    const QUALITY: &str = "bid needs a `quality` in [0, 1]";
    let bidder = v
        .get("bidder")
        .and_then(JsonValue::as_usize)
        .ok_or("bid needs a `bidder` id")?;
    let cost = v.get("cost").and_then(JsonValue::as_f64).ok_or(COST)?;
    let data = v
        .get("data")
        .and_then(JsonValue::as_usize)
        .ok_or("bid needs a `data` size")?;
    let quality = v
        .get("quality")
        .and_then(JsonValue::as_f64)
        .ok_or(QUALITY)?;
    Bid::try_new(bidder, cost, data, quality).map_err(|field| match field {
        BidField::Cost => COST,
        BidField::Quality => QUALITY,
    })
}

fn award_from_json(v: &JsonValue) -> Option<Award> {
    Some(Award {
        bidder: v.get("bidder")?.as_usize()?,
        cost: v.get("cost")?.as_f64()?,
        value: v.get("value")?.as_f64()?,
        payment: v.get("payment")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Arrival {
                seq: 0,
                at: 0.372615,
                bid: Bid::new(3, 1.25, 300, 0.9),
            },
            JournalEvent::Arrival {
                seq: 1,
                at: 0.8,
                bid: Bid::new(1, 0.0, 0, 1.0),
            },
            JournalEvent::Seal {
                round: 0,
                sealed: vec![Bid::new(1, 0.0, 0, 1.0), Bid::new(3, 1.25, 300, 0.9)],
            },
            JournalEvent::Outcome {
                round: 0,
                awards: vec![Award {
                    bidder: 1,
                    cost: 0.0,
                    value: 0.5,
                    payment: std::f64::consts::FRAC_1_SQRT_2,
                }],
                virtual_welfare: 10.0 / 3.0,
                spend: std::f64::consts::FRAC_1_SQRT_2,
                backlog: -0.0,
                digest: 0xcbf2_9ce4_8422_2325,
            },
            JournalEvent::Seal {
                round: 1,
                sealed: vec![],
            },
            JournalEvent::Outcome {
                round: 1,
                awards: vec![],
                virtual_welfare: 0.0,
                spend: 0.0,
                backlog: 0.1 + 0.2,
                digest: u64::MAX,
            },
        ]
    }

    #[test]
    fn events_round_trip_bitwise() {
        for ev in sample_events() {
            let line = ev.to_line();
            assert!(!line.contains('\n'), "one event per line: {line}");
            let back =
                JournalEvent::parse_line(&line).unwrap_or_else(|| panic!("failed to parse {line}"));
            assert_eq!(back, ev, "line: {line}");
            // PartialEq on f64 treats -0.0 == 0.0; re-check the bits for
            // the float fields that must survive replay exactly.
            if let (
                JournalEvent::Outcome { backlog: a, .. },
                JournalEvent::Outcome { backlog: b, .. },
            ) = (&ev, &back)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn torn_prefixes_never_parse() {
        for ev in sample_events() {
            let line = ev.to_line();
            for cut in 0..line.len() {
                assert!(
                    JournalEvent::parse_line(&line[..cut]).is_none(),
                    "torn prefix parsed: {:?}",
                    &line[..cut]
                );
            }
        }
    }

    #[test]
    fn corrupted_domains_read_as_torn() {
        // Parseable JSON with out-of-domain values must decode to None,
        // not panic inside Bid::new.
        for line in [
            r#"{"event":"arrival","seq":0,"at":0.1,"bid":{"bidder":0,"cost":-1,"data":1,"quality":0.5}}"#,
            r#"{"event":"arrival","seq":0,"at":0.1,"bid":{"bidder":0,"cost":1,"data":1,"quality":1.5}}"#,
            r#"{"event":"arrival","seq":-1,"at":0.1,"bid":{"bidder":0,"cost":1,"data":1,"quality":0.5}}"#,
            r#"{"event":"arrival","seq":0,"at":-1,"bid":{"bidder":0,"cost":1,"data":1,"quality":0.5}}"#,
            r#"{"event":"seal","round":0,"sealed":[{"bidder":0,"cost":1,"data":1,"quality":0.5},{"bidder":1,"cost":-0.5,"data":1,"quality":0.5}]}"#,
            r#"{"event":"outcome","round":0,"awards":[],"welfare":0,"spend":0,"backlog":0,"digest":"xyz"}"#,
            r#"{"event":"mystery","round":0}"#,
            r#"[1,2,3]"#,
        ] {
            assert_eq!(JournalEvent::parse_line(line), None, "{line}");
        }
    }
}
