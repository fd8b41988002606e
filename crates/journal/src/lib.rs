//! # journal — event sourcing for the market server
//!
//! The ingest layer's total `(time, seq)` event order is the workspace's
//! determinism root; this crate turns it into a *durability* root. Every
//! arrival, seal, and auction outcome becomes one JSON line in an
//! append-only journal ([`JournalEvent`], [`JournalWriter`]), fsynced at
//! each seal so the outcome line is the commit record. A killed server
//! recovers in one pass over the file ([`recover`]): each line is parsed
//! once, each round's events are held until its outcome line commits
//! them, the torn or uncommitted tail is truncated, and a [`Snapshot`]
//! taken at a sealed round fast-forwards replay once the outcome line it
//! sits at verifies it — landing *bit-identically* on the last
//! fully-sealed round without ever holding the log in memory.
//! [`scan_meta`], [`recover_meta`] and [`stream_events`] read through the
//! same line loop.
//!
//! [`compact`] keeps long-lived journals bounded: once a snapshot
//! commits, the covered prefix is rewritten away behind a header line
//! that embeds the snapshot itself, so a compacted journal stays
//! self-contained and recovery transparently handles a file whose first
//! event index is nonzero. The writer of the snapshot names its boundary
//! by the mark it kept, so compaction reads no line before it but the
//! outcome line it checks.
//!
//! Bit-exactness is inherited from `metrics::json`: every finite `f64`
//! the writer renders parses back to the same bits, and the running
//! [`Digest`] (FNV-1a over the raw bit patterns of everything economic)
//! makes two states byte-comparable across processes and machines.

pub mod event;
pub mod snapshot;
pub mod store;

pub use event::JournalEvent;
pub use snapshot::{read_snapshot, write_snapshot, Snapshot};
pub use store::{
    compact, fsync_parent_dir, recover, recover_meta, scan_meta, stream_events, Base, Commit,
    CompactStats, JournalMeta, JournalWriter, OutcomeMark, Recovery, Replay, HOLD_EVENTS,
};

/// Running FNV-1a digest over the bit patterns of a market trajectory.
///
/// Fold in every sealed round's contents and outcome in order; equal
/// digests then mean bit-identical histories (up to 64-bit collision).
/// The digest deliberately covers *decisions and money* — sealed bids,
/// awards, welfare, spend, backlog — and not telemetry counters, which
/// restart at recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest(Self::OFFSET)
    }

    /// A digest resumed from a previously exported value.
    pub fn resume(value: u64) -> Self {
        Digest(value)
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Folds in eight raw bytes.
    pub fn fold_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in a float's exact bit pattern (distinguishes `-0.0` from
    /// `0.0` and every NaN payload).
    pub fn fold_f64(&mut self, v: f64) {
        self.fold_u64(v.to_bits());
    }

    /// Folds in a usize (as u64).
    pub fn fold_usize(&mut self, v: usize) {
        self.fold_u64(v as u64);
    }
}

/// Renders a `u64` as fixed-width lowercase hex — the journal encoding
/// for digests, whose values exceed the exact-integer range of a JSON
/// number's `f64` carrier.
pub fn u64_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses [`u64_hex`] output; `None` on anything else.
pub fn u64_from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX, 1 << 63] {
            assert_eq!(u64_from_hex(&u64_hex(v)), Some(v));
        }
        for bad in ["", "0x12", "12345", "g000000000000000", "00000000000000001"] {
            assert_eq!(u64_from_hex(bad), None, "{bad}");
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_resumable() {
        let mut a = Digest::new();
        a.fold_f64(1.5);
        a.fold_u64(7);
        let mut b = Digest::new();
        b.fold_u64(7);
        b.fold_f64(1.5);
        assert_ne!(a.value(), b.value(), "order must matter");

        // Resuming from an exported value continues the same stream.
        let mut full = Digest::new();
        full.fold_f64(1.5);
        let checkpoint = full.value();
        full.fold_f64(2.5);
        let mut resumed = Digest::resume(checkpoint);
        resumed.fold_f64(2.5);
        assert_eq!(full.value(), resumed.value());
    }

    #[test]
    fn digest_separates_signed_zero() {
        let mut pos = Digest::new();
        pos.fold_f64(0.0);
        let mut neg = Digest::new();
        neg.fold_f64(-0.0);
        assert_ne!(pos.value(), neg.value());
    }
}
