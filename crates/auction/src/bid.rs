//! Bidder types for the reverse (procurement) auction.

/// A sealed bid submitted by one client in one round.
///
/// The *cost* is the client's private type (what it reports may differ from
/// the truth — the mechanism's job is to make truthful reporting optimal);
/// `data_size` and `quality` are assumed verifiable by the platform, as is
/// standard in FL incentive auctions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bid {
    /// Stable client identifier.
    pub bidder: usize,
    /// Reported cost of performing one round of local training (money or
    /// joules). Must be non-negative and finite.
    pub cost: f64,
    /// Number of local training examples the client commits.
    pub data_size: usize,
    /// Data quality score in `[0, 1]` (label noise, staleness, etc.).
    pub quality: f64,
}

/// The field [`Bid::try_new`] found out of domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BidField {
    /// `cost` is negative, NaN or infinite.
    Cost,
    /// `quality` is outside `[0, 1]`, NaN included.
    Quality,
}

impl Bid {
    /// Creates a bid, or names the first field (cost, then quality) out of
    /// the bid domain. Every input boundary checks bids through here.
    pub fn try_new(
        bidder: usize,
        cost: f64,
        data_size: usize,
        quality: f64,
    ) -> Result<Self, BidField> {
        if !(cost.is_finite() && cost >= 0.0) {
            return Err(BidField::Cost);
        }
        if !(0.0..=1.0).contains(&quality) {
            return Err(BidField::Quality);
        }
        Ok(Bid {
            bidder,
            cost,
            data_size,
            quality,
        })
    }

    /// Creates a bid.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is negative or non-finite, or `quality` is outside
    /// `[0, 1]`.
    pub fn new(bidder: usize, cost: f64, data_size: usize, quality: f64) -> Self {
        match Bid::try_new(bidder, cost, data_size, quality) {
            Ok(bid) => bid,
            Err(BidField::Cost) => panic!("cost must be finite and >= 0"),
            Err(BidField::Quality) => panic!("quality must be in [0, 1], got {quality}"),
        }
    }

    /// Returns a copy of this bid with a different reported cost — the
    /// misreport used by truthfulness probes.
    ///
    /// # Panics
    ///
    /// Panics if the new cost is negative or non-finite.
    pub fn with_cost(self, cost: f64) -> Self {
        Bid::new(self.bidder, cost, self.data_size, self.quality)
    }

    /// Quality-weighted data size, the scalar the default valuations use.
    pub fn effective_data(&self) -> f64 {
        self.data_size as f64 * self.quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_stores_fields() {
        let b = Bid::new(3, 2.5, 100, 0.75);
        assert_eq!(b.bidder, 3);
        assert_eq!(b.cost, 2.5);
        assert_eq!(b.data_size, 100);
        assert_eq!(b.quality, 0.75);
    }

    #[test]
    fn effective_data_weights_by_quality() {
        let b = Bid::new(0, 1.0, 200, 0.5);
        assert_eq!(b.effective_data(), 100.0);
    }

    #[test]
    fn with_cost_changes_only_cost() {
        let b = Bid::new(1, 1.0, 10, 0.9).with_cost(3.0);
        assert_eq!(b.cost, 3.0);
        assert_eq!(b.bidder, 1);
        assert_eq!(b.data_size, 10);
    }

    #[test]
    #[should_panic(expected = "cost must be finite")]
    fn rejects_negative_cost() {
        let _ = Bid::new(0, -1.0, 10, 0.5);
    }

    #[test]
    #[should_panic(expected = "cost must be finite")]
    fn rejects_nan_cost() {
        let _ = Bid::new(0, f64::NAN, 10, 0.5);
    }

    #[test]
    #[should_panic(expected = "quality must be in [0, 1]")]
    fn rejects_bad_quality() {
        let _ = Bid::new(0, 1.0, 10, 1.5);
    }

    #[test]
    fn try_new_names_the_failing_field() {
        assert_eq!(
            Bid::try_new(3, 2.5, 100, 0.75),
            Ok(Bid::new(3, 2.5, 100, 0.75))
        );
        assert_eq!(Bid::try_new(0, 0.0, 0, 0.0), Ok(Bid::new(0, 0.0, 0, 0.0)));
        for cost in [-1.0, -1e-300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                Bid::try_new(0, cost, 10, 0.5),
                Err(BidField::Cost),
                "{cost}"
            );
        }
        for quality in [-0.1, 1.0 + f64::EPSILON, f64::NAN, f64::INFINITY] {
            assert_eq!(
                Bid::try_new(0, 1.0, 10, quality),
                Err(BidField::Quality),
                "{quality}"
            );
        }
        // Both out of domain: cost is reported first.
        assert_eq!(Bid::try_new(0, f64::NAN, 10, 2.0), Err(BidField::Cost));
    }
}
