//! Summary statistics: percentiles, the tail rule, and the failure and
//! quarantine shares.

/// The value at percentile `p` (0–100) of `sorted` by nearest rank: the
/// smallest value with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Minimum samples a tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles a tail may fall back to, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The tail percentile to report for `n` samples: the highest
/// percentile no higher than `wanted` with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` if even the median
/// has fewer.
pub fn tail_percentile(n: usize, wanted: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| samples_beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median and tail of a sample set, with the percentile actually used
/// for the tail and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// The percentile the tail was read at (`wanted` when the sample
    /// count allows it).
    pub tail_p: f64,
}

/// Summarises `values` with the tail read at `wanted` or the highest
/// percentile below it that the tail rule allows. With too few samples
/// for any tail, the tail is the maximum and `tail_p` is 100.
pub fn summarize(values: &[f64], wanted: f64) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail_p, tail) = match tail_percentile(n, wanted) {
        Some(p) => (p, percentile(&sorted, p)),
        None => (100.0, sorted[n - 1]),
    };
    Some(Summary { n, p50: percentile(&sorted, 50.0), tail, tail_p })
}

/// The median of `values` (nearest rank), or `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values, 50.0).map(|s| s.p50)
}

/// Attempted and failed area rounds, submitted and quarantined bidders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Shares {
    /// Area rounds started.
    pub attempted: u64,
    /// Area rounds that panicked or returned an error.
    pub failed: u64,
    /// Bidders whose submissions entered a round.
    pub submitted: u64,
    /// Bidders the round quarantined.
    pub quarantined: u64,
}

impl Shares {
    /// Records one area round: its bidders, how many were quarantined,
    /// and whether it failed. A failed round quarantines nobody — it
    /// settled no one — so its bidders count as submitted only.
    pub fn record(&mut self, bidders: usize, quarantined: usize, failed: bool) {
        self.attempted += 1;
        self.submitted += bidders as u64;
        if failed {
            self.failed += 1;
        } else {
            self.quarantined += quarantined as u64;
        }
    }

    /// Failed rounds ÷ attempted rounds.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Quarantined bidders ÷ submitted bidders.
    pub fn quarantined_share(&self) -> f64 {
        ratio(self.quarantined, self.submitted)
    }

    /// Rounds that settled ÷ attempted: `1 − failed_share`.
    pub fn settled_share(&self) -> f64 {
        1.0 - self.failed_share()
    }

    /// Bidders not quarantined ÷ submitted: `1 − quarantined_share`.
    pub fn accepted_share(&self) -> f64 {
        1.0 - self.quarantined_share()
    }
}

/// `num ÷ den`, 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        // p90 is allowed from 100 samples on; below that it falls back.
        assert_eq!(tail_percentile(100, 90.0), Some(90.0));
        assert_eq!(tail_percentile(99, 90.0), Some(80.0));
        assert_eq!(tail_percentile(50, 90.0), Some(80.0));
        assert_eq!(tail_percentile(49, 90.0), Some(75.0));
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(98.0));
        // Never above what was asked for, however many samples.
        assert_eq!(tail_percentile(1_000_000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(19, 90.0), None);
        assert_eq!(tail_percentile(20, 90.0), Some(50.0));
    }

    #[test]
    fn summary_reports_the_percentile_it_used() {
        let v: Vec<f64> = (1..=60).map(f64::from).rev().collect();
        let s = summarize(&v, 90.0).unwrap();
        assert_eq!(s.n, 60);
        assert_eq!(s.p50, 30.0);
        assert_eq!(s.tail_p, 80.0);
        assert_eq!(s.tail, 48.0);
        let few = summarize(&[3.0, 1.0, 2.0], 90.0).unwrap();
        assert_eq!((few.tail_p, few.tail), (100.0, 3.0));
        assert!(summarize(&[], 90.0).is_none());
    }

    #[test]
    fn shares_count_failed_rounds_and_quarantined_bidders() {
        let mut s = Shares::default();
        s.record(25, 1, false);
        s.record(25, 0, false);
        s.record(25, 3, true); // a panicked round quarantines nobody
        s.record(25, 0, false);
        assert_eq!(s.attempted, 4);
        assert_eq!(s.failed, 1);
        assert_eq!(s.submitted, 100);
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.failed_share(), 0.25);
        assert_eq!(s.settled_share(), 0.75);
        assert_eq!(s.quarantined_share(), 0.01);
        assert_eq!(s.accepted_share(), 0.99);
        let empty = Shares::default();
        assert_eq!(empty.failed_share(), 0.0);
        assert_eq!(empty.settled_share(), 1.0);
    }
}
