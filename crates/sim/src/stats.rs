//! Fixed-bucket histograms of simulated durations.

use crate::time::SimDuration;

/// A power-of-two-bucketed histogram of nanosecond durations.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` ns, with bucket 0 covering `[0, 2)`.
///
/// # Examples
///
/// ```
/// use flash_sim::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// h.record(SimDuration::from_nanos(100));
/// h.record(SimDuration::from_nanos(120));
/// assert_eq!(h.total(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            total: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let bucket = if ns < 2 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[bucket.min(63)] += 1;
        self.total += 1;
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Merges another histogram into this one, bucket-wise. Buckets are
    /// fixed power-of-two ranges, so merging per-run or per-workload
    /// histograms is exactly equivalent to recording every sample into one
    /// histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.total += other.total;
    }

    /// An upper bound on the `q`-quantile (`q` in `[0,1]`), as the top edge
    /// of the bucket containing that quantile. Returns zero for an empty
    /// histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return SimDuration::from_nanos(upper);
            }
        }
        SimDuration::from_nanos(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(0));
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_nanos(1024));
        assert_eq!(h.total(), 3);
        // Two samples in bucket 0, so the median upper bound is tiny.
        assert!(h.quantile_upper_bound(0.5).as_nanos() <= 1);
        // The max lives in the 1024 bucket: upper edge 2047.
        assert_eq!(h.quantile_upper_bound(1.0).as_nanos(), 2047);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for ns in [3u64, 70, 900, 70_000] {
            a.record(SimDuration::from_nanos(ns));
            combined.record(SimDuration::from_nanos(ns));
        }
        for ns in [1u64, 70, 2_000_000] {
            b.record(SimDuration::from_nanos(ns));
            combined.record(SimDuration::from_nanos(ns));
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.total(), 7);
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper_bound(0.9), SimDuration::ZERO);
    }
}
