//! Lightweight statistics helpers used across the simulator: counters,
//! running summaries and fixed-bucket histograms of simulated durations.

use crate::time::SimDuration;
use std::fmt;

/// A named set of monotonically increasing event counters.
///
/// Counter names are `&'static str` literals, so the hot path (a handful of
/// counters bumped once per simulated event) scans a small flat vector
/// comparing *addresses* first — the same call site always passes the same
/// literal — and falls back to content comparison only for names minted at
/// a different address (e.g. the same literal in another crate).
///
/// # Examples
///
/// ```
/// use flash_sim::Counters;
///
/// let mut c = Counters::new();
/// c.add("packets_sent", 3);
/// c.incr("packets_sent");
/// assert_eq!(c.get("packets_sent"), 4);
/// assert_eq!(c.get("never_touched"), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Insertion-ordered; [`Counters::iter`] sorts on demand.
    entries: Vec<(&'static str, u64)>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name`, creating it if absent.
    pub fn add(&mut self, name: &'static str, n: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| std::ptr::eq(e.0, name)) {
            e.1 += n;
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == name) {
            e.1 += n;
            return;
        }
        self.entries.push((name, n));
    }

    /// Adds one to counter `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads counter `name`; untouched counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|e| e.0 == name)
            .map(|e| e.1)
            .unwrap_or(0)
    }

    /// Iterates over all (name, value) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|e| e.0);
        sorted.into_iter()
    }
}

impl PartialEq for Counters {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}
impl Eq for Counters {}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

/// Running summary (count/min/max/mean) of a stream of samples.
///
/// # Examples
///
/// ```
/// use flash_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 2.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a simulated duration, in milliseconds.
    pub fn record_duration_ms(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum sample; 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample; 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

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
    fn counters_accumulate() {
        let mut a = Counters::new();
        a.incr("x");
        a.add("y", 5);
        a.add("y", 2);
        a.incr("z");
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 7);
        assert_eq!(a.get("z"), 1);
        assert_eq!(a.iter().count(), 3);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        s.record(10.0);
        s.record(-2.0);
        s.record(4.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), -2.0);
        assert_eq!(s.max(), 10.0);
        assert!((s.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn summary_records_durations() {
        let mut s = Summary::new();
        s.record_duration_ms(SimDuration::from_millis(3));
        assert_eq!(s.mean(), 3.0);
    }

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
