//! The metrics registry: named counters plus fixed-bucket latency
//! histograms, allocation-free on the steady-state hot path (names are
//! `&'static str` literals found by address comparison first) and a single
//! branch when disabled.

use flash_sim::{Counters, LatencyHistogram, SimDuration};

/// Tail-latency quantiles extracted from a fixed-bucket histogram by
/// nearest rank: each field is the top edge of the bucket containing the
/// `ceil(q * total)`-th sample, so the extraction is exact, deterministic
/// and identical across hosts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Number of samples the quantiles summarize.
    pub total: u64,
    /// Median upper bound, in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile upper bound, in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile upper bound, in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile upper bound, in nanoseconds.
    pub p999_ns: u64,
    /// Maximum sample's bucket upper bound, in nanoseconds.
    pub max_ns: u64,
}

impl Quantiles {
    /// Extracts p50/p95/p99/p999/max from a histogram. All fields are zero
    /// for an empty histogram.
    pub fn of(h: &LatencyHistogram) -> Quantiles {
        Quantiles {
            total: h.total(),
            p50_ns: h.quantile_upper_bound(0.50).as_nanos(),
            p95_ns: h.quantile_upper_bound(0.95).as_nanos(),
            p99_ns: h.quantile_upper_bound(0.99).as_nanos(),
            p999_ns: h.quantile_upper_bound(0.999).as_nanos(),
            max_ns: h.quantile_upper_bound(1.0).as_nanos(),
        }
    }
}

/// Counters and histograms recorded alongside the trace.
///
/// # Examples
///
/// ```
/// use flash_obs::Metrics;
/// use flash_sim::SimDuration;
///
/// let mut m = Metrics::new();
/// m.incr("handler_dispatches");
/// m.observe("handler_cost_ns", SimDuration::from_nanos(140));
/// assert_eq!(m.counters().get("handler_dispatches"), 1);
/// assert_eq!(m.histogram("handler_cost_ns").unwrap().total(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    enabled: bool,
    counters: Counters,
    /// Insertion-ordered; snapshots sort by name on demand.
    hists: Vec<(&'static str, LatencyHistogram)>,
}

impl Metrics {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        Metrics {
            enabled: true,
            counters: Counters::new(),
            hists: Vec::new(),
        }
    }

    /// Creates a disabled registry: every record call is one branch.
    pub fn disabled() -> Self {
        Metrics {
            enabled: false,
            counters: Counters::new(),
            hists: Vec::new(),
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            self.counters.add(name, n);
        }
    }

    /// Adds one to counter `name`.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Records a duration sample into histogram `name`.
    #[inline]
    pub fn observe(&mut self, name: &'static str, d: SimDuration) {
        if self.enabled {
            self.hist_mut(name).record(d);
        }
    }

    /// Records a dimensionless count (queue depth, hop count) into
    /// histogram `name`, using the histogram's power-of-two buckets.
    #[inline]
    pub fn observe_count(&mut self, name: &'static str, value: u64) {
        self.observe(name, SimDuration::from_nanos(value));
    }

    fn hist_mut(&mut self, name: &'static str) -> &mut LatencyHistogram {
        // Address comparison first: the same call site passes the same
        // literal, so the steady state never allocates or compares bytes.
        if let Some(i) = self.hists.iter().position(|e| std::ptr::eq(e.0, name)) {
            return &mut self.hists[i].1;
        }
        if let Some(i) = self.hists.iter().position(|e| e.0 == name) {
            return &mut self.hists[i].1;
        }
        self.hists.push((name, LatencyHistogram::new()));
        &mut self.hists.last_mut().expect("just pushed").1
    }

    /// The counter set.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.iter().find(|e| e.0 == name).map(|e| &e.1)
    }

    /// Iterates over all (name, histogram) pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> {
        let mut sorted: Vec<_> = self.hists.iter().map(|e| (e.0, &e.1)).collect();
        sorted.sort_unstable_by_key(|e| e.0);
        sorted.into_iter()
    }

    /// Nearest-rank tail quantiles (p50/p95/p99/p999/max) for histogram
    /// `name`, or `None` if it was never recorded.
    pub fn quantiles(&self, name: &str) -> Option<Quantiles> {
        self.histogram(name).map(Quantiles::of)
    }

    /// Merges a foreign histogram into histogram `name`, bucket-wise.
    /// Used to fold workload-local histograms (such as each KV serving
    /// shard's latencies) into the machine's registry at collection time.
    pub fn merge_histogram(&mut self, name: &'static str, h: &LatencyHistogram) {
        if self.enabled {
            self.hist_mut(name).merge(h);
        }
    }

    /// A deterministic JSON snapshot: name-sorted counters, plus per
    /// histogram the total and p50/p90/p95/p99/p999/max upper bounds in
    /// nanoseconds.
    pub fn snapshot_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {v}", crate::json_escape_str(k));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (k, h)) in self.histograms().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let q = Quantiles::of(h);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"total\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
                crate::json_escape_str(k),
                q.total,
                q.p50_ns,
                h.quantile_upper_bound(0.90).as_nanos(),
                q.p95_ns,
                q.p99_ns,
                q.p999_ns,
                q.max_ns,
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut m = Metrics::disabled();
        m.incr("x");
        m.observe("h", SimDuration::from_nanos(5));
        assert_eq!(m.counters().get("x"), 0);
        assert!(m.histogram("h").is_none());
        m.set_enabled(true);
        m.incr("x");
        assert_eq!(m.counters().get("x"), 1);
    }

    #[test]
    fn histograms_found_by_name_across_addresses() {
        let mut m = Metrics::new();
        m.observe_count("depth", 4);
        // The same name from a runtime string (different address) must hit
        // the same histogram via the content fallback.
        let name: &'static str = "depth";
        m.observe_count(name, 8);
        assert_eq!(m.histogram("depth").unwrap().total(), 2);
        assert_eq!(m.histograms().count(), 1);
    }

    #[test]
    fn quantiles_use_nearest_rank_over_buckets() {
        let mut m = Metrics::new();
        // 999 fast samples in [64,128) and one slow outlier in
        // [1048576,2097152): p50/p95/p99 sit in the fast bucket (nearest
        // rank ceil(q*1000) <= 999), while p999 (rank 999) is still fast
        // and max is the outlier's bucket edge.
        for _ in 0..999 {
            m.observe("req", SimDuration::from_nanos(100));
        }
        m.observe("req", SimDuration::from_nanos(1_500_000));
        let q = m.quantiles("req").expect("histogram exists");
        assert_eq!(q.total, 1000);
        assert_eq!(q.p50_ns, 127);
        assert_eq!(q.p95_ns, 127);
        assert_eq!(q.p99_ns, 127);
        assert_eq!(q.p999_ns, 127);
        assert_eq!(q.max_ns, 2_097_151);
        assert!(m.quantiles("never_recorded").is_none());
    }

    #[test]
    fn quantiles_p999_catches_the_tail() {
        let mut m = Metrics::new();
        // 998 fast + 2 slow: rank ceil(0.999*1000) = 999 lands on the
        // first slow sample, so p999 must report the slow bucket.
        for _ in 0..998 {
            m.observe("req", SimDuration::from_nanos(100));
        }
        m.observe("req", SimDuration::from_nanos(1_500_000));
        m.observe("req", SimDuration::from_nanos(1_500_000));
        let q = m.quantiles("req").expect("histogram exists");
        assert_eq!(q.p99_ns, 127);
        assert_eq!(q.p999_ns, 2_097_151);
        assert_eq!(q.max_ns, 2_097_151);
    }

    #[test]
    fn merge_histogram_folds_foreign_samples_in() {
        use flash_sim::LatencyHistogram;
        let mut local = LatencyHistogram::new();
        local.record(SimDuration::from_nanos(100));
        local.record(SimDuration::from_nanos(5_000));
        let mut m = Metrics::new();
        m.observe("req", SimDuration::from_nanos(100));
        m.merge_histogram("req", &local);
        assert_eq!(m.histogram("req").unwrap().total(), 3);
        // A disabled registry ignores merges like any other record call.
        let mut off = Metrics::disabled();
        off.merge_histogram("req", &local);
        assert!(off.histogram("req").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let mut m = Metrics::new();
        m.incr("zeta");
        m.incr("alpha");
        m.observe("lat", SimDuration::from_nanos(100));
        let a = m.snapshot_json();
        let b = m.snapshot_json();
        assert_eq!(a, b);
        let alpha = a.find("alpha").unwrap();
        let zeta = a.find("zeta").unwrap();
        assert!(alpha < zeta, "counters must be name-sorted: {a}");
        assert!(a.contains("\"total\": 1"), "{a}");
    }

    /// Cross-check pinning [`Quantiles::of`] to the one canonical
    /// nearest-rank implementation (`LatencyHistogram::quantile_upper_bound`
    /// in `flash-sim`): for random sample sets, every extracted field must
    /// equal an independent from-scratch nearest-rank-over-buckets
    /// computation. If either side ever grows its own variant of the bucket
    /// math, the KV SLO sheets and the sim-side stats drift apart — this
    /// test is the tripwire.
    #[test]
    fn quantiles_match_independent_nearest_rank_reference() {
        use flash_sim::DetRng;

        // From-scratch reference: bucket i covers [2^i, 2^(i+1)) ns with
        // bucket 0 covering [0,2); the q-quantile upper bound is the top
        // edge of the bucket holding the ceil(q*total)-th sample.
        fn reference(samples: &[u64], q: f64) -> u64 {
            if samples.is_empty() {
                return 0;
            }
            let mut buckets = [0u64; 64];
            for &ns in samples {
                let b = if ns < 2 {
                    0
                } else {
                    63 - ns.leading_zeros() as usize
                };
                buckets[b] += 1;
            }
            let target = ((samples.len() as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return if i >= 63 {
                        u64::MAX
                    } else {
                        (1u64 << (i + 1)) - 1
                    };
                }
            }
            unreachable!("total > 0 but no bucket reached the target rank")
        }

        let mut rng = DetRng::new(0x51ab);
        for case in 0..40u64 {
            let n = rng.below(300);
            let mut h = LatencyHistogram::new();
            let mut samples = Vec::new();
            for _ in 0..n {
                // Spread across the full bucket range, including 0 and the
                // saturating top bucket.
                let ns = match rng.below(4) {
                    0 => rng.below(4),
                    1 => rng.below(5_000),
                    2 => rng.below(10_000_000_000),
                    _ => u64::MAX - rng.below(1_000),
                };
                samples.push(ns);
                h.record(SimDuration::from_nanos(ns));
            }
            let got = Quantiles::of(&h);
            assert_eq!(got.total, n, "case {case}");
            for (field, q) in [
                (got.p50_ns, 0.50),
                (got.p95_ns, 0.95),
                (got.p99_ns, 0.99),
                (got.p999_ns, 0.999),
                (got.max_ns, 1.0),
            ] {
                assert_eq!(field, reference(&samples, q), "case {case} q={q}");
                // And the canonical implementation both sides share:
                assert_eq!(
                    field,
                    h.quantile_upper_bound(q).as_nanos(),
                    "case {case} q={q}: Quantiles::of drifted from the \
                     canonical quantile_upper_bound"
                );
            }
        }
    }
}
