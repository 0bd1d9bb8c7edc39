//! The metrics registry: typed event counters ([`Counter`], [`Counters`])
//! and typed latency histograms ([`Hist`], [`Metrics`]). Every key is an
//! enum variant indexing a fixed array, so a write is one add and a
//! misspelt write does not compile; [`Counters::get`], the one read by
//! name, panics on a name no [`Counter`] declares.

use flash_sim::{LatencyHistogram, SimDuration};
use std::fmt;

/// Declares a key enum whose variants are listed in name order, with
/// `ALL`, `COUNT` and `name()`.
macro_rules! keys {
    ($(#[$meta:meta])* $ty:ident { $($(#[$doc:meta])* $var:ident = $name:literal,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$doc])* $var,)*
        }

        impl $ty {
            /// Every variant, in name order.
            pub const ALL: &'static [$ty] = &[$($ty::$var,)*];
            /// Number of variants.
            pub const COUNT: usize = Self::ALL.len();

            /// The snake_case name reports print (and, for a [`Counter`],
            /// the one [`Counters::get`] reads).
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$var => $name,)*
                }
            }
        }
    };
}

keys! {
    /// An event counter. The machine, the fabric and each directory keep a
    /// [`Counters`] of their own; the paper's containment hardware is judged
    /// by these counts (NAK overflows, firewall and I/O-guard denials, bus
    /// errors, packets lost on dead links).
    Counter {
        /// Operations that ended in a bus error (machine).
        BusErrors = "bus_errors",
        /// Requests that hit a degraded node's slow lines (machine).
        DegradedAccesses = "degraded_accesses",
        /// Spurious NAKs a degraded node sent (machine).
        DegradedNaks = "degraded_naks",
        /// Drain-agreement rounds restarted by moving traffic (machine).
        DrainAgreementRestarts = "drain_agreement_restarts",
        /// Coherence requests fielded without reply during recovery (machine).
        DrainedRequests = "drained_requests",
        /// Packets dropped: a source route named a non-neighbour (fabric).
        DropBadSourceRoute = "drop_bad_source_route",
        /// Packets dropped into a failed link (fabric).
        DropBlackholeLink = "drop_blackhole_link",
        /// Packets delivered to a dead node and discarded (fabric).
        DropDeadNode = "drop_dead_node",
        /// Packets sent toward a failed router (fabric).
        DropDeadRouter = "drop_dead_router",
        /// Packets lost from a failed router's buffers (fabric).
        DropDeadRouterBuffer = "drop_dead_router_buffer",
        /// Packets sunk by a programmed routing discard (fabric).
        DropDiscard = "drop_discard",
        /// Packets lost on a lossy link (fabric).
        DropLossyLink = "drop_lossy_link",
        /// Packets the routing tables sent nowhere valid (fabric).
        DropMisroute = "drop_misroute",
        /// Source-routed packets discarded after stalling (fabric).
        DropStallDiscard = "drop_stall_discard",
        /// Packets with no route to their destination (fabric).
        DropUnreachable = "drop_unreachable",
        /// Faults injected (machine).
        FaultsInjected = "faults_injected",
        /// Exclusive requests the firewall refused (machine).
        FirewallDenials = "firewall_denials",
        /// Recovery triggers raised by the heartbeat audit (machine).
        HeartbeatTriggers = "heartbeat_triggers",
        /// Triggers an extension without recovery ignored (machine).
        IgnoredTriggers = "ignored_triggers",
        /// Accesses to lines marked incoherent (directory).
        IncoherentAccesses = "incoherent_accesses",
        /// Sends refused by a full injection queue (fabric).
        InjectFull = "inject_full",
        /// Uncached accesses the I/O guard refused (machine).
        IoGuardDenials = "io_guard_denials",
        /// Uncached replies kept for a read that already timed out (machine).
        LateUncachedRepliesSaved = "late_uncached_replies_saved",
        /// Lines recovery marked incoherent (machine).
        LinesMarkedIncoherent = "lines_marked_incoherent",
        /// Router-to-router link crossings of finished packets (fabric).
        LinksCrossed = "links_crossed",
        /// Coherence messages that reached the wrong home (machine).
        MisroutedCoh = "misrouted_coh",
        /// NAK counters that overflowed their threshold (machine).
        NakOverflows = "nak_overflows",
        /// NAKs a home sent to a busy or locked line's requester (directory).
        NaksSent = "naks_sent",
        /// Enqueues behind a queue head whose event chain was in flight (fabric).
        NetTrymoveCoalesced = "net_trymove_coalesced",
        /// Enqueues into an idle queue that scheduled a move (fabric).
        NetTrymoveKicks = "net_trymove_kicks",
        /// Accesses the node map refused (machine).
        NodeMapBusErrors = "node_map_bus_errors",
        /// Packets delivered to a node (fabric).
        PacketsDelivered = "packets_delivered",
        /// Packets dropped, for any reason (fabric).
        PacketsDropped = "packets_dropped",
        /// Packets injected (fabric).
        PacketsSent = "packets_sent",
        /// Packets cut to their header by a link failing under them (fabric).
        PacketsTruncated = "packets_truncated",
        /// Recovery messages with no route to send them by (machine).
        RecoveryMsgUnroutable = "recovery_msg_unroutable",
        /// Recovery writebacks to lines already incoherent (directory).
        RecoveryPutToIncoherent = "recovery_put_to_incoherent",
        /// Writebacks absorbed while the home was recovering (machine).
        RecoveryPutsAbsorbed = "recovery_puts_absorbed",
        /// Recovery restarts on evidence of a new fault (machine).
        RecoveryRestartsTrigger = "recovery_restarts_trigger",
        /// Recovery episodes begun by any node (machine).
        RecoveryStarts = "recovery_starts",
        /// Triggers that started recovery (machine).
        RecoveryTriggers = "recovery_triggers",
        /// Recovery restarts by the no-progress watchdog (machine).
        RecoveryWatchdogRestarts = "recovery_watchdog_restarts",
        /// Exclusive grants that reached a speculative store (machine).
        SpeculativeExclusiveGrants = "speculative_exclusive_grants",
        /// Wrong-path faults the processor discarded (machine).
        SpeculativeFaultsDiscarded = "speculative_faults_discarded",
        /// Data replies for a request no longer outstanding (machine).
        StaleDataReplies = "stale_data_replies",
        /// Error replies for a request no longer outstanding (machine).
        StaleErrorReplies = "stale_error_replies",
        /// NAKs for a request no longer outstanding (machine).
        StaleNaks = "stale_naks",
        /// Uncached replies nobody waited for (machine).
        StaleUncachedReplies = "stale_uncached_replies",
        /// Upgrade acks for a cancelled upgrade (machine).
        StaleUpgradeAcks = "stale_upgrade_acks",
        /// Memory-operation timeouts that raised a trigger (machine).
        TimeoutTriggers = "timeout_triggers",
        /// Truncated packets a node controller dispatched (machine).
        TruncatedDispatches = "truncated_dispatches",
        /// Invalidation acks the directory did not expect (directory).
        UnexpectedInvalAcks = "unexpected_inval_acks",
        /// Stale or duplicate writebacks (directory).
        UnexpectedPuts = "unexpected_puts",
        /// Upgrade acks that found no shared copy to upgrade (machine).
        UpgradeAckWithoutCopy = "upgrade_ack_without_copy",
        /// Upgrades the home served as a full exclusive fetch (directory).
        UpgradeFallbacks = "upgrade_fallbacks",
        /// Upgrade requests issued (machine).
        UpgradeRequests = "upgrade_requests",
        /// Wild writes the firewall stopped (machine).
        WildWritesBlocked = "wild_writes_blocked",
        /// Wild writes that corrupted memory (machine).
        WildWritesLanded = "wild_writes_landed",
    }
}

keys! {
    /// A latency or size histogram of [`Metrics`].
    Hist {
        /// KV requests that failed.
        KvRequestErrorNs = "kv_request_error_ns",
        /// KV requests that succeeded.
        KvRequestNs = "kv_request_ns",
        /// Successful KV requests to shards no fault touched.
        KvRequestUnaffectedNs = "kv_request_unaffected_ns",
        /// MAGIC handler occupancy per dispatch.
        MagicHandlerNs = "magic_handler_ns",
        /// Link crossings per delivered packet.
        NetPacketHops = "net_packet_hops",
    }
}

/// One value per [`Counter`]. Writes are always on: the counts are part of
/// what a run reports, not optional tracing.
///
/// # Examples
///
/// ```
/// use flash_obs::{Counter, Counters};
///
/// let mut c = Counters::new();
/// c.add(Counter::PacketsSent, 3);
/// c.incr(Counter::PacketsSent);
/// assert_eq!(c.get("packets_sent"), 4);
/// assert_eq!(c.get("packets_dropped"), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters([u64; Counter::COUNT]);

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

impl Counters {
    /// All counters at zero.
    pub fn new() -> Self {
        Counters([0; Counter::COUNT])
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.0[c as usize] += n;
    }

    /// Adds one to counter `c`.
    #[inline]
    pub fn incr(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Reads the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no [`Counter`] has that name, so a misspelt read fails
    /// loudly instead of reading zero.
    pub fn get(&self, name: &str) -> u64 {
        match Counter::ALL.binary_search_by(|c| c.name().cmp(name)) {
            Ok(i) => self.0[i],
            Err(_) => panic!("no counter named {name:?}"),
        }
    }

    /// Adds every counter of `other` into this set.
    pub fn merge(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// The non-zero counters, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .iter()
            .zip(self.0)
            .filter(|&(_, v)| v != 0)
            .map(|(&c, v)| (c, v))
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (c, v) in self.iter() {
            writeln!(f, "{}: {v}", c.name())?;
        }
        Ok(())
    }
}

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

/// Histograms recorded alongside the trace, one per [`Hist`]; a single
/// branch when disabled.
///
/// # Examples
///
/// ```
/// use flash_obs::{Hist, Metrics};
/// use flash_sim::SimDuration;
///
/// let mut m = Metrics::new();
/// m.observe(Hist::MagicHandlerNs, SimDuration::from_nanos(140));
/// assert_eq!(m.histogram(Hist::MagicHandlerNs).total(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    enabled: bool,
    hists: [LatencyHistogram; Hist::COUNT],
}

impl Metrics {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        Metrics {
            enabled: true,
            ..Metrics::default()
        }
    }

    /// Creates a disabled registry: every record call is one branch.
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a duration sample into histogram `h`.
    #[inline]
    pub fn observe(&mut self, h: Hist, d: SimDuration) {
        if self.enabled {
            self.hists[h as usize].record(d);
        }
    }

    /// Records a dimensionless count (queue depth, hop count) into
    /// histogram `h`, using the histogram's power-of-two buckets.
    #[inline]
    pub fn observe_count(&mut self, h: Hist, value: u64) {
        self.observe(h, SimDuration::from_nanos(value));
    }

    /// Merges a foreign histogram into histogram `h`, bucket-wise. Used to
    /// fold workload-local histograms (such as each KV serving shard's
    /// latencies) into the machine's registry at collection time.
    pub fn merge_histogram(&mut self, h: Hist, other: &LatencyHistogram) {
        if self.enabled {
            self.hists[h as usize].merge(other);
        }
    }

    /// Histogram `h`.
    pub fn histogram(&self, h: Hist) -> &LatencyHistogram {
        &self.hists[h as usize]
    }

    /// A deterministic JSON snapshot: the non-zero `counters` in name
    /// order, plus per non-empty histogram the total and
    /// p50/p90/p95/p99/p999/max upper bounds in nanoseconds.
    pub fn snapshot_json(&self, counters: &Counters) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\": {");
        for (i, (c, v)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {v}", c.name());
        }
        out.push_str("}, \"histograms\": {");
        let recorded = Hist::ALL
            .iter()
            .zip(&self.hists)
            .filter(|e| e.1.total() > 0);
        for (i, (k, h)) in recorded.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let q = Quantiles::of(h);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"total\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
                k.name(),
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
    fn key_names_are_unique_nonempty_and_ascending() {
        let counters: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let hists: Vec<_> = Hist::ALL.iter().map(|h| h.name()).collect();
        for names in [counters, hists] {
            assert!(names.iter().all(|n| !n.is_empty()));
            // Strictly ascending implies unique, and lets `Counters::get`
            // binary-search and snapshots print in name order unsorted.
            assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{h:?}");
        }
    }

    #[test]
    fn counters_get_round_trips_every_name() {
        let mut c = Counters::new();
        for (i, &k) in Counter::ALL.iter().enumerate() {
            c.add(k, i as u64 + 1);
        }
        for (i, &k) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.get(k.name()), i as u64 + 1, "{k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "no counter named \"packet_sent\"")]
    fn counters_get_panics_on_an_undeclared_name() {
        Counters::new().get("packet_sent");
    }

    #[test]
    fn counters_merge_adds_and_iter_skips_zeros() {
        let mut a = Counters::new();
        a.incr(Counter::BusErrors);
        let mut b = Counters::new();
        b.add(Counter::BusErrors, 2);
        b.incr(Counter::NaksSent);
        a.merge(&b);
        let got: Vec<_> = a.iter().collect();
        assert_eq!(got, [(Counter::BusErrors, 3), (Counter::NaksSent, 1)]);
        assert_eq!(a.to_string(), "bus_errors: 3\nnaks_sent: 1\n");
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut m = Metrics::disabled();
        m.observe(Hist::MagicHandlerNs, SimDuration::from_nanos(5));
        assert_eq!(m.histogram(Hist::MagicHandlerNs).total(), 0);
        m.set_enabled(true);
        m.observe(Hist::MagicHandlerNs, SimDuration::from_nanos(5));
        assert_eq!(m.histogram(Hist::MagicHandlerNs).total(), 1);
    }

    #[test]
    fn quantiles_use_nearest_rank_over_buckets() {
        let mut m = Metrics::new();
        // 999 fast samples in [64,128) and one slow outlier in
        // [1048576,2097152): p50/p95/p99 sit in the fast bucket (nearest
        // rank ceil(q*1000) <= 999), while p999 (rank 999) is still fast
        // and max is the outlier's bucket edge.
        for _ in 0..999 {
            m.observe(Hist::KvRequestNs, SimDuration::from_nanos(100));
        }
        m.observe(Hist::KvRequestNs, SimDuration::from_nanos(1_500_000));
        let q = Quantiles::of(m.histogram(Hist::KvRequestNs));
        assert_eq!(q.total, 1000);
        assert_eq!(q.p50_ns, 127);
        assert_eq!(q.p95_ns, 127);
        assert_eq!(q.p99_ns, 127);
        assert_eq!(q.p999_ns, 127);
        assert_eq!(q.max_ns, 2_097_151);
        let never = Quantiles::of(m.histogram(Hist::KvRequestErrorNs));
        assert_eq!(never, Quantiles::default());
    }

    #[test]
    fn quantiles_p999_catches_the_tail() {
        let mut m = Metrics::new();
        // 998 fast + 2 slow: rank ceil(0.999*1000) = 999 lands on the
        // first slow sample, so p999 must report the slow bucket.
        for _ in 0..998 {
            m.observe(Hist::KvRequestNs, SimDuration::from_nanos(100));
        }
        m.observe(Hist::KvRequestNs, SimDuration::from_nanos(1_500_000));
        m.observe(Hist::KvRequestNs, SimDuration::from_nanos(1_500_000));
        let q = Quantiles::of(m.histogram(Hist::KvRequestNs));
        assert_eq!(q.p99_ns, 127);
        assert_eq!(q.p999_ns, 2_097_151);
        assert_eq!(q.max_ns, 2_097_151);
    }

    #[test]
    fn merge_histogram_folds_foreign_samples_in() {
        let mut local = LatencyHistogram::new();
        local.record(SimDuration::from_nanos(100));
        local.record(SimDuration::from_nanos(5_000));
        let mut m = Metrics::new();
        m.observe(Hist::KvRequestNs, SimDuration::from_nanos(100));
        m.merge_histogram(Hist::KvRequestNs, &local);
        assert_eq!(m.histogram(Hist::KvRequestNs).total(), 3);
        // A disabled registry ignores merges like any other record call.
        let mut off = Metrics::disabled();
        off.merge_histogram(Hist::KvRequestNs, &local);
        assert_eq!(off.histogram(Hist::KvRequestNs).total(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let mut c = Counters::new();
        c.incr(Counter::WildWritesLanded);
        c.incr(Counter::BusErrors);
        let mut m = Metrics::new();
        m.observe(Hist::NetPacketHops, SimDuration::from_nanos(100));
        let a = m.snapshot_json(&c);
        assert_eq!(a, m.snapshot_json(&c));
        let first = a.find("bus_errors").unwrap();
        let last = a.find("wild_writes_landed").unwrap();
        assert!(first < last, "counters must be name-sorted: {a}");
        assert!(a.contains("\"net_packet_hops\": {\"total\": 1"), "{a}");
        assert!(!a.contains("naks_sent") && !a.contains("kv_request"), "{a}");
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
