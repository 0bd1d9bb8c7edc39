//! The sharded recorder: one ring-buffer shard per [`Domain`], a global
//! sequence counter stamped on every record, and a per-domain enable mask
//! so hot domains cost one branch when off.

use crate::event::{Domain, TraceEvent};
use crate::metrics::Metrics;
use flash_sim::{SimTime, TraceBuffer};

/// A fully ordered record from the merged trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedEvent {
    /// Global sequence number (total order across all shards).
    pub seq: u64,
    /// Simulated time of the record.
    pub at: SimTime,
    /// Originating domain.
    pub domain: Domain,
    /// The event.
    pub event: TraceEvent,
}

/// The sharded trace recorder plus its histograms.
///
/// Recording is deterministic: events carry a global sequence number
/// assigned in dispatch order, so [`Recorder::merged`] yields one total
/// order whatever the shard layout — and, because simulation dispatch
/// order is itself deterministic, the merged trace is bit-identical
/// across campaign worker counts.
///
/// The default configuration mirrors the old sparse machine trace: the
/// low-rate domains ([`Domain::Machine`], [`Domain::Recovery`],
/// [`Domain::Hive`], [`Domain::Campaign`]) record, the high-rate domains
/// ([`Domain::Net`], [`Domain::Coherence`], [`Domain::Magic`],
/// [`Domain::Sim`]) are off. A disabled domain costs one load + branch per
/// record call.
///
/// # Examples
///
/// ```
/// use flash_obs::{Domain, Recorder, TraceEvent};
/// use flash_sim::SimTime;
///
/// let mut rec = Recorder::new();
/// rec.record(
///     Domain::Machine,
///     SimTime::from_nanos(10),
///     TraceEvent::FaultInjected { kind: "node", node: 3 },
/// );
/// assert_eq!(rec.len(), 1);
/// assert!(rec.render().contains("fault_injected kind=node node=3"));
/// ```
#[derive(Clone, Debug)]
pub struct Recorder {
    shards: [TraceBuffer<(u64, TraceEvent)>; Domain::COUNT],
    next_seq: u64,
    mask: u8,
    /// The histograms riding along with the trace.
    pub metrics: Metrics,
}

/// Default per-shard ring capacity.
pub const DEFAULT_SHARD_CAPACITY: usize = 512;

/// The default domain-enable mask: sparse domains on, hot domains off.
fn default_mask() -> u8 {
    Domain::Machine.bit() | Domain::Recovery.bit() | Domain::Hive.bit() | Domain::Campaign.bit()
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a recorder with the default mask, default shard capacity
    /// and metrics enabled.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// Creates a recorder with the default mask and the given per-shard
    /// ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            shards: std::array::from_fn(|_| TraceBuffer::new(capacity)),
            next_seq: 0,
            mask: default_mask(),
            metrics: Metrics::new(),
        }
    }

    /// Creates a fully disabled recorder: every record call is one load +
    /// branch, metrics off. Its shards hold one record each, should a
    /// domain be enabled later.
    pub fn disabled() -> Self {
        Recorder {
            shards: std::array::from_fn(|_| TraceBuffer::new(1)),
            next_seq: 0,
            mask: 0,
            metrics: Metrics::disabled(),
        }
    }

    /// Enables every domain (and metrics) — used by trace-dump tooling.
    pub fn enable_all(&mut self) {
        self.mask = 0xff;
        self.metrics.set_enabled(true);
    }

    /// Enables or disables one domain.
    pub fn set_domain_enabled(&mut self, domain: Domain, enabled: bool) {
        if enabled {
            self.mask |= domain.bit();
        } else {
            self.mask &= !domain.bit();
        }
    }

    /// Whether any domain records.
    pub fn any_enabled(&self) -> bool {
        self.mask != 0
    }

    /// Records one event into the domain's shard, stamping the global
    /// sequence number. Disabled domains return after one branch.
    #[inline]
    pub fn record(&mut self, domain: Domain, at: SimTime, event: TraceEvent) {
        if self.mask & domain.bit() == 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[domain.index()].record(at, (seq, event));
    }

    /// Direct access to one domain's shard.
    pub fn shard(&self, domain: Domain) -> &TraceBuffer<(u64, TraceEvent)> {
        &self.shards[domain.index()]
    }

    /// Total retained records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records evicted across all shards (ring overflow).
    pub fn dropped_total(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }

    /// Global sequence numbers issued so far (recorded + evicted).
    pub fn seq_issued(&self) -> u64 {
        self.next_seq
    }

    /// Clears all shards (capacity, enablement and the sequence counter
    /// are preserved — a cleared recorder keeps its total order).
    pub fn clear(&mut self) {
        for s in &mut self.shards {
            s.clear();
        }
    }

    /// The merged trace: all retained records across shards, in global
    /// sequence order (a total order).
    pub fn merged(&self) -> Vec<MergedEvent> {
        let mut all: Vec<MergedEvent> = Vec::with_capacity(self.len());
        for d in Domain::ALL {
            for &(at, (seq, event)) in self.shards[d.index()].iter() {
                all.push(MergedEvent {
                    seq,
                    at,
                    domain: d,
                    event,
                });
            }
        }
        all.sort_unstable_by_key(|e| e.seq);
        all
    }

    /// The last `n` records of the merged trace (the flight-recorder
    /// tail).
    pub fn tail(&self, n: usize) -> Vec<MergedEvent> {
        let mut all = self.merged();
        let start = all.len().saturating_sub(n);
        all.drain(..start);
        all
    }

    /// Renders the merged trace, one record per line, for failure
    /// reports. Byte-identical for identical recordings.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let dropped = self.dropped_total();
        if dropped > 0 {
            let _ = writeln!(out, "... {dropped} earlier records dropped ...");
        }
        for e in self.merged() {
            let _ = writeln!(
                out,
                "[{}] #{} {}: {}",
                e.at,
                e.seq,
                e.domain.label(),
                e.event
            );
        }
        out
    }

    /// FNV-1a hash of the rendered merged trace. Two recorders hash equal
    /// iff their merged traces are byte-identical, so campaign runs can
    /// assert cross-worker-count determinism cheaply.
    pub fn merged_hash(&self) -> u64 {
        fnv1a(self.render().as_bytes())
    }
}

/// FNV-1a, 64-bit: a stable, dependency-free content hash (unlike
/// `DefaultHasher`, its algorithm is pinned).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::DetRng;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Note {
            what: "n",
            value: i,
        }
    }

    #[test]
    fn default_mask_traces_sparse_domains_only() {
        let mut r = Recorder::new();
        r.record(Domain::Net, SimTime::ZERO, ev(1));
        r.record(Domain::Magic, SimTime::ZERO, ev(2));
        assert!(r.is_empty(), "hot domains are off by default");
        r.record(Domain::Machine, SimTime::ZERO, ev(3));
        r.record(Domain::Recovery, SimTime::ZERO, ev(4));
        assert_eq!(r.len(), 2);
        // Sequence numbers are only issued for recorded events, so
        // disabled domains cannot perturb the merged order.
        assert_eq!(r.seq_issued(), 2);
    }

    #[test]
    fn merged_is_in_global_sequence_order() {
        let mut r = Recorder::new();
        r.enable_all();
        r.record(Domain::Net, SimTime::from_nanos(5), ev(0));
        r.record(Domain::Machine, SimTime::from_nanos(5), ev(1));
        r.record(Domain::Net, SimTime::from_nanos(6), ev(2));
        let merged = r.merged();
        let seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(merged[1].domain, Domain::Machine);
        assert_eq!(r.tail(2).len(), 2);
        assert_eq!(r.tail(2)[0].seq, 1);
        assert_eq!(r.tail(100).len(), 3);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = Recorder::disabled();
        for d in Domain::ALL {
            r.record(d, SimTime::ZERO, ev(9));
        }
        assert!(r.is_empty());
        assert!(!r.any_enabled());
        assert_eq!(r.seq_issued(), 0);
        assert_eq!(r.render(), "");
        assert!(!r.metrics.is_enabled());
    }

    #[test]
    fn render_hash_detects_any_difference() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        for i in 0..10 {
            a.record(Domain::Machine, SimTime::from_nanos(i), ev(i));
            b.record(Domain::Machine, SimTime::from_nanos(i), ev(i));
        }
        assert_eq!(a.merged_hash(), b.merged_hash());
        b.record(Domain::Recovery, SimTime::from_nanos(10), ev(10));
        assert_ne!(a.merged_hash(), b.merged_hash());
    }

    /// Property: for random interleavings, each shard keeps exactly the
    /// newest `capacity` of its records and accounts for the rest in
    /// `dropped`, and the merged trace stays sequence-sorted.
    #[test]
    fn ring_eviction_property() {
        let mut rng = DetRng::new(0xdecade);
        for case in 0..50u64 {
            let cap = 1 + rng.below(16) as usize;
            let mut r = Recorder::with_capacity(cap);
            r.enable_all();
            let n = rng.below(200);
            let mut per_domain = [0u64; Domain::COUNT];
            for i in 0..n {
                let d = Domain::ALL[rng.below(Domain::COUNT as u64) as usize];
                per_domain[d.index()] += 1;
                r.record(d, SimTime::from_nanos(i), ev(i));
            }
            let mut expect_dropped = 0;
            for d in Domain::ALL {
                let recorded = per_domain[d.index()];
                let retained = recorded.min(cap as u64);
                assert_eq!(
                    r.shard(d).len() as u64,
                    retained,
                    "case {case}: domain {d:?} cap {cap}"
                );
                expect_dropped += recorded - retained;
            }
            assert_eq!(r.dropped_total(), expect_dropped, "case {case}");
            assert_eq!(r.seq_issued(), n);
            let merged = r.merged();
            assert!(merged.windows(2).all(|w| w[0].seq < w[1].seq));
        }
    }
}
