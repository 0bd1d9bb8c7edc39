//! The MAGIC node controller: dispatch, handler occupancy, failure
//! detection and the recovery-mode plumbing.
//!
//! MAGIC contains a statically scheduled dual-issue protocol processor that
//! executes *handlers* to service messages. We model it as a single-server
//! queueing station: each message occupies the controller for a
//! handler-specific number of nanoseconds ([`crate::costs`]). The
//! fault-containment checks (node map, incoherent-line check, range check,
//! remap, NAK counters, timeouts) are dedicated logic and add **zero**
//! occupancy, matching the paper's design goal of unaffected normal-mode
//! performance; only the firewall adds a small per-handler cost.

use flash_coherence::LineAddr;
use flash_sim::{SimDuration, SimTime};

/// Controller-level parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MagicParams {
    /// Retries before a NAK counter overflows and triggers recovery.
    pub nak_threshold: u32,
    /// Memory-operation timeout: a request outstanding longer than this
    /// triggers recovery.
    pub mem_op_timeout_ns: u64,
    /// MAGIC-to-MAGIC heartbeat period: a fail-stop failure that no
    /// outstanding memory operation would ever reference is still noticed
    /// within one period by a peer controller's missed-heartbeat counter
    /// (the paper's ping-timeout detection path, Section 4.2). Longer than
    /// `mem_op_timeout_ns` so traffic-driven detection wins when traffic
    /// exists.
    pub heartbeat_timeout_ns: u64,
    /// Whether the firewall is enabled (Table 6.1 ablation).
    pub firewall_enabled: bool,
}

impl Default for MagicParams {
    fn default() -> Self {
        MagicParams {
            nak_threshold: 4096,
            mem_op_timeout_ns: 100_000,
            heartbeat_timeout_ns: 150_000,
            firewall_enabled: true,
        }
    }
}

/// The operating mode of a node controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MagicMode {
    /// Normal operation: full protocol processing.
    Normal,
    /// Interconnect-recovery drain mode: incoming coherence requests are
    /// fielded (consumed) but generate no replies or invalidations (paper,
    /// Section 4.4).
    RecoveryDrain,
    /// Coherence-recovery mode: flush writebacks are absorbed via the
    /// recovery path; normal dispatch is suspended.
    Recovery,
    /// The controller is dead (node failure).
    Dead,
    /// Firmware spin: the controller stops accepting packets entirely (the
    /// "infinite loop in MAGIC handler" fault of Table 5.2).
    InfiniteLoop,
}

/// Why MAGIC raised a bus error to its processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusError {
    /// The referenced line's home node is marked failed in the node map.
    DeadHome,
    /// The line is marked incoherent after a fault.
    Incoherent,
    /// The firewall denied an exclusive fetch.
    FirewallDenied,
    /// A write violated the node-controller range limit.
    RangeViolation,
    /// An uncached I/O access arrived from outside the local failure unit.
    ForeignUncachedIo,
    /// An uncached read outstanding across a recovery could not be resolved
    /// (neither its saved reply nor the device's failure unit survived).
    UncachedUnresolved,
}

impl BusError {
    /// Stable snake-case label, used by the observability layer.
    pub fn kind_str(&self) -> &'static str {
        match self {
            BusError::DeadHome => "dead_home",
            BusError::Incoherent => "incoherent",
            BusError::FirewallDenied => "firewall_denied",
            BusError::RangeViolation => "range_violation",
            BusError::ForeignUncachedIo => "foreign_uncached_io",
            BusError::UncachedUnresolved => "uncached_unresolved",
        }
    }
}

/// The events that trigger the hardware recovery algorithm (Table 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// A memory operation timed out.
    MemOpTimeout {
        /// The line whose request timed out.
        line: LineAddr,
    },
    /// A request was NAK'd more times than the hardware counter allows.
    NakOverflow {
        /// The spinning line.
        line: LineAddr,
    },
    /// A MAGIC firmware assertion failed.
    AssertionFailure,
    /// A truncated interconnect packet was received.
    TruncatedPacket,
    /// A recovery ping arrived from a neighboring node (propagating the
    /// trigger wave).
    PingReceived,
    /// Recovery was triggered externally without any fault (the
    /// "false alarm" experiment of Table 5.2).
    FalseAlarm,
    /// A peer controller missed its periodic heartbeat: the detection path
    /// for failures that no outstanding memory operation references
    /// (Section 4.2's ping timeout).
    HeartbeatTimeout,
}

impl Trigger {
    /// Stable snake-case label, used by the observability layer.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Trigger::MemOpTimeout { .. } => "mem_op_timeout",
            Trigger::NakOverflow { .. } => "nak_overflow",
            Trigger::AssertionFailure => "assertion_failure",
            Trigger::TruncatedPacket => "truncated_packet",
            Trigger::PingReceived => "ping_received",
            Trigger::FalseAlarm => "false_alarm",
            Trigger::HeartbeatTimeout => "heartbeat_timeout",
        }
    }
}

/// The hardware NAK counter in the processor interface: counts unsuccessful
/// retries of the current outstanding memory operation; overflow indicates
/// a coherence-protocol deadlock caused by a failure (paper, Section 4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NakCounter {
    count: u32,
}

impl NakCounter {
    /// Resets the counter (called when a new operation is issued or the
    /// current one completes).
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// Records one NAK'd retry; returns `true` on overflow.
    pub fn record_nak(&mut self, threshold: u32) -> bool {
        self.count += 1;
        self.count >= threshold
    }

    /// Current retry count.
    pub fn count(&self) -> u32 {
        self.count
    }
}

/// The single-server occupancy model of the protocol processor.
///
/// # Examples
///
/// ```
/// use flash_magic::Occupancy;
/// use flash_sim::{SimTime, SimDuration};
///
/// let mut occ = Occupancy::new();
/// let t0 = SimTime::from_nanos(100);
/// assert!(occ.idle_at(t0));
/// let done = occ.occupy(t0, SimDuration::from_nanos(120));
/// assert_eq!(done, SimTime::from_nanos(220));
/// assert!(!occ.idle_at(SimTime::from_nanos(150)));
/// assert!(occ.idle_at(done));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occupancy {
    busy_until: SimTime,
    busy_ns: u64,
    services: u64,
    // Fail-slow (gray failure) service-time inflation: 0 or 1 = nominal
    // speed, k > 1 multiplies every handler cost by k.
    slow_factor: u32,
}

impl Occupancy {
    /// Creates an idle controller.
    pub fn new() -> Self {
        Occupancy::default()
    }

    /// Whether the controller is idle at `now`.
    pub fn idle_at(&self, now: SimTime) -> bool {
        now >= self.busy_until
    }

    /// Occupies the controller for `cost` starting at `max(now, busy_until)`
    /// and returns the completion time. Under a fail-slow fault
    /// ([`Occupancy::set_slowdown`]) the charged cost is inflated by the
    /// slowdown factor.
    pub fn occupy(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let cost = if self.slow_factor > 1 {
            SimDuration::from_nanos(cost.as_nanos() * u64::from(self.slow_factor))
        } else {
            cost
        };
        let start = if now > self.busy_until {
            now
        } else {
            self.busy_until
        };
        self.busy_until = start + cost;
        self.busy_ns += cost.as_nanos();
        self.services += 1;
        self.busy_until
    }

    /// The time the controller becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total nanoseconds of occupancy charged so far (the utilization
    /// numerator reported by the observability layer).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Number of handler services charged so far.
    pub fn services(&self) -> u64 {
        self.services
    }

    /// Arms (or, with `factor <= 1`, clears) the fail-slow service-time
    /// inflation: every subsequent handler cost is multiplied by `factor`.
    pub fn set_slowdown(&mut self, factor: u32) {
        self.slow_factor = factor;
    }

    /// The effective service-time multiplier (1 = nominal speed).
    pub fn slowdown(&self) -> u32 {
        self.slow_factor.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nak_counter_overflows_at_threshold() {
        let mut c = NakCounter::default();
        for _ in 0..9 {
            assert!(!c.record_nak(10));
        }
        assert!(c.record_nak(10));
        assert_eq!(c.count(), 10);
        c.reset();
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn occupancy_serializes_handlers() {
        let mut occ = Occupancy::new();
        let d1 = occ.occupy(SimTime::from_nanos(0), SimDuration::from_nanos(120));
        let d2 = occ.occupy(SimTime::from_nanos(50), SimDuration::from_nanos(100));
        assert_eq!(d1, SimTime::from_nanos(120));
        assert_eq!(
            d2,
            SimTime::from_nanos(220),
            "second handler queues behind first"
        );
        // After going idle, the next handler starts at its arrival time.
        let d3 = occ.occupy(SimTime::from_nanos(500), SimDuration::from_nanos(10));
        assert_eq!(d3, SimTime::from_nanos(510));
        // Accumulated occupancy counts busy time, not idle gaps.
        assert_eq!(occ.busy_ns(), 230);
        assert_eq!(occ.services(), 3);
    }

    #[test]
    fn fail_slow_inflates_every_service() {
        let mut occ = Occupancy::new();
        assert_eq!(occ.slowdown(), 1);
        occ.occupy(SimTime::from_nanos(0), SimDuration::from_nanos(100));
        occ.set_slowdown(4);
        assert_eq!(occ.slowdown(), 4);
        let done = occ.occupy(SimTime::from_nanos(1_000), SimDuration::from_nanos(100));
        assert_eq!(done, SimTime::from_nanos(1_400), "cost multiplied by 4");
        assert_eq!(occ.busy_ns(), 100 + 400);
        // Clearing restores nominal speed.
        occ.set_slowdown(0);
        let done = occ.occupy(SimTime::from_nanos(2_000), SimDuration::from_nanos(100));
        assert_eq!(done, SimTime::from_nanos(2_100));
    }

    #[test]
    fn params_defaults() {
        let p = MagicParams::default();
        assert!(p.firewall_enabled);
        assert!(p.nak_threshold >= 1024);
        assert!(p.mem_op_timeout_ns >= 10_000);
    }
}
