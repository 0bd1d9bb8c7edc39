//! Recovery-algorithm configuration and result reporting.

use flash_sim::{SimDuration, SimTime};

/// Cost and timing parameters of the distributed recovery algorithm.
///
/// During recovery the R10000 processors execute from uncached space at
/// roughly 2.5 MIPS (400 ns per instruction — the paper's calibrated value,
/// Sections 4.1 and 5.3); all compute costs below are expressed in *uncached
/// instructions* and converted through `uncached_instr_ns`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Nanoseconds per uncached instruction (~2.5 MIPS).
    pub uncached_instr_ns: u64,
    /// Instructions to force the processor into the recovery code (the
    /// Cache Error path of Section 4.2).
    pub drop_in_instr: u64,
    /// Time to wait for a ping reply before retrying / declaring the target
    /// node failed.
    pub ping_timeout: SimDuration,
    /// Ping retries before a node is declared failed.
    pub ping_retries: u32,
    /// Whether nodes speculatively ping their immediate neighbors before
    /// starting cwn exploration (the ~5x trigger-wave speedup of §4.2).
    pub speculative_pings: bool,
    /// Fixed instructions per dissemination-round message processed.
    pub merge_base_instr: u64,
    /// Additional instructions per machine node per merged state vector.
    pub merge_per_node_instr: u64,
    /// Instructions per machine node for one BFT-height computation.
    pub bft_per_node_instr: u64,
    /// Whether stabilized nodes send their round bound as a *hint* so that
    /// other nodes can skip their own BFT computation (§4.3's scheduling
    /// optimization).
    pub bft_hints: bool,
    /// Instructions for the isolation step (reprogramming the local router's
    /// discard entries).
    pub isolate_instr: u64,
    /// The drain bound τ: a node votes to proceed after seeing no stalled
    /// coherence delivery for this long (§4.4).
    pub drain_tau: SimDuration,
    /// Polling interval of the drain check.
    pub drain_poll: SimDuration,
    /// Instructions per machine node to compute the new routing tables.
    pub route_per_node_instr: u64,
    /// Nanoseconds per cache line of the flush walk (uncached flush loop;
    /// calibrated to Figure 5.6: ~1.2 us/line).
    pub flush_per_line_ns: u64,
    /// Watchdog: a recovery phase making no progress for this long is
    /// treated as an additional failure and restarts the algorithm.
    pub watchdog: SimDuration,
    /// Heuristic machine-shutdown threshold: if more than this fraction of
    /// nodes is failed, recovery halts the whole machine instead of risking
    /// split-brain operation (§4.2). `1.0` disables the heuristic.
    pub shutdown_fraction: f64,
    /// Use the tighter double-sweep/center diameter bound (in the spirit of
    /// the paper's citation \[1\], Aingworth et al.) instead of the plain
    /// `2h` bound for dissemination termination. Costs three BFS
    /// computations instead of one but can nearly halve the round count on
    /// meshes whose deterministic root sits in a corner.
    pub center_diameter_bound: bool,
    /// The Section 6.3 variant: the interconnect provides HAL-style
    /// hardware end-to-end reliability, so coherence packets crossing a
    /// failed region are retransmitted rather than lost. The cache-flush
    /// step of P4 is then eliminated and the directories are *pruned*
    /// (failed sharers/owners removed, surviving cached state kept)
    /// instead of reset. Sound for node/controller failures; link-loss
    /// retransmission hardware itself is not modeled.
    pub reliable_interconnect: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            uncached_instr_ns: 400,
            drop_in_instr: 1_250, // ~0.5 ms
            ping_timeout: SimDuration::from_micros(1_500),
            ping_retries: 2,
            speculative_pings: true,
            merge_base_instr: 200,
            merge_per_node_instr: 13,
            bft_per_node_instr: 40,
            bft_hints: true,
            isolate_instr: 500,
            drain_tau: SimDuration::from_micros(2),
            drain_poll: SimDuration::from_micros(5),
            route_per_node_instr: 60,
            flush_per_line_ns: 1_200,
            watchdog: SimDuration::from_millis(400),
            shutdown_fraction: 0.5,
            center_diameter_bound: false,
            reliable_interconnect: false,
        }
    }
}

impl RecoveryConfig {
    /// Converts an instruction count to simulated time.
    pub fn instr(&self, count: u64) -> SimDuration {
        SimDuration::from_nanos(count.saturating_mul(self.uncached_instr_ns))
    }
}

/// Completion times of the recovery phases, machine-wide (last node to
/// finish each phase), matching the series of Figure 5.5.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// First hardware trigger.
    pub triggered_at: Option<SimTime>,
    /// Recovery initiation (P1) complete on all nodes.
    pub p1_done: Option<SimTime>,
    /// Information dissemination (P2) complete.
    pub p2_done: Option<SimTime>,
    /// Interconnect recovery (P3) complete.
    pub p3_done: Option<SimTime>,
    /// Coherence-protocol recovery (P4) complete; normal operation resumed.
    pub p4_done: Option<SimTime>,
}

impl PhaseTimes {
    fn span(&self, end: Option<SimTime>) -> Option<SimDuration> {
        Some(end?.since(self.triggered_at?))
    }

    /// Duration of P1 from the first trigger.
    pub fn p1(&self) -> Option<SimDuration> {
        self.span(self.p1_done)
    }

    /// Duration of P1+P2.
    pub fn p1_2(&self) -> Option<SimDuration> {
        self.span(self.p2_done)
    }

    /// Duration of P1+P2+P3.
    pub fn p1_3(&self) -> Option<SimDuration> {
        self.span(self.p3_done)
    }

    /// Total hardware recovery time.
    pub fn total(&self) -> Option<SimDuration> {
        self.span(self.p4_done)
    }
}

/// Machine-wide *first-entry* times of the recovery phases for the current
/// incarnation. Unlike [`PhaseTimes`], which records when the *last* node
/// finished each phase, these record when the *first* node entered it —
/// the moment a fault-injection campaign can arm a mid-phase fault.
/// Cleared whenever a restart begins a new incarnation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseEntries {
    /// First node dropped into the recovery code (P1 entry).
    pub p1: Option<SimTime>,
    /// First node began information dissemination (P2 entry).
    pub p2: Option<SimTime>,
    /// First node began interconnect recovery (P3 entry).
    pub p3: Option<SimTime>,
    /// First node began coherence-protocol recovery (P4 entry).
    pub p4: Option<SimTime>,
}

impl PhaseEntries {
    /// The entry time of phase `1..=4`; `None` while not yet entered.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is outside `1..=4`.
    pub fn entered(&self, phase: u8) -> Option<SimTime> {
        match phase {
            1 => self.p1,
            2 => self.p2,
            3 => self.p3,
            4 => self.p4,
            other => panic!("recovery has phases 1..=4, not {other}"),
        }
    }
}

/// Summary of the hardware recovery runs on one machine.
///
/// `phases`, `flush_done_at`, `p4_started_at` and `wave_complete_at`
/// describe the most recent *episode*: the span from a first trigger to P4
/// completion, across any restarts inside it. A trigger after a completed
/// episode clears them. The counters accumulate over every episode until
/// [`crate::RecoveryExt::reset_report`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Phase completion times of the most recent episode. `pN_done` is the
    /// first time every live node had finished phase N in *any*
    /// incarnation of the episode, so after a restart the phases need not
    /// come from one incarnation: a second death during P4 leaves
    /// `p1_done`–`p3_done` from the first incarnation and `p4_done` from
    /// the last.
    pub phases: PhaseTimes,
    /// Number of incarnations after the first. That counts the algorithm
    /// restarts (additional faults, watchdogs), but also every fresh
    /// episode after a completed one, since it too opens a new
    /// incarnation: two clean episodes report one restart.
    pub restarts: u32,
    /// Lines marked incoherent by the directory scans.
    pub lines_marked_incoherent: u64,
    /// Cache lines written back during the flush step.
    pub flush_writebacks: u64,
    /// Nodes that completed recovery and resumed.
    pub nodes_resumed: u32,
    /// Nodes that shut themselves down because their failure unit lost a
    /// component.
    pub nodes_shut_down: u32,
    /// Whether the whole-machine shutdown heuristic fired.
    pub machine_halted: bool,
    /// Time of the episode's first cache-flush barrier completion (start
    /// of the directory scans), for the Figure 5.6 writeback/scan split.
    pub flush_done_at: Option<SimTime>,
    /// Time the episode's flush step first started (P4 entry).
    pub p4_started_at: Option<SimTime>,
    /// Time at which every live node had entered the episode's recovery
    /// (the trigger wave's completion; §4.2's speculative pings accelerate
    /// this).
    pub wave_complete_at: Option<SimTime>,
}

impl RecoveryReport {
    /// Whether hardware recovery ran to completion.
    pub fn completed(&self) -> bool {
        self.phases.p4_done.is_some()
    }

    /// Duration of the flush (writeback) step of P4 — the "WB" series of
    /// Figure 5.6.
    pub fn writeback_time(&self) -> Option<SimDuration> {
        Some(self.flush_done_at?.since(self.p4_started_at?))
    }

    /// Duration of the whole of P4 — the "P4" series of Figure 5.6.
    pub fn p4_time(&self) -> Option<SimDuration> {
        Some(self.phases.p4_done?.since(self.p4_started_at?))
    }

    /// Time from the first trigger until every live node had entered
    /// recovery (the trigger-wave latency of Section 4.2).
    pub fn trigger_wave_time(&self) -> Option<SimDuration> {
        Some(self.wave_complete_at?.since(self.phases.triggered_at?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_calibrated() {
        let c = RecoveryConfig::default();
        assert_eq!(c.uncached_instr_ns, 400, "~2.5 MIPS uncached execution");
        assert!(c.speculative_pings && c.bft_hints);
        assert_eq!(c.instr(10), SimDuration::from_nanos(4_000));
    }

    #[test]
    fn phase_times_spans() {
        let mut p = PhaseTimes::default();
        assert_eq!(p.total(), None);
        p.triggered_at = Some(SimTime::from_nanos(100));
        p.p1_done = Some(SimTime::from_nanos(600));
        p.p2_done = Some(SimTime::from_nanos(1_100));
        p.p3_done = Some(SimTime::from_nanos(1_500));
        p.p4_done = Some(SimTime::from_nanos(2_100));
        assert_eq!(p.p1(), Some(SimDuration::from_nanos(500)));
        assert_eq!(p.p1_2(), Some(SimDuration::from_nanos(1_000)));
        assert_eq!(p.p1_3(), Some(SimDuration::from_nanos(1_400)));
        assert_eq!(p.total(), Some(SimDuration::from_nanos(2_000)));
    }

    #[test]
    fn report_wb_and_p4_split() {
        let mut r = RecoveryReport::default();
        assert!(!r.completed());
        r.p4_started_at = Some(SimTime::from_nanos(1_000));
        r.flush_done_at = Some(SimTime::from_nanos(4_000));
        r.phases.triggered_at = Some(SimTime::ZERO);
        r.phases.p4_done = Some(SimTime::from_nanos(9_000));
        assert!(r.completed());
        assert_eq!(r.writeback_time(), Some(SimDuration::from_nanos(3_000)));
        assert_eq!(r.p4_time(), Some(SimDuration::from_nanos(8_000)));
    }
}
