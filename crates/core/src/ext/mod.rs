//! The distributed hardware recovery algorithm (paper, Section 4),
//! implemented as a [`flash_machine::Extension`].
//!
//! Each live node runs an instance of a per-node state machine; nodes
//! communicate only through source-routed messages on the dedicated
//! recovery lanes and local probes of adjacent routers. The phases:
//!
//! 1. **Recovery initiation** — the processor is dropped into the recovery
//!    code, pending operations are NAK'd (uncached reads saved), the node
//!    probes its vicinity and determines its set of closest working
//!    neighbors (`cwn`), pinging them into recovery; the ping wave spreads
//!    the trigger to every good node.
//! 2. **Information dissemination** — synchronized rounds of `LState`/
//!    `NState` exchange with the cwn; termination after `2h` rounds, with
//!    `h` the BFT height at the agreed root, propagated as a hint.
//! 3. **Interconnect recovery** — isolate failed regions, drain stalled
//!    traffic with a two-phase agreement (bound τ), recompute deadlock-free
//!    routing tables (up*/down*) and reprogram the routers, then barrier.
//! 4. **Coherence-protocol recovery** — flush caches (dirty lines home),
//!    barrier, scan directories marking lost lines incoherent, reset
//!    state, barrier, resume (raising the OS-recovery interrupt).
//!
//! Additional faults detected mid-recovery (truncated packets, firmware
//! assertions, phase watchdogs) restart the algorithm under a higher
//! *incarnation* number that spreads with the ping wave; stale-incarnation
//! messages are discarded.
//!
//! The implementation is split across this module tree:
//!
//! * [`mod@self`] — shared types ([`RecEv`], [`Step`], the per-node and
//!   incarnation records) and the [`RecoveryExt`] state plus its
//!   cross-phase plumbing, including the phase-edge bookkeeping behind
//!   [`RecoveryReport`].
//! * `init` — phase 1 (recovery initiation) and phase 2 (dissemination).
//! * `phases` — phase 3 (interconnect) and phase 4 (coherence) recovery.
//! * `barrier` — the BFT barrier tree shared by phases 3 and 4.
//! * `driver` — the [`flash_machine::Extension`] impl wiring triggers,
//!   timed events, and recovery messages into the state machine.

mod barrier;
mod driver;
mod init;
mod phases;

use crate::config::{PhaseEntries, RecoveryConfig, RecoveryReport, WATCHDOG};
use crate::msg::{BarrierId, RecMsg};
use crate::view::{Tree, View};
use flash_coherence::NodeSet;
use flash_machine::{Ev, MachineState};
use flash_net::{Lane, NodeId, RouterId};
use flash_obs::Counter;
use flash_sim::{Scheduler, SimTime};
use std::collections::HashMap;

/// Timed events private to the recovery algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecEv {
    /// A ping's reply deadline expired.
    PingDeadline {
        /// The waiting node.
        node: u16,
        /// The pinged node.
        target: u16,
        /// Incarnation the ping belongs to.
        inc: u32,
    },
    /// A charged computation step finished.
    StepDone {
        /// The computing node.
        node: u16,
        /// Incarnation.
        inc: u32,
        /// Which step.
        step: Step,
    },
    /// Drain-quiet polling.
    DrainPoll {
        /// Polling node.
        node: u16,
        /// Incarnation.
        inc: u32,
        /// Drain attempt number (re-votes after a failed agreement).
        attempt: u32,
    },
    /// Poll until the node's outbound writebacks have entered the fabric,
    /// then join the flush barrier.
    FlushJoinPoll {
        /// Polling node.
        node: u16,
        /// Incarnation.
        inc: u32,
    },
    /// The barrier root polls the interconnect for complete writeback
    /// delivery before releasing the flush barrier.
    RootFlushPoll {
        /// The root node.
        node: u16,
        /// Incarnation.
        inc: u32,
    },
    /// Phase-progress watchdog.
    Watchdog {
        /// Watched node.
        node: u16,
        /// Incarnation.
        inc: u32,
        /// Progress stamp at scheduling time.
        stamp: u64,
    },
}

/// A charged computation step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Processor dropped into the recovery code.
    DropIn,
    /// One dissemination round's merges (and possibly the BFT computation).
    Round {
        /// The round being finalized.
        round: u32,
    },
    /// Local router isolation reprogramming.
    Isolate,
    /// Routing-table recomputation.
    RouteCompute,
    /// The uncached cache-flush walk.
    FlushWalk,
    /// The directory scan.
    Scan,
}

/// Per-node recovery phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Idle,
    DropIn,
    Explore,
    Dissem,
    Isolate,
    Drain1Wait,
    InBarrier(BarrierId),
    RouteCompute,
    FlushWalk,
    FlushJoin,
    Scan,
    Shut,
}

#[derive(Clone, Debug)]
struct BarState {
    ups: NodeSet,
    self_joined: bool,
    ok: bool,
    released: bool,
}

impl Default for BarState {
    /// A barrier nobody has joined yet; its vote is the AND of every
    /// arrival's, so it opens at `true`.
    fn default() -> Self {
        BarState {
            ups: NodeSet::new(),
            self_joined: false,
            ok: true,
            released: false,
        }
    }
}

#[derive(Clone, Debug)]
struct PingState {
    route: Vec<RouterId>,
    retries: u32,
}

#[derive(Clone, Debug, Default)]
struct NodeRec {
    inc: u32,
    phase: Phase,
    view: View,
    // --- exploration ---
    visited: NodeSet,
    pending_pings: HashMap<u16, PingState>,
    routes: HashMap<u16, Vec<RouterId>>,
    cwn: Vec<u16>,
    // --- dissemination ---
    round: u32,
    inbox: HashMap<(u16, u32), (View, Option<u32>)>,
    bound: Option<u32>,
    computing_round: bool,
    // --- barriers / P3 / P4 ---
    tree: Option<Tree>,
    /// Indexed by `BarrierId as usize`.
    bars: [BarState; 5],
    stashed_ups: Vec<(u16, BarrierId, bool)>,
    vote1_at: Option<SimTime>,
    drain_attempt: u32,
    progress: u64,
}

impl NodeRec {
    fn reset_for(&mut self, inc: u32) {
        let progress = self.progress + 1;
        *self = NodeRec::default();
        self.inc = inc;
        self.progress = progress;
    }

    fn bar(&mut self, id: BarrierId) -> &mut BarState {
        &mut self.bars[id as usize]
    }
}

/// Machine-wide bookkeeping of one incarnation. A restart replaces it
/// wholesale.
#[derive(Clone, Debug, Default)]
struct Incarnation {
    /// The incarnation number (0 before the first recovery).
    inc: u32,
    /// Nodes that entered this incarnation.
    started: NodeSet,
    /// Nodes that finished phase `i + 1`, at index `i`.
    done: [NodeSet; 4],
    /// First entry into each phase.
    entries: PhaseEntries,
}

/// Whether every live node is in `set` (vacuously true once all are dead).
fn all_live_in(st: &St, set: &NodeSet) -> bool {
    st.alive_nodes().all(|n| set.contains(n))
}

type Sched<'a, 'b> = &'a mut Scheduler<'b, Ev<RecEv>>;
type St = MachineState<RecMsg>;

/// The recovery algorithm extension: plugs into
/// [`flash_machine::Machine`] and reacts to the hardware triggers of
/// Table 4.1.
///
/// `Clone` makes the whole `Machine<RecoveryExt>` checkpointable: a
/// snapshot taken mid-recovery (between phases) carries the per-node
/// recovery records, phase-entry log and barrier/ping state with it.
#[derive(Clone, Debug)]
pub struct RecoveryExt {
    /// Algorithm parameters.
    pub cfg: RecoveryConfig,
    nodes: Vec<NodeRec>,
    /// Hive failure units: when set, a node whose unit lost any member
    /// shuts itself down after recovery (Section 3.3).
    units: Option<Vec<NodeSet>>,
    /// Execution summary.
    pub report: RecoveryReport,
    cur: Incarnation,
    active: bool,
    /// The routing tables P3 last computed, for the survivors that hold
    /// the same view.
    routes: Option<phases::Routes>,
}

impl RecoveryExt {
    /// Creates the extension for a machine with `n_nodes` nodes.
    pub fn new(n_nodes: usize, cfg: RecoveryConfig) -> Self {
        RecoveryExt {
            cfg,
            nodes: vec![NodeRec::default(); n_nodes],
            units: None,
            report: RecoveryReport::default(),
            cur: Incarnation::default(),
            active: false,
            routes: None,
        }
    }

    /// Configures Hive failure units (each node must appear in exactly one
    /// set).
    pub fn set_failure_units(&mut self, units: Vec<NodeSet>) {
        self.units = Some(units);
    }

    /// Whether any node is currently executing the recovery algorithm.
    pub fn recovery_active(&self) -> bool {
        self.active
    }

    /// The current incarnation number (0 before the first recovery).
    pub fn incarnation(&self) -> u32 {
        self.cur.inc
    }

    /// Machine-wide first-entry times of the recovery phases for the
    /// current incarnation (reset when a restart begins a new one).
    /// External drivers — fault campaigns in particular — poll this
    /// between run slices to arm faults *inside* a chosen phase.
    pub fn phase_entries(&self) -> PhaseEntries {
        self.cur.entries
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    fn send(
        &mut self,
        st: &mut St,
        from: u16,
        to: u16,
        msg: RecMsg,
        lane: Lane,
        sched: Sched<'_, '_>,
    ) {
        let rec = &self.nodes[from as usize];
        let route = match rec.routes.get(&to) {
            Some(r) => Some(r.clone()),
            None => rec
                .view
                .route_between(st.fabric.design_graph(), NodeId(from), NodeId(to)),
        };
        let Some(route) = route else {
            st.counters.incr(Counter::RecoveryMsgUnroutable);
            return;
        };
        st.send_recovery(NodeId(from), NodeId(to), route, lane, msg, sched);
    }

    /// `node` finished phase `phase` (1..=4) at `now`: traces the exit (and
    /// the next phase's entry before P4), adds the node to the phase's done
    /// set, stamps the next phase's first entry, and stamps `report.phases`
    /// for every phase that all live nodes have now finished.
    fn phase_done(&mut self, st: &mut St, node: u16, phase: u8, now: SimTime) {
        let incarnation = self.nodes[node as usize].inc;
        st.obs.record(
            flash_obs::Domain::Recovery,
            now,
            flash_obs::TraceEvent::PhaseExit {
                node,
                phase,
                incarnation,
            },
        );
        let entries = &mut self.cur.entries;
        let next = match phase {
            1 => Some(&mut entries.p2),
            2 => Some(&mut entries.p3),
            3 => Some(&mut entries.p4),
            _ => None,
        };
        if let Some(entered) = next {
            entered.get_or_insert(now);
            st.obs.record(
                flash_obs::Domain::Recovery,
                now,
                flash_obs::TraceEvent::PhaseEnter {
                    node,
                    phase: phase + 1,
                    incarnation,
                },
            );
        }
        self.cur.done[phase as usize - 1].insert(NodeId(node));
        let p = &mut self.report.phases;
        for (done_at, done) in [
            &mut p.p1_done,
            &mut p.p2_done,
            &mut p.p3_done,
            &mut p.p4_done,
        ]
        .into_iter()
        .zip(&self.cur.done)
        {
            if done_at.is_none() && all_live_in(st, done) {
                *done_at = Some(now);
            }
        }
    }

    fn bump_progress(&mut self, node: u16, sched: Sched<'_, '_>) {
        let rec = &mut self.nodes[node as usize];
        rec.progress += 1;
        let stamp = rec.progress;
        let inc = rec.inc;
        sched.after(WATCHDOG, Ev::Ext(RecEv::Watchdog { node, inc, stamp }));
    }
}
