//! The assembled machine: nodes + interconnect + event dispatch, with an
//! extension hook for the recovery algorithm.
//!
//! [`MachineState`] owns all simulated hardware; [`Machine`] couples it to
//! the event engine and to an [`Extension`] — the recovery algorithm is an
//! extension supplied by the `flash-core` crate, keeping the substrate and
//! the paper's contribution cleanly separated.
//!
//! The module is split by subsystem; each file adds a plain `impl` block of
//! handlers to [`MachineState`] or [`MachineWorld`], and the event dispatch
//! loop in [`world`] calls them:
//!
//! * [`world`] — the [`MachineWorld`] dispatch loop, node-controller input
//!   servicing and the outbound packet pump;
//! * [`coh`] — coherence-protocol handlers (home and cache side);
//! * [`proc`] — processor issue, uncached I/O and `finish_op`, the one
//!   path every operation completes through;
//! * [`recovery`] — the recovery-support operations the extension drives
//!   (mode switches, cache flush, router reprogramming, resume);
//! * [`inject`] — fault arming and ground-truth mutation;
//! * [`stats`] — the post-recovery validation pass.
//!
//! Notable events are recorded through the [`flash_obs::Recorder`] owned by
//! [`MachineState`]; exporters in `flash-obs` turn it into Chrome-trace JSON
//! and per-node recovery timelines.
//!
//! ## Modeling notes
//!
//! * Every message (including node-local misses) traverses the fabric, so a
//!   local miss loops through the node's own router. This slightly inflates
//!   local miss latency but keeps one uniform code path.
//! * The range check is evaluated at the issuing node: the protected-region
//!   boundary is a global boot-time constant, so the local MAGIC can reject
//!   the write immediately with a bus error (paper, Section 3.3).

mod coh;
mod inject;
mod proc;
mod recovery;
mod stats;
#[cfg(test)]
mod tests;
mod world;

pub use world::MachineWorld;

use crate::fault::FaultSpec;
use crate::node::{NodeCtx, ProcState};
use crate::oracle::Oracle;
use crate::params::{MachineParams, TopologyKind};
use crate::payload::{Payload, UncMsg};
use crate::workload::Workload;
use flash_coherence::{CohMsg, MemLayout, NodeSet};
use flash_magic::Trigger;
use flash_net::{Fabric, Hypercube, Lane, Mesh2D, NodeId, Packet, SourceRoute, Topology};
use flash_obs::{Counter, Counters, Hist};
use flash_sim::{DetRng, Engine, RunOutcome, Scheduler, SimDuration, SimTime};

/// Events driving the machine, generic over the extension's event type `E`.
#[derive(Clone, Debug)]
pub enum Ev<E> {
    /// Interconnect event.
    Net(flash_net::NetEv),
    /// Service the node controller's input queues.
    NodeWake(u16),
    /// The processor issues (or finishes) an operation.
    ProcNext(u16),
    /// Memory-operation timeout check.
    Timeout {
        /// Node whose operation may have timed out.
        node: u16,
        /// Issue epoch the timeout belongs to.
        epoch: u64,
    },
    /// Retry of a NAK'd request.
    NakRetry {
        /// Retrying node.
        node: u16,
        /// Issue epoch the retry belongs to.
        epoch: u64,
    },
    /// Drain a node's outbound queue into the fabric.
    Pump {
        /// Node to pump.
        node: u16,
        /// Lane index to pump.
        lane: u8,
    },
    /// Inject a fault.
    Fault(FaultSpec),
    /// Heartbeat audit, armed one heartbeat period after a fault dooms
    /// nodes: if any victim's failure is still unnoticed by the extension,
    /// a surviving controller raises [`Trigger::HeartbeatTimeout`] and the
    /// audit re-arms for the next period.
    Heartbeat {
        /// The doomed nodes the audit watches.
        victims: Vec<u16>,
    },
    /// Route a hardware trigger to the extension on the next dispatch.
    TriggerNow {
        /// Node the trigger fired on.
        node: u16,
        /// The trigger.
        trig: Trigger,
    },
    /// An extension (recovery-algorithm) event.
    Ext(E),
}

/// The recovery-algorithm hook. `flash-core` implements this; tests can use
/// [`NullExtension`].
pub trait Extension: std::fmt::Debug + Sized {
    /// Wire messages carried on the recovery virtual lanes.
    type Msg: Clone + std::fmt::Debug;
    /// Timed events private to the extension.
    type Ev: Clone + std::fmt::Debug;

    /// A hardware trigger fired on `node` (Table 4.1).
    fn on_trigger(
        &mut self,
        st: &mut MachineState<Self::Msg>,
        node: NodeId,
        trig: Trigger,
        sched: &mut Scheduler<'_, Ev<Self::Ev>>,
    );

    /// A timed extension event fired.
    fn on_event(
        &mut self,
        st: &mut MachineState<Self::Msg>,
        ev: Self::Ev,
        sched: &mut Scheduler<'_, Ev<Self::Ev>>,
    );

    /// A recovery-lane message was delivered to `at`.
    fn on_recovery_msg(
        &mut self,
        st: &mut MachineState<Self::Msg>,
        at: NodeId,
        from: NodeId,
        msg: Self::Msg,
        sched: &mut Scheduler<'_, Ev<Self::Ev>>,
    );

    /// Whether `node`'s failure has gone unnoticed: no live node's failure
    /// view accounts for it yet. The heartbeat audit keeps raising
    /// [`Trigger::HeartbeatTimeout`] while this holds, modeling the paper's
    /// periodic MAGIC-to-MAGIC pings. The default (`false`) opts extensions
    /// that do not track peer liveness out of heartbeat detection entirely.
    fn unnoticed_failure(&self, st: &MachineState<Self::Msg>, node: NodeId) -> bool {
        let _ = (st, node);
        false
    }
}

/// An extension that ignores all triggers; useful for fault-free tests and
/// normal-mode benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullExtension;

impl Extension for NullExtension {
    type Msg = ();
    type Ev = ();
    fn on_trigger(
        &mut self,
        st: &mut MachineState<()>,
        _node: NodeId,
        _trig: Trigger,
        _sched: &mut Scheduler<'_, Ev<()>>,
    ) {
        st.counters.incr(Counter::IgnoredTriggers);
    }
    fn on_event(
        &mut self,
        _st: &mut MachineState<()>,
        _ev: (),
        _sched: &mut Scheduler<'_, Ev<()>>,
    ) {
    }
    fn on_recovery_msg(
        &mut self,
        _st: &mut MachineState<()>,
        _at: NodeId,
        _from: NodeId,
        _msg: (),
        _sched: &mut Scheduler<'_, Ev<()>>,
    ) {
    }
}

/// All simulated hardware state.
///
/// Cloning (for checkpoint/fork) deep-copies every node, the fabric, the
/// oracle and the recorder; see [`Machine::checkpoint`].
#[derive(Clone, Debug)]
pub struct MachineState<R> {
    /// Configuration.
    pub params: MachineParams,
    /// Memory layout.
    pub layout: MemLayout,
    /// The interconnect.
    pub fabric: Fabric<Payload<R>>,
    /// Per-node state.
    pub nodes: Vec<NodeCtx<R>>,
    /// The validation oracle.
    pub oracle: Oracle,
    /// Machine-level counters; [`MachineState::counters_total`] adds the
    /// fabric's and every directory's.
    pub counters: Counters,
    /// Ground-truth set of failed nodes (fault injector's view).
    pub failed_nodes: NodeSet,
    /// Structured event recorder + metrics (bounded per-domain rings; see
    /// [`flash_obs::Recorder`]).
    pub obs: flash_obs::Recorder,
    next_unc_tag: u64,
}

impl<R: Clone + std::fmt::Debug> MachineState<R> {
    fn new(
        params: MachineParams,
        mut make_workload: impl FnMut(NodeId) -> Box<dyn Workload>,
        seed: u64,
    ) -> Self {
        let layout = params.layout();
        let mut fabric = match params.topology {
            TopologyKind::Mesh2D => {
                let topo = Mesh2D::roughly_square(params.n_nodes);
                assert_eq!(
                    topo.num_nodes(),
                    params.n_nodes,
                    "n_nodes must factor into a mesh"
                );
                Fabric::new(&topo, params.net)
            }
            TopologyKind::Hypercube => {
                let topo = Hypercube::at_least(params.n_nodes);
                assert_eq!(
                    topo.num_nodes(),
                    params.n_nodes,
                    "n_nodes must be a power of two for a hypercube"
                );
                Fabric::new(&topo, params.net)
            }
        };
        let mut root_rng = DetRng::new(seed);
        let nodes = (0..params.n_nodes)
            .map(|i| {
                let id = NodeId(i as u16);
                NodeCtx::new(
                    id,
                    &params,
                    layout,
                    make_workload(id),
                    root_rng.fork(i as u64),
                )
            })
            .collect();
        // Forked *after* the per-node streams so existing node RNG
        // sequences are unchanged by the lossy-link feature.
        fabric.seed_loss_rng(root_rng.fork(0x1055));
        MachineState {
            params,
            layout,
            fabric,
            nodes,
            oracle: Oracle::new(),
            counters: Counters::new(),
            failed_nodes: NodeSet::new(),
            obs: flash_obs::Recorder::new(),
            next_unc_tag: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Reports a broken internal invariant: dumps the recent event trace to
    /// stderr (the post-mortem a bare `unwrap` would discard) and panics
    /// with `what`. Used by the hot-path and recovery-path accessors below
    /// in place of silent `expect`s.
    #[track_caller]
    pub fn invariant_failure(&self, what: &str) -> ! {
        eprintln!("machine invariant violated: {what}");
        eprintln!("--- recent trace (oldest first) ---\n{}", self.obs.render());
        panic!("machine invariant violated: {what}");
    }

    /// Unwraps an `Option` that an invariant guarantees is `Some`; on
    /// violation, dumps the trace and panics with `what`.
    #[track_caller]
    pub fn invariant_some<T>(&self, value: Option<T>, what: &str) -> T {
        match value {
            Some(v) => v,
            None => self.invariant_failure(what),
        }
    }

    /// The machine's, the fabric's and every directory's counters summed:
    /// the one counter report of a run.
    pub fn counters_total(&self) -> Counters {
        let mut total = self.counters.clone();
        total.merge(self.fabric.counters());
        for n in &self.nodes {
            total.merge(n.dir.counters());
        }
        total
    }

    /// Nodes that are operational according to ground truth.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|n| n.is_alive()).map(|n| n.id)
    }

    /// Queues a packet in its source node's outbox; the per-lane pump
    /// drains it into the fabric, retrying when the injection queue is full.
    fn queue_send<E>(&mut self, pkt: Packet<Payload<R>>, sched: &mut Scheduler<'_, Ev<E>>) {
        let (from, lane_idx) = (pkt.src, pkt.lane.index());
        let node = &mut self.nodes[from.index()];
        node.outbox[lane_idx].push_back(pkt);
        if !node.pump_scheduled[lane_idx] {
            node.pump_scheduled[lane_idx] = true;
            // Messages produced by a handler leave the controller when the
            // handler completes — handler occupancy (e.g. the firewall's
            // ACL check) is therefore part of the reply latency.
            let at = node.occupancy.busy_until().max(sched.now());
            sched.at(
                at,
                Ev::Pump {
                    node: from.0,
                    lane: lane_idx as u8,
                },
            );
        }
    }

    /// Queues a coherence message (table-routed, on its protocol lane).
    pub fn send_coh<E>(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: CohMsg,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let pkt = Packet::table_routed(from, to, msg.lane(), msg.flits(), Payload::Coh(msg));
        self.queue_send(pkt, sched);
    }

    /// Queues an uncached message (table-routed).
    pub fn send_unc<E>(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: UncMsg,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let lane = if msg.is_reply() {
            Lane::Reply
        } else {
            Lane::Request
        };
        let pkt = Packet::table_routed(from, to, lane, msg.flits(), Payload::Unc(msg));
        self.queue_send(pkt, sched);
    }

    /// Queues a source-routed recovery message on the given recovery lane.
    /// The hop list is stored inline ([`SourceRoute`]), so the packet incurs
    /// no allocation on its way through the fabric.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a recovery lane, or if `hops` is empty or
    /// longer than [`flash_net::MAX_SOURCE_HOPS`].
    pub fn send_recovery<E>(
        &mut self,
        from: NodeId,
        to: NodeId,
        hops: impl Into<SourceRoute>,
        lane: Lane,
        msg: R,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        assert!(
            !lane.is_coherence(),
            "recovery traffic uses dedicated lanes"
        );
        let pkt = Packet::source_routed(from, to, hops, lane, 1, Payload::Rec(msg));
        self.queue_send(pkt, sched);
    }

    /// Allocates a fresh uncached-operation tag.
    pub fn fresh_unc_tag(&mut self) -> u64 {
        let t = self.next_unc_tag;
        self.next_unc_tag += 1;
        t
    }

    /// The state a node's processor is in (test access).
    pub fn proc_state(&self, node: NodeId) -> ProcState {
        self.nodes[node.index()].proc
    }

    /// Records a handler dispatch in the Magic trace domain and feeds the
    /// handler-cost histogram. No-ops cheaply when the domain and metrics
    /// are disabled (the default for the Magic domain).
    pub(crate) fn record_dispatch(
        &mut self,
        node: u16,
        handler: &'static str,
        cost_ns: u64,
        now: SimTime,
    ) {
        self.obs.record(
            flash_obs::Domain::Magic,
            now,
            flash_obs::TraceEvent::HandlerDispatch {
                node,
                handler,
                cost_ns,
            },
        );
        self.obs
            .metrics
            .observe(Hist::MagicHandlerNs, SimDuration::from_nanos(cost_ns));
    }

    /// Total controller busy time and services across all nodes, for
    /// end-of-run occupancy attribution.
    pub fn occupancy_totals(&self) -> (u64, u64) {
        self.nodes.iter().fold((0, 0), |(b, s), n| {
            (b + n.occupancy.busy_ns(), s + n.occupancy.services())
        })
    }
}

/// A complete simulated machine with its event engine.
///
/// When the extension is `Clone`, the whole machine is: see
/// [`Machine::checkpoint`] for the warm-state snapshot API.
#[derive(Clone, Debug)]
pub struct Machine<X: Extension> {
    world: MachineWorld<X>,
    engine: Engine<Ev<X::Ev>>,
}

/// A warm-state snapshot of a whole machine, taken with
/// [`Machine::checkpoint`] and re-instantiated with [`Checkpoint::fork`].
///
/// A checkpoint captures *everything* that determines future behavior: the
/// event queue (pending events, insertion order, window position), the
/// simulation clock, every node's cache/directory/controller/workload
/// cursor/RNG, the fabric's queues and packet slab, the oracle, the
/// recorder (sequence counter included) and the extension. A fork therefore
/// replays bit-identically: running a fork produces the same merged trace —
/// and so the same [`flash_obs::Recorder::merged_hash`] — as running the
/// original from the same point.
///
/// Checkpoints may be taken at any event boundary, including mid-recovery
/// (between recovery phases): in-flight recovery messages and timed
/// extension events live in the cloned event queue and extension state, so
/// they are part of the snapshot.
#[derive(Clone, Debug)]
pub struct Checkpoint<X: Extension + Clone>(Machine<X>);

impl<X: Extension + Clone> Checkpoint<X> {
    /// Instantiates a fresh runnable machine from the snapshot. May be
    /// called any number of times; forks are independent.
    pub fn fork(&self) -> Machine<X> {
        self.0.clone()
    }

    /// Read access to the snapshotted machine state (inspection only).
    pub fn st(&self) -> &MachineState<X::Msg> {
        self.0.st()
    }
}

impl<X: Extension + Clone> Machine<X> {
    /// Takes a warm-state snapshot of the whole machine — event queue,
    /// clock, nodes, fabric, oracle, recorder and extension — from which
    /// any number of independent runs can be [`Checkpoint::fork`]ed.
    pub fn checkpoint(&self) -> Checkpoint<X> {
        Checkpoint(self.clone())
    }
}

impl<X: Extension> Machine<X> {
    /// Builds a machine. `make_workload` supplies each node's workload;
    /// `seed` drives all randomness.
    pub fn new(
        params: MachineParams,
        make_workload: impl FnMut(NodeId) -> Box<dyn Workload>,
        ext: X,
        seed: u64,
    ) -> Self {
        let st = MachineState::new(params, make_workload, seed);
        Machine {
            world: MachineWorld::new(st, ext),
            engine: Engine::new(),
        }
    }

    /// Starts every processor (schedules the first `ProcNext` per node).
    pub fn start(&mut self) {
        for i in 0..self.world.st.num_nodes() {
            self.engine
                .schedule_at(SimTime::from_nanos(i as u64), Ev::ProcNext(i as u16));
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Runs until the horizon passes or the event queue drains.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.engine.run(&mut self.world, horizon)
    }

    /// Runs for the given additional duration.
    pub fn run_for(&mut self, d: SimDuration) -> RunOutcome {
        self.run_until(self.engine.now() + d)
    }

    /// Schedules a fault at an absolute time.
    pub fn schedule_fault(&mut self, at: SimTime, spec: FaultSpec) {
        self.engine.schedule_at(at, Ev::Fault(spec));
    }

    /// Read access to the machine state.
    pub fn st(&self) -> &MachineState<X::Msg> {
        &self.world.st
    }

    /// Mutable access to the machine state (experiment setup).
    pub fn st_mut(&mut self) -> &mut MachineState<X::Msg> {
        &mut self.world.st
    }

    /// Read access to the extension.
    pub fn ext(&self) -> &X {
        &self.world.ext
    }

    /// Mutable access to the extension.
    pub fn ext_mut(&mut self) -> &mut X {
        &mut self.world.ext
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// How many handler schedules asked for a past time and were clamped to
    /// "now" (see [`flash_sim::Scheduler::at`]).
    pub fn clamped_schedules(&self) -> u64 {
        self.engine.clamped_schedules()
    }

    /// How many event pushes missed the engine queue's near-horizon ring
    /// and went to its overflow heap (see [`flash_sim::Engine::overflow_pushed`]).
    pub fn overflow_pushed(&self) -> u64 {
        self.engine.overflow_pushed()
    }

    /// Sets the engine's livelock guard.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.engine.set_event_budget(budget);
    }
}
