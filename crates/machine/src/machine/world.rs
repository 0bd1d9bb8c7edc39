//! The event dispatch loop: [`MachineWorld`] plugs the machine into the
//! simulation engine and hands each event to its subsystem's handler — the
//! node-controller servicing here, the coherence and processor handlers on
//! [`MachineState`], and fault injection in [`inject`](super::inject).

use super::{Ev, Extension, MachineState};
use crate::node::ProcState;
use crate::payload::Payload;
use flash_coherence::{CohMsg, LineAddr};
use flash_magic::{costs, Trigger};
use flash_net::{DeliveryNote, Lane, NetEv, NodeId, Packet, SendError};
use flash_obs::{Counter, Domain, TraceEvent};
use flash_sim::{Scheduler, SimDuration, SimTime, World};

/// The [`World`] implementation: machine state + extension.
///
/// Also owns the scratch buffers the hot fabric path drains into, so a net
/// event or a pump burst performs no per-event allocation.
///
/// Cloning (for checkpoint/fork) copies the machine state, the extension
/// and the wake-coalescing table; the scratch buffers are always empty
/// between dispatches, so a clone taken between events is exact.
#[derive(Clone, Debug)]
pub struct MachineWorld<X: Extension> {
    /// Hardware state.
    pub st: MachineState<X::Msg>,
    /// The recovery extension.
    pub ext: X,
    pub(super) net_out: Vec<(SimDuration, NetEv)>,
    pub(super) deliveries: Vec<DeliveryNote>,
    /// Earliest pending [`Ev::NodeWake`] per node, used to coalesce wakes:
    /// a burst of deliveries to a busy controller needs one wake at its
    /// `busy_until`, not one per packet.
    pub(super) wake_at: Vec<Option<SimTime>>,
}

impl<X: Extension> MachineWorld<X> {
    /// Couples machine state to a recovery extension.
    pub fn new(st: MachineState<X::Msg>, ext: X) -> Self {
        let wake_at = vec![None; st.nodes.len()];
        MachineWorld {
            st,
            ext,
            net_out: Vec::new(),
            deliveries: Vec::new(),
            wake_at,
        }
    }

    /// Schedules a controller wake for node `n` at `t` unless an
    /// earlier-or-equal wake is already pending. `node_wake` re-arms itself
    /// while work remains, so one pending wake per node suffices.
    pub(super) fn wake_node(&mut self, n: u16, t: SimTime, sched: &mut Scheduler<'_, Ev<X::Ev>>) {
        match self.wake_at[n as usize] {
            Some(w) if w <= t => {}
            _ => {
                self.wake_at[n as usize] = Some(t);
                sched.at(t, Ev::NodeWake(n));
            }
        }
    }
}

impl<X: Extension> World for MachineWorld<X> {
    type Ev = Ev<X::Ev>;

    // Inlined into the engine loop whichever codegen unit instantiates it:
    // left to partitioning, an unrelated edit can split the two and cost
    // several percent of every run.
    #[inline]
    fn dispatch(&mut self, ev: Ev<X::Ev>, sched: &mut Scheduler<'_, Ev<X::Ev>>) {
        match ev {
            Ev::Net(e) => {
                debug_assert!(self.net_out.is_empty() && self.deliveries.is_empty());
                self.st.fabric.handle(
                    e,
                    sched.now(),
                    &mut self.net_out,
                    &mut self.deliveries,
                    &mut self.st.obs,
                );
                for (d, e) in self.net_out.drain(..) {
                    sched.after(d, Ev::Net(e));
                }
                let now = sched.now();
                let mut deliveries = std::mem::take(&mut self.deliveries);
                for note in deliveries.drain(..) {
                    let n = note.node.0;
                    // A busy controller can't look at the packet before
                    // `busy_until` anyway; aim the wake there directly.
                    let t = self.st.nodes[n as usize].occupancy.busy_until().max(now);
                    self.wake_node(n, t, sched);
                }
                self.deliveries = deliveries;
            }
            Ev::NodeWake(n) => self.node_wake(n, sched),
            Ev::ProcNext(n) => self.st.proc_next(n, sched),
            Ev::Timeout { node, epoch } => {
                let proc = self.st.nodes[node as usize].proc;
                let alive = self.st.nodes[node as usize].is_alive();
                let fire = match proc {
                    ProcState::WaitMiss { epoch: e, .. } => e == epoch,
                    ProcState::WaitUncached { epoch: e, .. } => e == epoch,
                    _ => false,
                };
                if fire && alive {
                    let line = match proc {
                        ProcState::WaitMiss { line, .. } => line,
                        _ => LineAddr(0),
                    };
                    let trig = Trigger::MemOpTimeout { line };
                    self.st.counters.incr(Counter::TimeoutTriggers);
                    self.st.obs.record(
                        Domain::Machine,
                        sched.now(),
                        TraceEvent::TriggerFired {
                            node,
                            trigger: trig.kind_str(),
                        },
                    );
                    self.ext.on_trigger(&mut self.st, NodeId(node), trig, sched);
                }
            }
            Ev::NakRetry { node, epoch } => {
                let proc = self.st.nodes[node as usize].proc;
                if !self.st.nodes[node as usize].is_alive() {
                    return;
                }
                if let ProcState::WaitMiss {
                    line,
                    write,
                    epoch: e,
                } = proc
                {
                    if e == epoch {
                        self.st.resend_miss(node, line, write, sched);
                    }
                }
            }
            Ev::Pump { node, lane } => self.pump(node, lane, sched),
            Ev::Fault(spec) => self.handle_fault(*spec, sched),
            Ev::Heartbeat { victims } => {
                // A victim whose failure every live node's view still misses
                // has gone undetected: a surviving controller's missed-
                // heartbeat counter raises the trigger. The audit re-arms
                // until the extension accounts for every victim (a mid-
                // recovery trigger is absorbed; the next period re-checks).
                let unnoticed = victims.iter().any(|&v| {
                    self.st.failed_nodes.contains(NodeId(v))
                        && self.ext.unnoticed_failure(&self.st, NodeId(v))
                });
                if !unnoticed {
                    return;
                }
                let Some(observer) = self.st.alive_nodes().next() else {
                    return;
                };
                let trig = Trigger::HeartbeatTimeout;
                self.st.counters.incr(Counter::HeartbeatTriggers);
                self.st.obs.record(
                    Domain::Machine,
                    sched.now(),
                    TraceEvent::TriggerFired {
                        node: observer.0,
                        trigger: trig.kind_str(),
                    },
                );
                self.ext.on_trigger(&mut self.st, observer, trig, sched);
                let period =
                    SimDuration::from_nanos(self.st.params.magic.heartbeat_timeout_ns.max(1));
                sched.after(period, Ev::Heartbeat { victims });
            }
            Ev::TriggerNow { node, trig } => {
                if self.st.nodes[node as usize].is_alive() {
                    self.st.obs.record(
                        Domain::Machine,
                        sched.now(),
                        TraceEvent::TriggerFired {
                            node,
                            trigger: trig.kind_str(),
                        },
                    );
                    self.ext.on_trigger(&mut self.st, NodeId(node), trig, sched);
                }
            }
            Ev::Ext(e) => self.ext.on_event(&mut self.st, e, sched),
        }
    }
}

/// Node-controller servicing: input-queue wakes, inbound packet dispatch
/// and the outbound pump. Lives on [`MachineWorld`] (not the bare state)
/// because truncated packets and recovery messages reach the extension.
impl<X: Extension> MachineWorld<X> {
    /// Services one input packet on a node controller, if idle and
    /// available.
    fn node_wake(&mut self, n: u16, sched: &mut Scheduler<'_, Ev<X::Ev>>) {
        let now = sched.now();
        if self.wake_at[n as usize] == Some(now) {
            self.wake_at[n as usize] = None;
        }
        let busy_until = {
            let node = &self.st.nodes[n as usize];
            if !node.is_alive() {
                return;
            }
            if node.occupancy.idle_at(now) {
                None
            } else {
                Some(node.occupancy.busy_until())
            }
        };
        if let Some(busy_until) = busy_until {
            self.wake_node(n, busy_until, sched);
            return;
        }
        // Service priority: replies first (always sinkable), then requests,
        // then the recovery lanes.
        const PRIO: [Lane; 4] = [Lane::Reply, Lane::Request, Lane::Recovery0, Lane::Recovery1];
        let (pkt, more) = self.st.fabric.pop_input_prio(NodeId(n), &PRIO);
        let Some(pkt) = pkt else { return };
        self.process_packet(n, pkt, sched);
        // More input is waiting; wake again when the handler completes.
        if more {
            let busy_until = self.st.nodes[n as usize].occupancy.busy_until();
            self.wake_node(n, busy_until.max(now), sched);
        }
    }

    /// Dispatches one delivered packet to its payload's subsystem.
    fn process_packet(
        &mut self,
        n: u16,
        pkt: Packet<Payload<X::Msg>>,
        sched: &mut Scheduler<'_, Ev<X::Ev>>,
    ) {
        let st = &mut self.st;
        let now = sched.now();
        // A truncated packet dispatches the error handler and triggers
        // recovery (paper, Sections 3.1 and 4.2); the payload is not
        // interpreted.
        if pkt.truncated {
            st.nodes[n as usize]
                .occupancy
                .occupy(now, SimDuration::from_nanos(costs::ERROR_NS));
            st.counters.incr(Counter::TruncatedDispatches);
            st.record_dispatch(n, "error", costs::ERROR_NS, now);
            // A data-carrying coherence packet that was truncated names the
            // line whose data flits were lost: the oracle accepts that line
            // being marked, which P4's directory scan does.
            if let Payload::Coh(CohMsg::Put { line, .. } | CohMsg::Data { line, .. }) = pkt.payload
            {
                st.oracle.allow_incoherent(line);
                st.obs.record(
                    Domain::Coherence,
                    now,
                    TraceEvent::CohTransition {
                        node: n,
                        line: line.0,
                        what: "truncation_incoherent",
                    },
                );
            }
            self.ext
                .on_trigger(st, NodeId(n), Trigger::TruncatedPacket, sched);
            return;
        }
        match pkt.payload {
            Payload::Rec(msg) => {
                st.nodes[n as usize]
                    .occupancy
                    .occupy(now, SimDuration::from_nanos(costs::RECOVERY_MSG_NS));
                st.record_dispatch(n, "rec", costs::RECOVERY_MSG_NS, now);
                self.ext.on_recovery_msg(st, NodeId(n), pkt.src, msg, sched);
            }
            Payload::Coh(msg) => {
                // The handler's charged cost is only known after dispatch
                // (mode and firewall dependent); the occupancy accumulator
                // delta recovers it without touching the handlers.
                let handler = msg.kind_str();
                let before = st.nodes[n as usize].occupancy.busy_ns();
                st.process_coh(n, pkt.src, msg, sched);
                let cost_ns = st.nodes[n as usize].occupancy.busy_ns() - before;
                st.record_dispatch(n, handler, cost_ns, now);
            }
            Payload::Unc(msg) => {
                let before = st.nodes[n as usize].occupancy.busy_ns();
                st.process_unc(n, pkt.src, msg, sched);
                let cost_ns = st.nodes[n as usize].occupancy.busy_ns() - before;
                st.record_dispatch(n, "unc", cost_ns, now);
            }
        }
    }

    /// Drains a node's outbound lane queue into the fabric.
    fn pump(&mut self, n: u16, lane_idx: u8, sched: &mut Scheduler<'_, Ev<X::Ev>>) {
        let now = sched.now();
        loop {
            let packet = {
                let node = &mut self.st.nodes[n as usize];
                if !node.is_alive() {
                    node.outbox[lane_idx as usize].clear();
                    node.pump_scheduled[lane_idx as usize] = false;
                    return;
                }
                match node.outbox[lane_idx as usize].pop_front() {
                    Some(packet) => packet,
                    None => {
                        node.pump_scheduled[lane_idx as usize] = false;
                        return;
                    }
                }
            };
            debug_assert!(self.net_out.is_empty());
            match self.st.fabric.try_send(
                NodeId(n),
                packet,
                now,
                &mut self.net_out,
                &mut self.st.obs,
            ) {
                Ok(()) => {
                    for (d, e) in self.net_out.drain(..) {
                        sched.after(d, Ev::Net(e));
                    }
                }
                Err(SendError::Full(packet)) => {
                    // Injection queue full: the fabric hands the packet back
                    // unchanged; it goes back to the head and is retried
                    // later.
                    self.net_out.clear();
                    self.st.nodes[n as usize].outbox[lane_idx as usize].push_front(packet);
                    sched.after(
                        SimDuration::from_nanos(self.st.params.net.retry_ns),
                        Ev::Pump {
                            node: n,
                            lane: lane_idx,
                        },
                    );
                    return;
                }
            }
        }
    }
}
