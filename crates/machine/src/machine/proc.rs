//! Processor-side handlers: operation issue, the uncached I/O protocol and
//! local miss completion (discarded speculation, local bus errors, NAK'd
//! reissue).

use super::{Ev, MachineState};
use crate::node::ProcState;
use crate::payload::UncMsg;
use crate::workload::{OpResult, ProcOp};
use flash_coherence::{CohMsg, LineAddr};
use flash_magic::{BusError, MagicMode};
use flash_net::NodeId;
use flash_obs::Counter;
use flash_sim::{Scheduler, SimDuration, SimTime};

impl<R: Clone + std::fmt::Debug> MachineState<R> {
    /// Finishes node `n`'s current operation at `now`: the processor is
    /// ready again, the operation and its NAK count are cleared, a bus error
    /// is counted on the node and on the machine, and the workload observes
    /// `result`. Every completion goes through here; callers own latency
    /// recording, tracing and scheduling the next `ProcNext`.
    pub(super) fn finish_op(&mut self, n: u16, now: SimTime, result: OpResult) {
        let node = &mut self.nodes[n as usize];
        node.proc = ProcState::Ready;
        node.current_op = None;
        node.naks.reset();
        if matches!(result, OpResult::BusError(_)) {
            node.bus_errors += 1;
            self.counters.incr(Counter::BusErrors);
        }
        node.workload.on_result(NodeId(n), now, result);
    }

    /// The processor issues its next (or retained) operation.
    pub(super) fn proc_next<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let st = self;
        let now = sched.now();
        {
            let node = &mut st.nodes[n as usize];
            if !matches!(node.proc, ProcState::Ready) {
                return;
            }
            if node.current_op.is_none() {
                let node_id = node.id;
                let op = node.workload.next_op(node_id, now, &mut node.rng);
                node.current_op = Some(op);
            }
        }
        let op = st.invariant_some(
            st.nodes[n as usize].current_op,
            "proc step: current_op must be populated before dispatch",
        );
        let issue = SimDuration::from_nanos(st.params.proc_issue_ns);
        match op {
            ProcOp::Halt => {
                st.nodes[n as usize].proc = ProcState::Halted;
                st.nodes[n as usize].current_op = None;
            }
            ProcOp::Compute(ns) => {
                st.finish_op(n, now, OpResult::Ok(None));
                sched.after(SimDuration::from_nanos(ns) + issue, Ev::ProcNext(n));
            }
            ProcOp::Read(raw) | ProcOp::Write(raw) | ProcOp::SpeculativeWrite(raw) => {
                let speculative = matches!(op, ProcOp::SpeculativeWrite(_));
                let write = matches!(op, ProcOp::Write(_) | ProcOp::SpeculativeWrite(_));
                st.nodes[n as usize].current_is_speculative = speculative;
                let line = st.nodes[n as usize].remap.remap(raw);
                // Range check at the issuing MAGIC (global boot-time
                // constant).
                if write {
                    let local = st.layout.local_index(line) as u64;
                    if !st.nodes[n as usize].range_check.write_allowed(local) {
                        if speculative {
                            st.complete_discarded_speculation(n, sched);
                        } else {
                            st.complete_local_bus_error(n, BusError::RangeViolation, sched);
                        }
                        return;
                    }
                }
                // Cache hit?
                let (hit, exclusive_store_refused) = {
                    let node = &mut st.nodes[n as usize];
                    match node.cache.touch(line) {
                        Some(l) if !write => (Some(l.version), false),
                        Some(l) if speculative && l.exclusive => (Some(l.version), false),
                        Some(l) if write && l.exclusive => match node.cache.store(line) {
                            Some(v) => (Some(v), false),
                            None => (None, true),
                        },
                        Some(_) if write => (None, false), // shared copy: upgrade below
                        _ => (None, false),
                    }
                };
                if exclusive_store_refused {
                    st.invariant_failure("cache hit: exclusive line must accept the store");
                }
                if let Some(v) = hit {
                    if write && !speculative {
                        st.oracle.record_store(line, v);
                    }
                    st.finish_op(n, now, OpResult::Ok(None));
                    sched.after(
                        SimDuration::from_nanos(st.params.l2_hit_ns) + issue,
                        Ev::ProcNext(n),
                    );
                    return;
                }
                // Miss path: node-map check, then request to the home.
                let home = st.layout.home_of(line);
                if !st.nodes[n as usize].node_map.is_available(home) {
                    st.counters.incr(Counter::NodeMapBusErrors);
                    if speculative {
                        st.complete_discarded_speculation(n, sched);
                    } else {
                        st.complete_local_bus_error(n, BusError::DeadHome, sched);
                    }
                    return;
                }
                let epoch = {
                    let node = &mut st.nodes[n as usize];
                    node.op_epoch += 1;
                    node.naks.reset();
                    node.op_issued_at = now;
                    node.proc = ProcState::WaitMiss {
                        line,
                        write,
                        epoch: node.op_epoch,
                    };
                    node.op_epoch
                };
                sched.after(
                    SimDuration::from_nanos(st.params.magic.mem_op_timeout_ns),
                    Ev::Timeout { node: n, epoch },
                );
                let msg = st.write_request_for(n, line, write);
                st.send_coh(NodeId(n), home, msg, sched);
            }
            ProcOp::UncachedRead { dev } | ProcOp::UncachedWrite { dev, .. } => {
                let write = matches!(op, ProcOp::UncachedWrite { .. });
                if dev.0 == n {
                    // Local device access: immediate.
                    let node = &mut st.nodes[n as usize];
                    let value = if write {
                        if let ProcOp::UncachedWrite { value, .. } = op {
                            node.io_dev.write(value);
                        }
                        None
                    } else {
                        Some(node.io_dev.read())
                    };
                    st.finish_op(n, now, OpResult::Ok(value));
                    sched.after(
                        SimDuration::from_nanos(st.params.magic.costs.uncached_ns) + issue,
                        Ev::ProcNext(n),
                    );
                    return;
                }
                if !st.nodes[n as usize].node_map.is_available(dev) {
                    st.counters.incr(Counter::NodeMapBusErrors);
                    st.complete_local_bus_error(n, BusError::DeadHome, sched);
                    return;
                }
                let tag = st.fresh_unc_tag();
                let epoch = {
                    let node = &mut st.nodes[n as usize];
                    node.op_epoch += 1;
                    node.op_issued_at = now;
                    node.proc = ProcState::WaitUncached {
                        tag,
                        dev,
                        write,
                        epoch: node.op_epoch,
                    };
                    if !write {
                        node.uncached.begin_read(tag);
                    }
                    node.op_epoch
                };
                sched.after(
                    SimDuration::from_nanos(st.params.magic.mem_op_timeout_ns),
                    Ev::Timeout { node: n, epoch },
                );
                let msg = if write {
                    let value = match op {
                        ProcOp::UncachedWrite { value, .. } => value,
                        _ => 0,
                    };
                    UncMsg::WriteReq { tag, value }
                } else {
                    UncMsg::ReadReq { tag }
                };
                st.send_unc(NodeId(n), dev, msg, sched);
            }
        }
    }

    /// Services one delivered uncached-I/O message on node `n`.
    pub(super) fn process_unc<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        from: NodeId,
        msg: UncMsg,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let st = self;
        let now = sched.now();
        let costs = st.params.magic.costs;
        st.nodes[n as usize]
            .occupancy
            .occupy(now, SimDuration::from_nanos(costs.uncached_ns));
        match msg {
            UncMsg::ReadReq { tag } => {
                if st.nodes[n as usize].mode != MagicMode::Normal {
                    return; // consumed during recovery; requester is saved-read
                }
                if !st.nodes[n as usize].io_guard.allows(from) {
                    st.counters.incr(Counter::IoGuardDenials);
                    st.send_unc(NodeId(n), from, UncMsg::IoDenied { tag }, sched);
                    return;
                }
                let value = st.nodes[n as usize].io_dev.read();
                st.send_unc(NodeId(n), from, UncMsg::ReadReply { tag, value }, sched);
            }
            UncMsg::WriteReq { tag, value } => {
                if st.nodes[n as usize].mode != MagicMode::Normal {
                    return;
                }
                if !st.nodes[n as usize].io_guard.allows(from) {
                    st.counters.incr(Counter::IoGuardDenials);
                    st.send_unc(NodeId(n), from, UncMsg::IoDenied { tag }, sched);
                    return;
                }
                st.nodes[n as usize].io_dev.write(value);
                st.send_unc(NodeId(n), from, UncMsg::WriteAck { tag }, sched);
            }
            UncMsg::ReadReply { tag, value } => {
                let node = &mut st.nodes[n as usize];
                let waiting = matches!(node.proc, ProcState::WaitUncached { tag: t, write: false, .. } if t == tag);
                if waiting {
                    node.uncached.complete_read(tag);
                    node.lat_uncached.record(now.since(node.op_issued_at));
                    st.finish_op(n, now, OpResult::Ok(Some(value)));
                    sched.at(st.nodes[n as usize].occupancy.busy_until(), Ev::ProcNext(n));
                } else if node.uncached.deliver_late(tag, value) {
                    st.counters.incr(Counter::LateUncachedRepliesSaved);
                } else {
                    st.counters.incr(Counter::StaleUncachedReplies);
                }
            }
            UncMsg::WriteAck { tag } => {
                let waiting = matches!(st.nodes[n as usize].proc, ProcState::WaitUncached { tag: t, write: true, .. } if t == tag);
                if waiting {
                    st.finish_op(n, now, OpResult::Ok(None));
                    sched.at(st.nodes[n as usize].occupancy.busy_until(), Ev::ProcNext(n));
                }
            }
            UncMsg::IoDenied { tag } => {
                let waiting = matches!(st.nodes[n as usize].proc, ProcState::WaitUncached { tag: t, .. } if t == tag);
                if waiting {
                    st.finish_op(n, now, OpResult::BusError(BusError::ForeignUncachedIo));
                    sched.at(st.nodes[n as usize].occupancy.busy_until(), Ev::ProcNext(n));
                }
            }
        }
    }

    /// Reissues a NAK'd miss.
    pub(super) fn resend_miss<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        line: LineAddr,
        write: bool,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let home = self.layout.home_of(line);
        if !self.nodes[n as usize].node_map.is_available(home) {
            self.counters.incr(Counter::NodeMapBusErrors);
            self.complete_local_bus_error(n, BusError::DeadHome, sched);
            return;
        }
        let msg = self.write_request_for(n, line, write);
        self.send_coh(NodeId(n), home, msg, sched);
    }

    /// Completes an incorrectly speculated reference whose fault the
    /// processor discards: the workload sees a normal completion.
    pub(super) fn complete_discarded_speculation<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let now = sched.now();
        self.nodes[n as usize].current_is_speculative = false;
        self.finish_op(n, now, OpResult::Ok(None));
        self.counters.incr(Counter::SpeculativeFaultsDiscarded);
        let resume = self.nodes[n as usize].occupancy.busy_until().max(now);
        sched.at(resume, Ev::ProcNext(n));
    }

    /// Completes the current operation with a locally raised bus error.
    fn complete_local_bus_error<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        err: BusError,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        self.finish_op(n, sched.now(), OpResult::BusError(err));
        sched.after(
            SimDuration::from_nanos(self.params.proc_issue_ns),
            Ev::ProcNext(n),
        );
    }

    /// Chooses the request message for a (re)issued miss: reads use `Get`;
    /// writes use the 1-flit ownership `UpgradeReq` when a shared copy is
    /// still held (the home falls back to the full-data path if we are no
    /// longer a listed sharer), else a full `GetX`.
    fn write_request_for(&mut self, n: u16, line: LineAddr, write: bool) -> CohMsg {
        if !write {
            return CohMsg::Get { line };
        }
        match self.nodes[n as usize].cache.lookup(line) {
            Some(l) if !l.exclusive && self.params.upgrades_enabled => {
                self.counters.incr(Counter::UpgradeRequests);
                CohMsg::UpgradeReq { line }
            }
            Some(l) if !l.exclusive => {
                // Upgrades disabled (ablation): drop the copy and refetch.
                self.nodes[n as usize].cache.invalidate(line);
                CohMsg::GetX { line }
            }
            _ => CohMsg::GetX { line },
        }
    }
}
