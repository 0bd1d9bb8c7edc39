//! Fault arming: the injector's ground-truth mutation of the machine
//! ([`MachineState::apply_fault`]) and the dispatch-side handler that
//! routes the accompanying triggers to the extension.

use super::world::MachineWorld;
use super::{Ev, Extension, MachineState};
use crate::fault::FaultSpec;
use crate::node::{DegradedRange, ProcState};
use flash_coherence::LineAddr;
use flash_magic::{MagicMode, Trigger};
use flash_net::NodeId;
use flash_obs::{Counter, Domain, TraceEvent};
use flash_sim::{Scheduler, SimDuration, SimTime};

impl<R: Clone + std::fmt::Debug> MachineState<R> {
    /// Applies a fault (ground-truth mutation + oracle bookkeeping).
    /// False alarms are *not* applied here — the dispatcher routes them to
    /// the extension as a [`Trigger::FalseAlarm`].
    pub fn apply_fault(&mut self, spec: &FaultSpec, now: SimTime) {
        for victim in spec.doomed_nodes() {
            // Every line held exclusive (dirty) by the victim may become
            // incoherent, whatever the relative timing of snapshots and
            // recovery phases.
            let dirty: Vec<LineAddr> = self.nodes[victim.index()]
                .cache
                .iter()
                .filter(|l| l.exclusive)
                .map(|l| l.addr)
                .collect();
            for line in dirty {
                self.oracle.allow_incoherent(line);
            }
        }
        match spec {
            FaultSpec::Node(n) => {
                self.kill_node(*n);
            }
            FaultSpec::Router(r) => {
                self.fabric.fail_router(*r, now);
                self.kill_node(NodeId(r.0));
            }
            FaultSpec::Link(a, b) => {
                let ok = self.fabric.fail_link_between(*a, *b, now);
                assert!(ok, "link fault on non-adjacent routers");
            }
            FaultSpec::InfiniteLoop(n) => {
                self.failed_nodes.insert(*n);
                let node = &mut self.nodes[n.index()];
                node.mode = MagicMode::InfiniteLoop;
                // The processor spins forever on its current access.
            }
            FaultSpec::FirmwareAssertion(_) => {
                // Physical effect applied by the dispatcher after the
                // fail-fast controller has raised its own trigger.
            }
            FaultSpec::FalseAlarm(_) => {}
            FaultSpec::FailSlow(n, factor) => {
                // Gray fault: the node stays alive and coherent, but every
                // MAGIC service it performs takes `factor`× as long. Factor
                // below 2 would be indistinguishable from nominal jitter.
                self.nodes[n.index()]
                    .occupancy
                    .set_slowdown((*factor).max(2));
            }
            FaultSpec::DegradedMemory(n, pct, extra_ns) => {
                let lpn = self.layout.lines_per_node();
                let lines = (lpn * u64::from((*pct).min(100))).div_ceil(100).max(1);
                self.nodes[n.index()].degraded = Some(DegradedRange {
                    lines,
                    extra_ns: *extra_ns,
                    accesses: 0,
                });
            }
            FaultSpec::LossyLink(a, b, ppm) => {
                let ok = self.fabric.set_link_loss_between(*a, *b, *ppm);
                assert!(ok, "lossy-link fault on non-adjacent routers");
            }
            FaultSpec::PoolFailure { pool } => {
                // One failed memory pool dooms every compute node attached
                // to it — the inverted blast radius of disaggregated memory.
                for n in pool {
                    self.kill_node(*n);
                }
            }
            FaultSpec::Multi(list) => {
                for f in list {
                    self.apply_fault(f, now);
                }
            }
        }
    }

    /// Fail-stop one node: ground-truth bookkeeping, MAGIC + processor dead,
    /// and the fabric swallows traffic addressed to it.
    fn kill_node(&mut self, n: NodeId) {
        self.failed_nodes.insert(n);
        let node = &mut self.nodes[n.index()];
        node.mode = MagicMode::Dead;
        node.proc = ProcState::Dead;
        self.fabric.set_node_sink(n, true);
    }
}

/// Fault-injection event handling on [`MachineWorld`] (the injected fault's
/// triggers are delivered to the extension).
impl<X: Extension> MachineWorld<X> {
    /// Services an `Ev::Fault`: applies the physical effect and raises the
    /// triggers the fault's detection produces.
    pub(super) fn handle_fault(&mut self, spec: FaultSpec, sched: &mut Scheduler<'_, Ev<X::Ev>>) {
        self.st.counters.incr(Counter::FaultsInjected);
        let mut singles: Vec<&FaultSpec> = Vec::new();
        match &spec {
            FaultSpec::Multi(list) => singles.extend(list.iter()),
            other => singles.push(other),
        }
        for f in &singles {
            self.st.obs.record(
                Domain::Machine,
                sched.now(),
                TraceEvent::FaultInjected {
                    kind: f.kind_str(),
                    node: f.primary_node(),
                },
            );
        }
        self.st.apply_fault(&spec, sched.now());
        for f in singles {
            match f {
                FaultSpec::FalseAlarm(n) => {
                    self.ext
                        .on_trigger(&mut self.st, *n, Trigger::FalseAlarm, sched);
                }
                FaultSpec::FirmwareAssertion(n) => {
                    // Fail-fast: the controller raises the trigger, its
                    // dying-gasp pings spread the wave, and a microsecond
                    // later it halts for good.
                    self.ext
                        .on_trigger(&mut self.st, *n, Trigger::AssertionFailure, sched);
                    let halt = Box::new(FaultSpec::Node(*n));
                    sched.after(SimDuration::from_micros(1), Ev::Fault(halt));
                }
                _ => {}
            }
        }
        // A node-dooming fault arms a heartbeat audit: even when no
        // outstanding memory operation will ever reference the victims
        // (workload drained, or every trigger was swallowed by a dead
        // controller), the peers' periodic MAGIC-to-MAGIC pings notice the
        // failure within one heartbeat period (Section 4.2).
        let victims: Box<[u16]> = spec.doomed_nodes().iter().map(|n| n.0).collect();
        if !victims.is_empty() {
            let period = SimDuration::from_nanos(self.st.params.magic.heartbeat_timeout_ns.max(1));
            sched.after(period, Ev::Heartbeat { victims });
        }
    }
}
