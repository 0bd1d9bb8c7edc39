//! The campaign's fault injector: arms a schedule's events into a running
//! harness and keeps the books on what fired.

use crate::schedule::{FaultEvent, InjectAt, Mode, Schedule};
use flash_coherence::LineAddr;
use flash_core::{Faults, FcMachine};
use flash_hive::CellLayout;
use flash_machine::FaultSpec;
use flash_net::NodeId;
use flash_sim::{SimDuration, SimTime};

/// The fault side of one run.
///
/// Steady events are armed when the injector is built, at the injection
/// point. Phase-entry events wait until the recovery extension reports the
/// phase entered, then fire `delay_ns` after the end of the slice that saw
/// it. OS-window events fire where the harness has an OS recovery pass:
/// after the drive (Hive), at each post-recovery pass (KV), or as a late
/// steady fault (machine mode, which has no OS).
#[derive(Debug)]
pub(crate) struct Injector {
    mode: Mode,
    /// The cells of a celled harness: a victim's stray write aims at a
    /// foreign cell's boot node. Machine mode aims at node 0.
    cells: Option<CellLayout>,
    /// Every fault scheduled so far with its time, in arming order: the
    /// fired list (a drained run fired all of them; never-armed events did
    /// not happen).
    pub(crate) armed: Vec<(SimTime, FaultSpec)>,
    /// Phase-entry events not yet armed: (phase, delay_ns, fault).
    phase: Vec<(u8, u64, FaultSpec)>,
    /// OS-window events not yet armed, in schedule order.
    pub(crate) os: Vec<FaultSpec>,
    pub(crate) phase_hits: [u64; 4],
    pub(crate) os_recovery_hits: u64,
    /// Whether a node-dooming fault was armed. Such a fault is always
    /// detected: live traffic referencing the dead home times out,
    /// fail-fast assertions self-trigger, and when both are quiet the
    /// heartbeat audit raises the trigger within one heartbeat period — so
    /// the oracle never excuses an undetected fail-stop fault.
    pub(crate) detectable: bool,
}

impl Injector {
    /// Sorts `s`'s events and arms the steady ones at `m`'s current time.
    pub(crate) fn new(s: &Schedule, m: &mut FcMachine, cells: Option<CellLayout>) -> Injector {
        let mut inj = Injector {
            mode: s.mode,
            cells,
            armed: Vec::new(),
            phase: Vec::new(),
            os: Vec::new(),
            phase_hits: [0; 4],
            os_recovery_hits: 0,
            detectable: false,
        };
        let steady_base = m.now();
        for FaultEvent { at, fault } in &s.events {
            match *at {
                InjectAt::Steady { offset_ns } => {
                    let at = steady_base + SimDuration::from_nanos(1 + offset_ns);
                    inj.fire(m, at, fault.clone());
                }
                InjectAt::PhaseEntry { phase, delay_ns } => {
                    inj.phase.push((phase, delay_ns, fault.clone()));
                }
                InjectAt::DuringOsRecovery if s.mode == Mode::Machine => {
                    let at = steady_base + SimDuration::from_micros(600);
                    inj.fire(m, at, fault.clone());
                }
                InjectAt::DuringOsRecovery => inj.os.push(fault.clone()),
            }
        }
        inj
    }

    /// Schedules `fault` at `at` and models the dying master's stray write:
    /// one store aimed at the wild-write target's MAGIC-protected tail page,
    /// submitted to the target's firewall. With the firewall enabled the
    /// write is denied (containment); with it disabled — the deliberately
    /// seeded bug — the write lands and the oracle-based invariants must
    /// catch it.
    fn fire(&mut self, m: &mut FcMachine, at: SimTime, fault: FaultSpec) {
        m.schedule_fault(at, fault.clone());
        if let Some(&victim) = fault.doomed_nodes().first() {
            // A fixed foreign boot node keeps the model deterministic.
            let target = self.cells.as_ref().map_or(NodeId(0), |l| {
                l.boot_node(if l.cell_of(victim) == 0 { 1 } else { 0 })
            });
            let st = m.st_mut();
            let lpn = st.layout.lines_per_node();
            let line = LineAddr((target.index() as u64 + 1) * lpn - 1);
            let node = &mut st.nodes[target.index()];
            if node.firewall.may_write(line.page(), victim) {
                let v = node.dir.mem_version(line).next();
                node.dir.recovery_put(line, v);
                st.counters.incr("wild_writes_landed");
            } else {
                st.counters.incr("wild_writes_blocked");
            }
            self.detectable = true;
        }
        self.armed.push((at, fault));
    }

    /// Fires the next OS-window event 1 ns from now; returns whether it
    /// dooms nodes, or `None` when none is left.
    pub(crate) fn fire_os_event(&mut self, m: &mut FcMachine) -> Option<bool> {
        if self.os.is_empty() {
            return None;
        }
        let fault = self.os.remove(0);
        let dooms = !fault.doomed_nodes().is_empty();
        self.os_recovery_hits += 1;
        self.fire(m, m.now() + SimDuration::from_nanos(1), fault);
        Some(dooms)
    }
}

impl Faults for Injector {
    fn arm(&mut self, m: &mut FcMachine) {
        let entries = m.ext().phase_entries();
        let (due, waiting) = std::mem::take(&mut self.phase)
            .into_iter()
            .partition(|(phase, _, _)| entries.entered(*phase).is_some());
        self.phase = waiting;
        for (phase, delay_ns, fault) in due {
            self.phase_hits[phase as usize - 1] += 1;
            self.fire(m, m.now() + SimDuration::from_nanos(1 + delay_ns), fault);
        }
    }

    fn os_window(&mut self, m: &mut FcMachine) {
        while self.fire_os_event(m).is_some() {}
    }

    /// Hive's OS window opens after the drive, so only KV waits for it.
    fn pending(&self) -> bool {
        !self.phase.is_empty() || (self.mode == Mode::HiveKv && !self.os.is_empty())
    }

    fn fired(&self, now: SimTime) -> bool {
        self.armed.iter().all(|&(at, _)| now >= at)
    }

    fn undetected(&self, m: &FcMachine) -> bool {
        self.detectable && !m.ext().report.completed()
    }
}
