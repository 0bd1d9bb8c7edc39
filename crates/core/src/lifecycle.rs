//! The run lifecycle every harness shares: warm → arm → drive → judge.
//!
//! The Section 5.2 validation experiment, the Section 5.3 parallel make,
//! the KV serving workload and the chaos campaign all run the same way:
//! warm the workload to an injection point, arm faults, drive the machine
//! until the workload and recovery settle, then judge the final state.
//! This module holds the loops of that lifecycle and their limits, once:
//!
//! * [`warm_until`] runs slices until a caller-owned readiness predicate
//!   holds;
//! * [`drive`] runs [`DRIVE_SLICE`]s of a [`Harness`], arming faults
//!   between slices, until the workload settles, the machine drains or
//!   [`RUN_BUDGET`] runs out;
//! * [`run_to_quiescence`] is the validation experiment's drive: short
//!   steps while faults wait to be armed, then one run to the horizon;
//! * both drives return the run's [`RunEnd`], decided in one place from
//!   how the loop stopped and the recovery report at that moment;
//! * [`run_slices`] is the bounded slice loop behind [`warm_until`] and
//!   the Hive campaign's OS recovery window;
//! * [`run_indexed`] fans independent runs (campaign runs, sweep groups)
//!   across worker threads.
//!
//! Slice lengths are part of the trace, not tuning: a fault armed on a
//! recovery-phase entry is timed from the end of the slice that observed
//! the entry, so a different slice moves every such fault.

use crate::config::RecoveryReport;
use crate::experiment::FcMachine;
use flash_machine::ProcState;
use flash_net::NodeId;
use flash_sim::{RunOutcome, SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Simulated time a run gets after warm-up (and the most a warm-up gets).
pub const RUN_BUDGET: SimDuration = SimDuration::from_secs(20);

/// Slice length of [`drive`] and of the Hive and KV warm-ups.
pub const DRIVE_SLICE: SimDuration = SimDuration::from_micros(50);

/// Step length of [`run_to_quiescence`] while faults wait to be armed.
pub const ARM_STEP: SimDuration = SimDuration::from_micros(10);

/// How long a settled run keeps waiting for a fired detectable fault to be
/// detected and recovered: an unreferenced dead link can stay latent.
pub const DETECT_WAIT: SimDuration = SimDuration::from_millis(500);

/// How long a fault injected in the OS recovery window gets to be detected
/// and recovered before the OS pass resumes.
pub const OS_WINDOW_RECOVERY: SimDuration = SimDuration::from_secs(2);

/// How long the workload gets to settle after the OS recovery pass.
pub const SETTLE: SimDuration = SimDuration::from_millis(100);

/// A prepared experiment that [`drive`] can run.
pub trait Harness {
    /// The machine under test.
    fn machine(&self) -> &FcMachine;
    /// The machine under test, mutably.
    fn machine_mut(&mut self) -> &mut FcMachine;
    /// Whether every workload the run waits for reached a terminal state.
    fn workload_done(&self) -> bool;
    /// Runs after every slice; returns whether a post-recovery OS pass ran
    /// in it (the OS recovery window opened).
    fn after_slice(&mut self) -> bool {
        false
    }
}

/// The fault side of a drive: what to arm around each slice, and whether a
/// settled run should still wait for detection.
///
/// `bool` is the library harnesses' side: `true` when one fault was
/// scheduled before the drive, `false` for a fault-free run.
pub trait Faults {
    /// Arms faults that became due; runs before every slice.
    fn arm(&mut self, _m: &mut FcMachine) {}
    /// Arms the faults of the OS recovery window.
    fn os_window(&mut self, _m: &mut FcMachine) {}
    /// Whether faults remain to be armed.
    fn pending(&self) -> bool {
        false
    }
    /// Whether every armed fault has fired by `now`.
    fn fired(&self, _now: SimTime) -> bool {
        true
    }
    /// Whether a fault that must be detected has not been recovered yet.
    fn undetected(&self, m: &FcMachine) -> bool;
}

impl Faults for bool {
    fn undetected(&self, m: &FcMachine) -> bool {
        *self && !m.ext().report.completed()
    }
}

/// How a run ended: the one answer every harness gives to "did this run
/// finish?".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunEnd {
    /// The workload and recovery settled, or the machine drained with no
    /// triggered recovery left incomplete.
    Settled,
    /// The machine halted (the whole-machine shutdown heuristic fired)
    /// before the drive stopped.
    Halted,
    /// The machine drained while a triggered recovery never completed and
    /// the machine did not halt: a wedged fault cascade, e.g. recovery
    /// messages lost over dead links.
    Wedged,
    /// [`RUN_BUDGET`] ran out.
    OutOfBudget,
}

impl RunEnd {
    /// Whether the run reached a terminal state: [`RunEnd::Settled`] or
    /// [`RunEnd::Halted`].
    pub fn finished(self) -> bool {
        matches!(self, RunEnd::Settled | RunEnd::Halted)
    }

    /// Stable string tag (result sheets, JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            RunEnd::Settled => "settled",
            RunEnd::Halted => "halted",
            RunEnd::Wedged => "wedged",
            RunEnd::OutOfBudget => "out_of_budget",
        }
    }
}

/// Why a drive loop stopped, before the recovery report is read.
#[derive(Clone, Copy, Debug)]
enum Stop {
    /// The workload and recovery settled and every fault fired.
    Settled,
    /// The event queue drained first.
    Drained,
    /// [`RUN_BUDGET`] ran out.
    Budget,
}

/// The one place a run end is decided: the loop's stop, read against the
/// recovery report at that moment. A settled stop is always finished, even
/// when [`DETECT_WAIT`] ran out with recovery incomplete; only a drain can
/// wedge.
fn run_end(stop: Stop, report: &RecoveryReport) -> RunEnd {
    let incomplete = report.phases.triggered_at.is_some() && !report.completed();
    match stop {
        Stop::Budget => RunEnd::OutOfBudget,
        _ if report.machine_halted => RunEnd::Halted,
        Stop::Drained if incomplete => RunEnd::Wedged,
        _ => RunEnd::Settled,
    }
}

/// How many `slice`s fit in `limit`.
fn slices(limit: SimDuration, slice: SimDuration) -> u64 {
    limit.as_nanos() / slice.as_nanos()
}

/// Runs `slice`-long slices for at most `limit` of simulated time, until
/// `stop` holds after a slice. Returns whether it did.
pub fn run_slices(
    m: &mut FcMachine,
    slice: SimDuration,
    limit: SimDuration,
    mut stop: impl FnMut(&FcMachine, RunOutcome) -> bool,
) -> bool {
    (0..slices(limit, slice)).any(|_| {
        let out = m.run_for(slice);
        stop(m, out)
    })
}

/// Runs `slice`-long slices until `ready` holds, the machine drains or
/// [`RUN_BUDGET`] passes. `ready` is checked before the first slice, so
/// warming a warm machine runs nothing and warming rung by rung ends in the
/// state of one warm-up to the last rung.
pub fn warm_until(
    m: &mut FcMachine,
    slice: SimDuration,
    mut ready: impl FnMut(&FcMachine) -> bool,
) {
    if !ready(m) {
        run_slices(m, slice, RUN_BUDGET, |m, out| {
            ready(m) || out == RunOutcome::Drained
        });
    }
}

/// Drives `h` in [`DRIVE_SLICE`]s. Each slice: arm due faults, run, run
/// the harness's after-slice hook (opening the OS window when it ran a
/// post-recovery pass), then stop when the workload is done, recovery is
/// idle and every fault has fired, unless a fired fault still awaits
/// detection (up to [`DETECT_WAIT`]); or stop when the machine drained.
pub fn drive(h: &mut impl Harness, faults: &mut impl Faults) -> RunEnd {
    let mut detect_wait = slices(DETECT_WAIT, DRIVE_SLICE);
    for _ in 0..slices(RUN_BUDGET, DRIVE_SLICE) {
        faults.arm(h.machine_mut());
        let out = h.machine_mut().run_for(DRIVE_SLICE);
        if h.after_slice() {
            faults.os_window(h.machine_mut());
        }
        let m = h.machine();
        if h.workload_done()
            && !m.ext().recovery_active()
            && !faults.pending()
            && faults.fired(m.now())
        {
            if faults.undetected(m) && detect_wait > 0 {
                detect_wait -= 1;
                continue;
            }
            return run_end(Stop::Settled, &m.ext().report);
        }
        if out == RunOutcome::Drained {
            return run_end(Stop::Drained, &m.ext().report);
        }
    }
    run_end(Stop::Budget, &h.machine().ext().report)
}

/// Runs a warm validation machine to quiescence within [`RUN_BUDGET`]:
/// [`ARM_STEP`] steps while `faults` has faults left to arm, then one run
/// to the horizon. Only a drain ends the run within budget.
pub fn run_to_quiescence(m: &mut FcMachine, faults: &mut impl Faults) -> RunEnd {
    let horizon = m.now() + RUN_BUDGET;
    let stop = loop {
        faults.arm(m);
        if !faults.pending() {
            let drained = m.run_until(horizon) == RunOutcome::Drained;
            break if drained { Stop::Drained } else { Stop::Budget };
        }
        if m.run_for(ARM_STEP) == RunOutcome::Drained {
            break Stop::Drained;
        }
        if m.now() >= horizon {
            break Stop::Budget;
        }
    };
    run_end(stop, &m.ext().report)
}

/// Whether every node in `nodes` is dead or its processor stopped (halted
/// or dead): the terminal state of a compile or a KV shard.
pub fn all_terminal(m: &FcMachine, nodes: &[NodeId]) -> bool {
    nodes.iter().all(|n| {
        let node = &m.st().nodes[n.index()];
        !node.is_alive() || matches!(node.proc, ProcState::Halted | ProcState::Dead)
    })
}

/// Summed workload progress of `nodes`.
pub fn total_progress(m: &FcMachine, nodes: &[NodeId]) -> u64 {
    nodes
        .iter()
        .map(|n| m.st().nodes[n.index()].workload.progress())
        .sum()
}

/// Runs `run(i)` for every `i < n` on up to `workers` threads that claim
/// indices from a shared counter, and returns the results in index order,
/// so the output is the same whatever the worker count.
pub fn run_indexed<R: Send>(workers: usize, n: usize, run: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("run slot lock") = Some(run(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("run slot lock")
                .expect("every index ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::SimTime;

    /// Every (stop, triggered, completed, halted) row of the classifier,
    /// with the run end it must give.
    #[test]
    fn run_end_table_matches_the_kv_campaign_rule() {
        use RunEnd::*;
        #[rustfmt::skip]
        let rows = [
            // stop           triggered completed halted  end
            (Stop::Settled, false, false, false, Settled),
            (Stop::Settled, false, false, true,  Halted),
            (Stop::Settled, false, true,  false, Settled),
            (Stop::Settled, false, true,  true,  Halted),
            (Stop::Settled, true,  false, false, Settled),
            (Stop::Settled, true,  false, true,  Halted),
            (Stop::Settled, true,  true,  false, Settled),
            (Stop::Settled, true,  true,  true,  Halted),
            (Stop::Drained, false, false, false, Settled),
            (Stop::Drained, false, false, true,  Halted),
            (Stop::Drained, false, true,  false, Settled),
            (Stop::Drained, false, true,  true,  Halted),
            (Stop::Drained, true,  false, false, Wedged),
            (Stop::Drained, true,  false, true,  Halted),
            (Stop::Drained, true,  true,  false, Settled),
            (Stop::Drained, true,  true,  true,  Halted),
            (Stop::Budget,  false, false, false, OutOfBudget),
            (Stop::Budget,  false, false, true,  OutOfBudget),
            (Stop::Budget,  false, true,  false, OutOfBudget),
            (Stop::Budget,  false, true,  true,  OutOfBudget),
            (Stop::Budget,  true,  false, false, OutOfBudget),
            (Stop::Budget,  true,  false, true,  OutOfBudget),
            (Stop::Budget,  true,  true,  false, OutOfBudget),
            (Stop::Budget,  true,  true,  true,  OutOfBudget),
        ];
        // The KV campaign mode's rule before `RunEnd`: a settled drive
        // finished, an exhausted budget did not, and a drain finished only
        // if the machine halted, recovery never triggered, or it completed.
        let kv_rule = |stop, triggered: bool, completed: bool, halted: bool| match stop {
            Stop::Settled => true,
            Stop::Budget => false,
            Stop::Drained => halted || !triggered || completed,
        };
        let at = Some(SimTime::from_nanos(1));
        for (stop, triggered, completed, halted, end) in rows {
            let mut report = RecoveryReport {
                machine_halted: halted,
                ..RecoveryReport::default()
            };
            report.phases.triggered_at = at.filter(|_| triggered);
            report.phases.p4_done = at.filter(|_| completed);
            let row = (stop, triggered, completed, halted);
            assert_eq!(run_end(stop, &report), end, "{row:?}");
            assert_eq!(
                end.finished(),
                kv_rule(stop, triggered, completed, halted),
                "{row:?}"
            );
        }
    }
}
