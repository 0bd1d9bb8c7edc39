//! Experiment harness: builds a fault-contained machine, drives the
//! cache-fill workload of Section 5.2, injects a fault, runs the recovery
//! algorithm to completion and validates the result against the oracle.
//!
//! This is the engine behind the Table 5.3 validation suite and the
//! scalability figures (5.5 and 5.6); the Hive end-to-end experiments of
//! Table 5.4 / Figure 5.7 build on it from the `flash-hive` crate.

use crate::config::{RecoveryConfig, RecoveryReport};
use crate::ext::RecoveryExt;
use crate::lifecycle::{run_to_quiescence, warm_until};
use flash_machine::{FaultSpec, Machine, MachineParams, RandomFill, ValidationReport, Workload};
use flash_net::{NodeId, RouterId};
use flash_sim::{DetRng, SimDuration, SimTime};

/// A fault-contained machine: the substrate plus the recovery extension.
pub type FcMachine = Machine<RecoveryExt>;

/// Builds a machine with the recovery algorithm installed.
pub fn build_machine(
    params: MachineParams,
    recovery: RecoveryConfig,
    make_workload: impl FnMut(NodeId) -> Box<dyn Workload>,
    seed: u64,
) -> FcMachine {
    let ext = RecoveryExt::new(params.n_nodes, recovery);
    Machine::new(params, make_workload, ext, seed)
}

/// Configuration of one fault-injection experiment.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Machine configuration.
    pub params: MachineParams,
    /// Recovery-algorithm configuration.
    pub recovery: RecoveryConfig,
    /// Operations each processor completes before the fault is injected
    /// (the cache-fill prelude).
    pub fill_ops: u64,
    /// Total operations per processor (the remainder runs across and after
    /// the fault, providing the detection traffic and the post-recovery
    /// check accesses).
    pub total_ops: u64,
    /// Store fraction of the random accesses.
    pub write_fraction: f64,
    /// Random seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A small default experiment on the Table 5.1 machine.
    pub fn new(params: MachineParams, seed: u64) -> Self {
        ExperimentConfig {
            params,
            recovery: RecoveryConfig::default(),
            fill_ops: 2_000,
            total_ops: 4_000,
            write_fraction: 0.5,
            seed,
        }
    }
}

/// The outcome of one fault-injection experiment.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Oracle validation (over-marking / corruption checks).
    pub validation: ValidationReport,
    /// Recovery-algorithm summary (phase times, restarts, marked lines).
    pub recovery: RecoveryReport,
    /// Bus errors observed by the workloads (accesses to incoherent lines
    /// or failed homes after recovery).
    pub bus_errors: u64,
    /// Final simulated time.
    pub end_time: SimTime,
    /// Whether the experiment ran to quiescence within its budget.
    pub finished: bool,
    /// Trace records evicted from the bounded recorder rings during the run
    /// (0 means the captured trace is complete).
    pub trace_dropped: u64,
    /// FNV-1a hash of the merged structured trace at the end of the run
    /// ([`flash_obs::Recorder::merged_hash`]): the fork-determinism witness —
    /// a run forked from a warm checkpoint must hash identically to a
    /// from-scratch run with the same seeds.
    pub trace_hash: u64,
}

impl ExperimentOutcome {
    /// The overall pass criterion of the validation experiments: recovery
    /// completed and the oracle found neither over-marking nor corruption.
    pub fn passed(&self) -> bool {
        self.finished && self.recovery.completed() && self.validation.passed()
    }
}

/// Runs a complete fault-injection experiment (Section 5.2 methodology):
/// random cache fill → inject `fault` → distributed recovery → drain →
/// oracle validation.
pub fn run_fault_experiment(cfg: &ExperimentConfig, fault: FaultSpec) -> ExperimentOutcome {
    let m = prepare_fault_experiment(cfg);
    finish_fault_experiment(m, fault)
}

/// Builds the machine and runs the cache-fill prelude (Phase A): every
/// processor completes `cfg.fill_ops` operations with no fault armed.
///
/// The returned machine is warm and checkpointable: sweep harnesses call
/// [`flash_machine::Machine::checkpoint`] on it once and
/// [`flash_machine::Checkpoint::fork`] one fork per fault, amortizing the
/// fill across every run that shares `(params, seed)`. Composing this with
/// [`finish_fault_experiment`] is exactly [`run_fault_experiment`].
pub fn prepare_fault_experiment(cfg: &ExperimentConfig) -> FcMachine {
    let layout = cfg.params.layout();
    let protected = cfg.params.protected_lines;
    let (total_ops, write_fraction) = (cfg.total_ops, cfg.write_fraction);
    let mut m = build_machine(
        cfg.params,
        cfg.recovery,
        move |_| {
            Box::new(RandomFill::valid_system_range(
                total_ops,
                write_fraction,
                layout,
                protected,
            ))
        },
        cfg.seed,
    );
    m.set_event_budget(2_000_000_000);
    m.start();

    // Phase A: fill caches until every processor completed `fill_ops`.
    warm_until(&mut m, SimDuration::from_micros(20), |m| {
        m.st()
            .nodes
            .iter()
            .all(|n| n.workload.progress() >= cfg.fill_ops)
    });
    m
}

/// Injects `fault` into a warm machine (fresh from
/// [`prepare_fault_experiment`] or forked from its checkpoint), runs to
/// quiescence and validates against the oracle (Phases B and C).
pub fn finish_fault_experiment(mut m: FcMachine, fault: FaultSpec) -> ExperimentOutcome {
    // Phase B: inject the fault while the workload is running.
    let inject_at = m.now() + SimDuration::from_nanos(1);
    m.schedule_fault(inject_at, fault);

    // Phase C: run to quiescence (workload completion + recovery + drain).
    let finished = run_to_quiescence(&mut m, &mut true);

    ExperimentOutcome {
        validation: m.st().validate(),
        recovery: m.ext().report.clone(),
        bus_errors: m.st().counters.get("bus_errors"),
        end_time: m.now(),
        finished,
        trace_dropped: m.st().obs.dropped_total(),
        trace_hash: m.st().obs.merged_hash(),
    }
}

/// Draws a random single-fault specification of the given experiment type
/// (Table 5.2), avoiding node 0 as the direct victim so the machine always
/// keeps a survivor.
pub fn random_fault(kind: FaultKind, n_nodes: usize, rng: &mut DetRng) -> FaultSpec {
    let victim = {
        let v = 1 + rng.below(n_nodes as u64 - 1) as u16;
        move || NodeId(v)
    };
    match kind {
        FaultKind::Node => FaultSpec::Node(victim()),
        FaultKind::Router => FaultSpec::Router(RouterId(victim().0)),
        FaultKind::Link => {
            // Pick a random mesh-adjacent pair by drawing a victim and one
            // of its design neighbors; resolved by the caller's fabric, so
            // here we use the roughly-square mesh shape.
            let w = mesh_width(n_nodes);
            loop {
                let a = rng.below(n_nodes as u64) as u16;
                let (x, y) = (a as usize % w, a as usize / w);
                let mut nbrs = Vec::new();
                if x + 1 < w {
                    nbrs.push(a + 1);
                }
                if (y + 1) * w < n_nodes {
                    nbrs.push(a + w as u16);
                }
                if let Some(&b) = rng.choose(&nbrs) {
                    return FaultSpec::Link(RouterId(a), RouterId(b));
                }
            }
        }
        FaultKind::InfiniteLoop => FaultSpec::InfiniteLoop(victim()),
        FaultKind::FalseAlarm => FaultSpec::FalseAlarm(NodeId(rng.below(n_nodes as u64) as u16)),
    }
}

/// The width of the roughly-square mesh used for `n` nodes (matches
/// `Mesh2D::roughly_square`).
pub fn mesh_width(n: usize) -> usize {
    let mut best = (n, 1);
    let mut w = 1;
    while w * w <= n {
        if n.is_multiple_of(w) {
            best = (n / w, w);
        }
        w += 1;
    }
    best.0
}

/// The experiment fault types of Table 5.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// MAGIC fails; router stays up.
    Node,
    /// The router fails.
    Router,
    /// A link fails.
    Link,
    /// A MAGIC handler spins forever.
    InfiniteLoop,
    /// Recovery without a fault.
    FalseAlarm,
}

impl FaultKind {
    /// The five experiment fault types, in Table 5.2 order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Node,
        FaultKind::Router,
        FaultKind::Link,
        FaultKind::InfiniteLoop,
        FaultKind::FalseAlarm,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::RunOutcome;

    #[test]
    fn mesh_width_matches_roughly_square() {
        assert_eq!(mesh_width(8), 4);
        assert_eq!(mesh_width(16), 4);
        assert_eq!(mesh_width(128), 16);
        assert_eq!(mesh_width(2), 2);
    }

    #[test]
    fn heartbeat_detects_fault_after_workload_drain() {
        // A fail-stop fault firing after all traffic has drained is invisible
        // to timeout-based detection; the peers' heartbeat audit must catch
        // it, run recovery, and leave the oracle checks clean (no silently
        // lost dirty lines).
        let cfg = ExperimentConfig::new(flash_machine::MachineParams::tiny(), 7);
        let mut m = prepare_fault_experiment(&cfg);
        let out = m.run_until(m.now() + SimDuration::from_secs(20));
        assert_eq!(out, RunOutcome::Drained, "fault-free run should drain");
        assert!(m.ext().report.phases.triggered_at.is_none());

        m.schedule_fault(
            m.now() + SimDuration::from_nanos(1),
            FaultSpec::Node(NodeId(2)),
        );
        let out = m.run_until(m.now() + SimDuration::from_secs(20));
        assert_eq!(out, RunOutcome::Drained, "post-fault run should drain");
        assert!(
            m.st().counters.get("heartbeat_triggers") >= 1,
            "detection must have come from the heartbeat audit"
        );
        assert!(m.ext().report.completed(), "{:?}", m.ext().report);
        let v = m.st().validate();
        assert!(v.passed(), "{v:?}");
    }

    #[test]
    fn pool_failure_recovery_converges_without_watchdog_restarts() {
        // Three simultaneous dead nodes leave node 4 (CWN = {0, 5} on the
        // 4x2 mesh) stabilizing its view one dissemination round after its
        // partners. Without the final-view echo, the partners terminate
        // their rounds and node 4 waits forever for a round nobody sends —
        // the watchdog then restarts the episode into the same deadlock,
        // livelocking recovery until the run budget expires.
        let mut params = flash_machine::MachineParams::tiny();
        params.n_nodes = 8;
        let cfg = ExperimentConfig::new(params, 1);
        let m = prepare_fault_experiment(&cfg);
        let out = finish_fault_experiment(
            m,
            FaultSpec::PoolFailure {
                pool: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
        );
        assert!(out.finished, "recovery must converge: {:?}", out.recovery);
        assert!(out.recovery.completed(), "{:?}", out.recovery);
        assert_eq!(out.recovery.restarts, 0, "{:?}", out.recovery);
        assert!(out.validation.passed(), "{}", out.validation);
    }

    #[test]
    fn random_fault_avoids_node_zero_victims() {
        let mut rng = DetRng::new(1);
        for _ in 0..50 {
            match random_fault(FaultKind::Node, 8, &mut rng) {
                FaultSpec::Node(n) => assert_ne!(n, NodeId(0)),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn random_link_faults_are_mesh_adjacent() {
        let mut rng = DetRng::new(2);
        for _ in 0..50 {
            match random_fault(FaultKind::Link, 8, &mut rng) {
                FaultSpec::Link(a, b) => {
                    let w = mesh_width(8) as u16;
                    let diff = b.0.abs_diff(a.0);
                    assert!(diff == 1 || diff == w, "{a:?} {b:?}");
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
