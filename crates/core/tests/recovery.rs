//! End-to-end tests of the four-phase recovery algorithm on small machines.

use flash_core::{
    build_machine, run_fault_experiment, run_to_quiescence, ExperimentConfig, FaultKind,
    RecoveryConfig,
};
use flash_machine::{FaultSpec, MachineParams, OpResult, ProcOp, Script};
use flash_magic::BusError;
use flash_net::{NodeId, RouterId};
use flash_sim::SimTime;

fn tiny_cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(MachineParams::tiny(), seed);
    cfg.fill_ops = 150;
    cfg.total_ops = 400;
    cfg
}

#[test]
fn node_failure_recovers_and_validates() {
    let outcome = run_fault_experiment(&tiny_cfg(1), FaultSpec::Node(NodeId(2)));
    assert!(outcome.finished, "machine quiesced");
    assert!(
        outcome.recovery.completed(),
        "recovery ran: {:?}",
        outcome.recovery
    );
    assert!(
        outcome.validation.passed(),
        "validation: {} overmarked={:?} corrupted={:?}",
        outcome.validation,
        &outcome.validation.overmarked[..outcome.validation.overmarked.len().min(5)],
        &outcome.validation.corrupted[..outcome.validation.corrupted.len().min(5)],
    );
    assert_eq!(outcome.recovery.nodes_resumed, 3);
    assert!(!outcome.recovery.machine_halted);
}

#[test]
fn router_failure_recovers_and_validates() {
    let outcome = run_fault_experiment(&tiny_cfg(2), FaultSpec::Router(RouterId(1)));
    assert!(
        outcome.passed(),
        "{:?} / {}",
        outcome.recovery,
        outcome.validation
    );
}

#[test]
fn link_failure_recovers_and_validates() {
    let outcome = run_fault_experiment(&tiny_cfg(3), FaultSpec::Link(RouterId(0), RouterId(1)));
    assert!(
        outcome.passed(),
        "{:?} / {}",
        outcome.recovery,
        outcome.validation
    );
    // No node died: everyone resumes.
    assert_eq!(outcome.recovery.nodes_resumed, 4);
}

#[test]
fn infinite_loop_recovers_and_validates() {
    let outcome = run_fault_experiment(&tiny_cfg(4), FaultSpec::InfiniteLoop(NodeId(3)));
    assert!(
        outcome.passed(),
        "{:?} / {}",
        outcome.recovery,
        outcome.validation
    );
    assert_eq!(outcome.recovery.nodes_resumed, 3);
}

#[test]
fn false_alarm_causes_no_data_loss() {
    let outcome = run_fault_experiment(&tiny_cfg(5), FaultSpec::FalseAlarm(NodeId(0)));
    assert!(
        outcome.passed(),
        "{:?} / {}",
        outcome.recovery,
        outcome.validation
    );
    // The sole effect of a false alarm is a brief interruption: nothing is
    // marked incoherent and all nodes resume.
    assert_eq!(outcome.recovery.lines_marked_incoherent, 0);
    assert_eq!(outcome.recovery.nodes_resumed, 4);
    assert_eq!(outcome.validation.marked_incoherent, 0);
}

#[test]
fn all_fault_kinds_on_table_5_1_machine() {
    // One run of each fault type on the paper's 8-node configuration.
    for (i, kind) in FaultKind::ALL.iter().enumerate() {
        let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), 100 + i as u64);
        cfg.fill_ops = 300;
        cfg.total_ops = 800;
        let fault = match kind {
            FaultKind::Node => FaultSpec::Node(NodeId(5)),
            FaultKind::Router => FaultSpec::Router(RouterId(6)),
            FaultKind::Link => FaultSpec::Link(RouterId(1), RouterId(2)),
            FaultKind::InfiniteLoop => FaultSpec::InfiniteLoop(NodeId(3)),
            FaultKind::FalseAlarm => FaultSpec::FalseAlarm(NodeId(2)),
        };
        let outcome = run_fault_experiment(&cfg, fault);
        assert!(
            outcome.passed(),
            "{kind:?}: finished={} recovery={:?} validation={}",
            outcome.finished,
            outcome.recovery,
            outcome.validation
        );
    }
}

#[test]
fn phase_times_are_ordered() {
    let outcome = run_fault_experiment(&tiny_cfg(7), FaultSpec::Node(NodeId(1)));
    let p = outcome.recovery.phases;
    let (p1, p12, p13, total) = (
        p.p1().unwrap(),
        p.p1_2().unwrap(),
        p.p1_3().unwrap(),
        p.total().unwrap(),
    );
    assert!(p1 <= p12 && p12 <= p13 && p13 <= total);
    assert!(total.as_millis_f64() > 0.0);
}

/// An uncached read still outstanding when its device node dies is saved
/// at recovery initiation and, with no reply ever arriving, completes after
/// recovery as `UncachedUnresolved`. That bus error counts on the machine
/// as well as on the node, like every other bus error.
#[test]
fn unresolved_saved_read_counts_as_a_machine_bus_error() {
    let dev = NodeId(2);
    let mut m = build_machine(
        MachineParams::tiny(),
        RecoveryConfig::default(),
        |n| {
            let ops = if n == NodeId(1) {
                vec![ProcOp::UncachedRead { dev }]
            } else {
                vec![]
            };
            Box::new(Script::new(ops))
        },
        3,
    );
    m.start();
    // Node 1 issues at 1 ns; its request is still in the fabric when the
    // device node fails.
    m.schedule_fault(SimTime::from_nanos(2), FaultSpec::Node(dev));
    assert!(run_to_quiescence(&mut m, &mut true), "machine quiesced");
    assert!(m.ext().report.completed(), "{:?}", m.ext().report);
    let script = m.st().nodes[1]
        .workload
        .as_any()
        .and_then(|w| w.downcast_ref::<Script>())
        .expect("node 1 runs a script");
    assert_eq!(
        script.results(),
        [OpResult::BusError(BusError::UncachedUnresolved)]
    );
    let node_errors: u64 = m.st().nodes.iter().map(|n| n.bus_errors).sum();
    assert_eq!(node_errors, 1);
    assert_eq!(m.st().counters.get("bus_errors"), node_errors);
}
