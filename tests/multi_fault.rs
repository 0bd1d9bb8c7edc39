//! Compound faults and faults during recovery: the algorithm restarts under
//! a higher incarnation and still validates (paper, Section 4.1: "The
//! algorithm is able to cope with additional hardware failures that occur
//! during its execution by restarting whenever a new fault is detected").

use flash::core::{run_fault_experiment, ExperimentConfig};
use flash::machine::{FaultSpec, MachineParams};
use flash::net::{NodeId, RouterId};
use flash::sim::SimDuration;

fn cfg_8(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), seed);
    cfg.fill_ops = 400;
    cfg.total_ops = 1_200;
    cfg
}

#[test]
fn simultaneous_double_node_failure() {
    let fault = FaultSpec::Multi(vec![FaultSpec::Node(NodeId(2)), FaultSpec::Node(NodeId(5))]);
    let out = run_fault_experiment(&cfg_8(21), fault);
    assert!(out.passed(), "{:?} / {}", out.recovery, out.validation);
    assert_eq!(out.recovery.nodes_resumed, 6);
}

#[test]
fn cabinet_power_loss() {
    // Two adjacent nodes lose controllers AND routers (the survivors stay
    // connected: the paper's recovery algorithm assumes no partition).
    let fault = FaultSpec::Multi(vec![
        FaultSpec::Node(NodeId(5)),
        FaultSpec::Router(RouterId(5)),
        FaultSpec::Node(NodeId(6)),
        FaultSpec::Router(RouterId(6)),
    ]);
    let out = run_fault_experiment(&cfg_8(22), fault);
    assert!(out.passed(), "{:?} / {}", out.recovery, out.validation);
    assert_eq!(out.recovery.nodes_resumed, 6);
}

#[test]
fn partitioning_fault_halts_minority_side() {
    // Routers 5 and 6 die AND the 0-1 link is cut: nodes {0, 4} are
    // partitioned from {1, 2, 3, 7}. The paper assumes partitions do not
    // occur but suggests a shutdown heuristic; our quorum rule halts the
    // minority side while the majority recovers and continues. Data shared
    // across the partition is conservatively marked incoherent, so no
    // silent corruption is possible.
    let fault = FaultSpec::Multi(vec![
        FaultSpec::Node(NodeId(5)),
        FaultSpec::Router(RouterId(5)),
        FaultSpec::Node(NodeId(6)),
        FaultSpec::Router(RouterId(6)),
        FaultSpec::Link(RouterId(0), RouterId(1)),
    ]);
    let out = run_fault_experiment(&cfg_8(26), fault);
    assert!(
        out.recovery.machine_halted,
        "minority side halted: {:?}",
        out.recovery
    );
    assert!(
        out.recovery.completed(),
        "majority side recovered: {:?}",
        out.recovery
    );
    assert!(
        out.validation.corrupted.is_empty(),
        "never silent corruption"
    );
}

#[test]
fn node_and_link_combination() {
    let fault = FaultSpec::Multi(vec![
        FaultSpec::InfiniteLoop(NodeId(3)),
        FaultSpec::Link(RouterId(6), RouterId(7)),
    ]);
    let out = run_fault_experiment(&cfg_8(23), fault);
    assert!(out.passed(), "{:?} / {}", out.recovery, out.validation);
}

#[test]
fn second_fault_during_recovery_restarts() {
    use flash::core::{build_machine, RecoveryConfig};
    use flash::machine::RandomFill;

    let params = MachineParams::table_5_1();
    let layout = params.layout();
    let mut m = build_machine(
        params,
        RecoveryConfig::default(),
        move |_| Box::new(RandomFill::valid_system_range(3_000, 0.5, layout)),
        24,
    );
    m.start();
    m.run_for(SimDuration::from_micros(300));
    // First fault.
    m.schedule_fault(
        m.now() + SimDuration::from_nanos(1),
        FaultSpec::Node(NodeId(2)),
    );
    // Second fault lands in the middle of the first recovery (detection at
    // ~100us + recovery taking several ms).
    m.schedule_fault(
        m.now() + SimDuration::from_millis(2),
        FaultSpec::Node(NodeId(6)),
    );
    m.run_until(flash::sim::SimTime::MAX);
    let report = &m.ext().report;
    assert!(report.completed(), "{report:?}");
    assert_eq!(report.nodes_resumed, 6, "{report:?}");
    let validation = m.st().validate();
    assert!(validation.passed(), "{validation}");
    // Both dead nodes are gone from every survivor's node map.
    for n in m.st().nodes.iter().filter(|n| n.is_alive()) {
        assert!(!n.node_map.is_available(NodeId(2)));
        assert!(!n.node_map.is_available(NodeId(6)));
    }
}

#[test]
fn majority_failure_halts_machine() {
    // Killing more than half the nodes trips the split-brain heuristic.
    let fault = FaultSpec::Multi((1..=5).map(|i| FaultSpec::Node(NodeId(i))).collect());
    let out = run_fault_experiment(&cfg_8(25), fault);
    assert!(out.recovery.machine_halted, "{:?}", out.recovery);
}

#[test]
fn firmware_assertion_fails_fast_and_recovers() {
    // The assertion trigger spreads the wave from the dying controller
    // itself — detection is near-instant instead of timeout-bound.
    let out = run_fault_experiment(&cfg_8(27), FaultSpec::FirmwareAssertion(NodeId(4)));
    assert!(out.passed(), "{:?} / {}", out.recovery, out.validation);
    assert_eq!(out.recovery.nodes_resumed, 7);
    // The dying gasp makes the wave complete far faster than the 100us
    // memory-op timeout that drives detection of silent node deaths.
    let wave = out.recovery.trigger_wave_time().unwrap();
    assert!(
        wave < flash::sim::SimDuration::from_micros(50),
        "assertion-driven wave should beat timeout detection: {wave}"
    );
}
