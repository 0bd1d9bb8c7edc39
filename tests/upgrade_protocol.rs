//! The ownership-upgrade optimization: a store hitting a held shared copy
//! sends a 1-flit `UpgradeReq` instead of refetching 9 flits of data, with
//! fallback to the full path when the copy was concurrently invalidated.

use flash::coherence::{DirState, LineAddr};
use flash::core::{build_machine, RecoveryConfig};
use flash::machine::{FaultSpec, MachineParams, ProcOp, Script, Workload};
use flash::net::NodeId;
use flash::sim::SimTime;

#[test]
fn store_to_shared_copy_upgrades_in_place() {
    let line = LineAddr(100); // homed on node 0
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        if n == NodeId(2) {
            Box::new(Script::new([
                ProcOp::Read(line),  // install shared
                ProcOp::Write(line), // upgrade, no data transfer
            ]))
        } else {
            Box::new(Script::new([]))
        }
    };
    let mut m = build_machine(MachineParams::tiny(), RecoveryConfig::default(), mk, 71);
    m.start();
    m.run_until(SimTime::MAX);
    assert_eq!(m.st().counters.get("upgrade_requests"), 1);
    assert_eq!(m.st().counters.get("upgrade_ack_without_copy"), 0);
    let c = m.st().nodes[2].cache.lookup(line).expect("still cached");
    assert!(c.exclusive);
    assert_eq!(c.version.0, 1, "the store committed on the upgraded copy");
    assert_eq!(
        m.st().nodes[0].dir.state(line),
        DirState::Exclusive(NodeId(2))
    );
    assert_eq!(m.st().oracle.expected_version(line).0, 1);
}

#[test]
fn upgrade_invalidates_other_sharers_first() {
    let line = LineAddr(200);
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        match n.0 {
            1 => Box::new(Script::new([ProcOp::Read(line)])),
            3 => Box::new(Script::new([ProcOp::Read(line)])),
            2 => Box::new(Script::new([
                ProcOp::Read(line),
                ProcOp::Compute(100_000), // let 1 and 3 join the sharer set
                ProcOp::Write(line),
            ])),
            _ => Box::new(Script::new([])),
        }
    };
    let mut m = build_machine(MachineParams::tiny(), RecoveryConfig::default(), mk, 72);
    m.start();
    m.run_until(SimTime::MAX);
    assert!(m.st().counters.get("upgrade_requests") >= 1);
    assert!(
        m.st().nodes[1].cache.lookup(line).is_none(),
        "sharer 1 invalidated"
    );
    assert!(
        m.st().nodes[3].cache.lookup(line).is_none(),
        "sharer 3 invalidated"
    );
    assert_eq!(
        m.st().nodes[0].dir.state(line),
        DirState::Exclusive(NodeId(2))
    );
    assert_eq!(m.st().oracle.expected_version(line).0, 1);
}

#[test]
fn concurrent_upgrades_race_safely() {
    // Both node 1 and node 2 hold the line shared and upgrade
    // "simultaneously": the home serializes them; the loser's copy is
    // invalidated mid-flight and its request falls back to the full-data
    // path (possibly after NAK retries against the transient state).
    let line = LineAddr(300);
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        match n.0 {
            1 | 2 => Box::new(Script::new([
                ProcOp::Read(line),
                ProcOp::Compute(50_000),
                ProcOp::Write(line),
                ProcOp::Write(line),
            ])),
            _ => Box::new(Script::new([])),
        }
    };
    let mut m = build_machine(MachineParams::tiny(), RecoveryConfig::default(), mk, 73);
    m.start();
    m.run_until(SimTime::MAX);
    // Four stores committed in total, whatever the interleaving.
    assert_eq!(m.st().oracle.expected_version(line).0, 4);
    let v = m.st().validate();
    assert!(v.passed(), "{v}");
}

#[test]
fn upgrade_across_recovery_validates() {
    // Upgrades in flight while a node dies: recovery must neither lose the
    // stored data nor strand a cancelled upgrade's ownership.
    let params = MachineParams::table_5_1();
    let layout = params.layout();
    let mut m = build_machine(
        params,
        RecoveryConfig::default(),
        move |_| {
            // Heavy read-then-write reuse maximizes upgrade traffic.
            Box::new(flash::machine::RandomFill::valid_system_range(
                3_000, 0.6, layout,
            ))
        },
        74,
    );
    m.start();
    m.run_for(flash::sim::SimDuration::from_micros(400));
    m.schedule_fault(
        m.now() + flash::sim::SimDuration::from_nanos(1),
        FaultSpec::Node(NodeId(5)),
    );
    m.run_until(SimTime::MAX);
    assert!(m.ext().report.completed());
    let v = m.st().validate();
    assert!(v.passed(), "{v}");
    assert!(
        m.st().counters.get("upgrade_requests") > 0,
        "upgrades exercised"
    );
}
