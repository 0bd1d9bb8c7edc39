//! End-to-end checks of the containment features' externally visible
//! behaviour: bus errors on incoherent lines and dead homes after recovery,
//! firewall denial of cross-cell writes, and exactly-once uncached I/O
//! across a recovery.

use flash::coherence::{DirState, LineAddr};
use flash::core::{build_machine, RecoveryConfig};
use flash::machine::{FaultSpec, MachineParams, OpResult, ProcOp, ProcState, Script, Workload};
use flash::magic::BusError;
use flash::net::NodeId;
use flash::sim::{SimDuration, SimTime};

const LPN: u64 = 8192; // lines per node in the tiny config

fn tiny() -> MachineParams {
    MachineParams::tiny()
}

fn script_results(m: &flash::core::FcMachine, node: NodeId) -> Vec<OpResult> {
    m.st().nodes[node.index()]
        .workload
        .as_any()
        .and_then(|a| a.downcast_ref::<Script>())
        .map(|s| s.results().to_vec())
        .unwrap_or_default()
}

#[test]
fn post_recovery_accesses_bus_error_correctly() {
    // Node 1 dirties line L (homed on node 0) and then dies: L becomes
    // incoherent. Node 3 then touches node 1's memory (detection +
    // DeadHome error) and L (Incoherent error).
    let line_l = LineAddr(100); // homed on node 0
    let dead_home_line = LineAddr(LPN + 50); // homed on node 1
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        match n.0 {
            1 => Box::new(Script::new([ProcOp::Write(line_l)])),
            3 => Box::new(Script::new([
                ProcOp::Compute(1_000_000),   // let the write land and the fault hit
                ProcOp::Read(dead_home_line), // times out -> triggers recovery
                ProcOp::Read(line_l),         // incoherent after recovery
                ProcOp::Read(LineAddr(200)),  // untouched line still works
            ])),
            _ => Box::new(Script::new([])),
        }
    };
    let mut m = build_machine(tiny(), RecoveryConfig::default(), mk, 11);
    m.start();
    m.schedule_fault(SimTime::from_nanos(500_000), FaultSpec::Node(NodeId(1)));
    m.run_until(SimTime::MAX);

    // L was dirty only on the dead node: marked incoherent at its home.
    assert_eq!(m.st().nodes[0].dir.state(line_l), DirState::Incoherent);

    let results = script_results(&m, NodeId(3));
    assert_eq!(results.len(), 4, "all four ops completed: {results:?}");
    assert!(matches!(results[0], OpResult::Ok(_)));
    assert_eq!(results[1], OpResult::BusError(BusError::DeadHome));
    assert_eq!(results[2], OpResult::BusError(BusError::Incoherent));
    assert!(matches!(results[3], OpResult::Ok(_)));
    assert!(matches!(m.st().proc_state(NodeId(3)), ProcState::Halted));
}

#[test]
fn firewall_blocks_cross_cell_write_after_hive_setup() {
    use flash::hive::CellLayout;

    let mut m = build_machine(
        tiny(),
        RecoveryConfig::default(),
        |n: NodeId| -> Box<dyn Workload> {
            if n == NodeId(2) {
                // Write into node 0's memory: firewall-restricted to cell 0.
                Box::new(Script::new([ProcOp::Write(LineAddr(300))]))
            } else {
                Box::new(Script::new([]))
            }
        },
        12,
    );
    let layout = CellLayout::contiguous(4, 4);
    flash::hive::os::configure(&mut m, &layout);
    m.start();
    m.run_until(SimTime::MAX);
    let results = script_results(&m, NodeId(2));
    assert_eq!(results, vec![OpResult::BusError(BusError::FirewallDenied)]);
    // The line was never granted exclusive.
    assert_eq!(m.st().nodes[0].dir.state(LineAddr(300)), DirState::Uncached);
}

#[test]
fn uncached_io_is_exactly_once_across_recovery() {
    // Node 2 performs uncached reads against node 0's device while node 3
    // dies mid-run. The device register counts every read: no read may be
    // duplicated by the recovery machinery.
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        match n.0 {
            2 => {
                let mut ops = vec![ProcOp::Compute(100_000)];
                for _ in 0..20 {
                    ops.push(ProcOp::UncachedRead { dev: NodeId(0) });
                    ops.push(ProcOp::Compute(200_000));
                }
                Box::new(Script::new(ops))
            }
            1 => Box::new(Script::new(
                // Provides detection traffic toward node 3.
                (0..50).map(|i| {
                    if i % 2 == 0 {
                        ProcOp::Read(LineAddr(3 * LPN + 40 + i))
                    } else {
                        ProcOp::Compute(100_000)
                    }
                }),
            )),
            _ => Box::new(Script::new([])),
        }
    };
    let mut m = build_machine(tiny(), RecoveryConfig::default(), mk, 13);
    m.start();
    m.schedule_fault(SimTime::from_nanos(700_000), FaultSpec::Node(NodeId(3)));
    m.run_until(SimTime::MAX);

    let results = script_results(&m, NodeId(2));
    let values: Vec<u64> = results
        .iter()
        .filter_map(|r| match r {
            OpResult::Ok(Some(v)) => Some(*v),
            _ => None,
        })
        .collect();
    // Every successful read returned a distinct, strictly increasing value:
    // nothing was serviced twice.
    for w in values.windows(2) {
        assert!(w[1] > w[0], "duplicated device read: {values:?}");
    }
    assert_eq!(
        m.st().nodes[0].io_dev.reads,
        values.len() as u64,
        "device serviced exactly the successful reads"
    );
}

#[test]
fn speculative_wild_write_is_contained_by_firewall() {
    use flash::hive::CellLayout;

    // Model an incorrectly speculated write from node 3 into node 0's
    // kernel page: with Hive's firewall ACLs it must be refused, so node
    // 3's failure cannot take node 0's data with it (Section 3.3).
    let kernel_line = LineAddr(600);
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        if n == NodeId(3) {
            Box::new(Script::new([ProcOp::Write(kernel_line)]))
        } else {
            Box::new(Script::new([]))
        }
    };
    let mut m = build_machine(tiny(), RecoveryConfig::default(), mk, 14);
    let layout = CellLayout::contiguous(4, 4);
    flash::hive::os::configure(&mut m, &layout);
    m.start();
    m.run_for(SimDuration::from_millis(1));
    // The write was denied; node 0's memory version is untouched.
    assert_eq!(m.st().counters.get("firewall_denials"), 1);
    assert_eq!(
        m.st().nodes[0].dir.mem_version(kernel_line),
        flash::coherence::Version(0)
    );
}

#[test]
fn nak_overflow_detects_coherence_deadlock() {
    // Node 1 dirties a line homed on node 0, then dies. Node 2's write to
    // the same line locks the home in PendingRecall (the recall to the dead
    // owner is never answered), so node 2 spins on NAKs until the hardware
    // counter overflows and triggers recovery — the second detection
    // mechanism of Table 4.1, faster than the memory-op timeout here.
    // Node 2's request locks the home (PendingRecall toward the dead
    // owner) and waits for data; node 3's subsequent request to the same
    // line is the one that spins on NAKs.
    let line = LineAddr(150); // homed on node 0
    let mut params = tiny();
    params.magic.nak_threshold = 32; // overflow well before the timeout
    params.magic.mem_op_timeout_ns = 10_000_000; // timeout effectively off
    params.magic.heartbeat_timeout_ns = 10_000_000; // heartbeat audit too
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        match n.0 {
            1 => Box::new(Script::new([ProcOp::Write(line)])),
            2 => Box::new(Script::new([
                ProcOp::Compute(600_000), // after node 1 dies
                ProcOp::Write(line),      // locks the home forever
            ])),
            3 => Box::new(Script::new([
                ProcOp::Compute(650_000),
                ProcOp::Write(line), // NAK spin -> counter overflow
            ])),
            _ => Box::new(Script::new([])),
        }
    };
    let mut m = build_machine(params, RecoveryConfig::default(), mk, 15);
    m.start();
    m.schedule_fault(SimTime::from_nanos(500_000), FaultSpec::Node(NodeId(1)));
    m.run_until(SimTime::MAX);
    assert!(
        m.st().counters.get("nak_overflows") >= 1,
        "{}",
        m.st().counters
    );
    assert!(m.ext().report.completed(), "recovery ran");
    assert!(m.st().validate().passed(), "{}", m.st().validate());
    // The line was dirty only on the dead node: marked incoherent, and the
    // retried writes finally bus-error.
    assert_eq!(m.st().nodes[0].dir.state(line), DirState::Incoherent);
    for node in [NodeId(2), NodeId(3)] {
        let r = script_results(&m, node);
        assert_eq!(
            r.last(),
            Some(&OpResult::BusError(BusError::Incoherent)),
            "{node}"
        );
    }
}

#[test]
fn truncated_packet_triggers_recovery() {
    // Heavy line-sized traffic across a link that fails mid-run: some
    // packet is severed in flight and delivered truncated, dispatching the
    // error handler (Table 4.1's fourth trigger).
    // Whether a packet is mid-flight at the instant the link dies depends
    // on sub-microsecond phase; sweep injection times until one run severs
    // a packet. Every attempt must still validate.
    let mut truncated_seen = false;
    for attempt in 0..24u64 {
        let mut params = tiny();
        // Keep the timeout long so truncation is the fast trigger when it
        // fires at all.
        params.magic.mem_op_timeout_ns = 2_000_000;
        let mk = move |n: NodeId| -> Box<dyn Workload> {
            match n.0 {
                // Node 1 streams writes to lines homed on node 3: route
                // 1->3 crosses the 1-3 link of the 2x2 mesh.
                1 => Box::new(Script::new(
                    (0..2_000u64).map(|i| ProcOp::Write(LineAddr(3 * LPN + 40 + (i % 512)))),
                )),
                _ => Box::new(Script::new([])),
            }
        };
        let mut m = build_machine(params, RecoveryConfig::default(), mk, 16);
        m.start();
        m.schedule_fault(
            SimTime::from_nanos(200_000 + attempt * 73),
            FaultSpec::Link(flash::net::RouterId(1), flash::net::RouterId(3)),
        );
        m.run_until(SimTime::MAX);
        assert!(
            m.ext().report.completed(),
            "attempt {attempt}: recovery ran"
        );
        assert!(
            m.st().validate().passed(),
            "attempt {attempt}: {}",
            m.st().validate()
        );
        if m.st().counters.get("truncated_dispatches") >= 1 {
            truncated_seen = true;
            break;
        }
    }
    assert!(
        truncated_seen,
        "no injection time severed a packet mid-flight"
    );
}

#[test]
fn trace_records_the_failure_story() {
    use flash::obs::TraceEvent;
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        if n == NodeId(2) {
            Box::new(Script::new([
                ProcOp::Compute(600_000),
                ProcOp::Read(LineAddr(LPN + 10)), // homed on dead node 1
            ]))
        } else {
            Box::new(Script::new([]))
        }
    };
    let mut m = build_machine(tiny(), RecoveryConfig::default(), mk, 17);
    m.start();
    m.schedule_fault(SimTime::from_nanos(500_000), FaultSpec::Node(NodeId(1)));
    m.run_until(SimTime::MAX);
    let obs = &m.st().obs;
    assert!(!obs.is_empty());
    let mut saw_fault = false;
    let mut saw_trigger = false;
    let mut saw_complete = false;
    let mut last_seq = 0;
    for ev in obs.merged() {
        assert!(ev.seq >= last_seq, "merged trace is seq-ordered");
        last_seq = ev.seq;
        match ev.event {
            TraceEvent::FaultInjected { kind: "node", node } => {
                assert_eq!(node, 1);
                saw_fault = true;
            }
            TraceEvent::TriggerFired { .. } => saw_trigger = true,
            TraceEvent::PhaseExit { phase: 4, .. } => saw_complete = true,
            _ => {}
        }
    }
    assert!(saw_fault && saw_trigger && saw_complete, "{}", obs.render());
    // The merged trace's per-node recovery timeline is derivable.
    let rows = flash::obs::phase_rows(obs);
    assert!(
        rows.iter()
            .any(|(_, row)| row.enter_ns[0].is_some() && row.exit_ns[3].is_some()),
        "at least one node shows a full P1..P4 timeline:\n{}",
        flash::obs::phase_timeline(obs)
    );
}
