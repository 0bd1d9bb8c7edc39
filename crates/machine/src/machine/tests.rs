use super::{Ev, Extension, Machine, MachineState, NullExtension};
use crate::fault::FaultSpec;
use crate::node::ProcState;
use crate::params::MachineParams;
use crate::workload::{OpResult, ProcOp, RandomFill, Script, Workload};
use flash_coherence::{DirState, LineAddr, NodeSet, Version};
use flash_magic::{BusError, Trigger};
use flash_net::{Lane, NodeId, RouterId};
use flash_sim::{Scheduler, SimTime};

fn quiesce<X: Extension>(m: &mut Machine<X>) {
    m.run_until(SimTime::MAX);
}

/// The results node `n`'s [`Script`] observed, one per op in op order.
fn script_results<X: Extension>(m: &Machine<X>, n: usize) -> &[OpResult] {
    m.st().nodes[n]
        .workload
        .as_any()
        .and_then(|w| w.downcast_ref::<Script>())
        .expect("node runs a script")
        .results()
}

fn tiny_machine(
    make: impl FnMut(NodeId) -> Box<dyn Workload>,
    seed: u64,
) -> Machine<NullExtension> {
    let mut m = Machine::new(MachineParams::tiny(), make, NullExtension, seed);
    m.start();
    m
}

#[test]
fn read_miss_roundtrip_installs_line() {
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(0) {
                Box::new(Script::new([ProcOp::Read(LineAddr(100))]))
            } else {
                Box::new(Script::new([]))
            }
        },
        1,
    );
    quiesce(&mut m);
    assert!(m.st().nodes[0].cache.lookup(LineAddr(100)).is_some());
    // Home is node 0 (tiny: 8192 lines per node) — line 100 is local.
    assert_eq!(m.st().layout.home_of(LineAddr(100)), NodeId(0));
    assert!(m.now() > SimTime::ZERO);
}

#[test]
fn remote_write_creates_dirty_exclusive() {
    // Node 1 writes a line homed on node 0.
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(1) {
                Box::new(Script::new([ProcOp::Write(LineAddr(200))]))
            } else {
                Box::new(Script::new([]))
            }
        },
        2,
    );
    quiesce(&mut m);
    let line = LineAddr(200);
    let cached = m.st().nodes[1].cache.lookup(line).expect("installed");
    assert!(cached.exclusive);
    assert_eq!(cached.version.0, 1);
    assert_eq!(
        m.st().nodes[0].dir.state(line),
        DirState::Exclusive(NodeId(1))
    );
    assert_eq!(m.st().oracle.expected_version(line).0, 1);
}

#[test]
fn read_write_sharing_transfers_data() {
    // Node 1 writes, node 2 then reads the same line: the recall path
    // must return version 1 to node 2.
    let mut m = tiny_machine(
        |n| match n.0 {
            1 => Box::new(Script::new([ProcOp::Write(LineAddr(300))])),
            2 => Box::new(Script::new([
                ProcOp::Compute(50_000), // let the write land first
                ProcOp::Read(LineAddr(300)),
            ])),
            _ => Box::new(Script::new([])),
        },
        3,
    );
    quiesce(&mut m);
    let line = LineAddr(300);
    let c2 = m.st().nodes[2].cache.lookup(line).expect("read installed");
    assert!(!c2.exclusive);
    assert_eq!(c2.version.0, 1);
    // Home memory was updated by the recall writeback.
    assert_eq!(m.st().nodes[0].dir.mem_version(line).0, 1);
    assert_eq!(m.st().nodes[0].dir.state(line), DirState::Shared);
    let s = m.st().nodes[0].dir.sharers(line);
    assert!(s.contains(NodeId(1)) && s.contains(NodeId(2)));
}

#[test]
fn write_invalidates_other_sharers() {
    let line = LineAddr(400);
    let mut m = tiny_machine(
        |n| match n.0 {
            1 => Box::new(Script::new([ProcOp::Read(line)])),
            2 => Box::new(Script::new([ProcOp::Read(line)])),
            3 => Box::new(Script::new([ProcOp::Compute(100_000), ProcOp::Write(line)])),
            _ => Box::new(Script::new([])),
        },
        4,
    );
    quiesce(&mut m);
    assert!(
        m.st().nodes[1].cache.lookup(line).is_none(),
        "sharer 1 invalidated"
    );
    assert!(
        m.st().nodes[2].cache.lookup(line).is_none(),
        "sharer 2 invalidated"
    );
    assert_eq!(
        m.st().nodes[0].dir.state(line),
        DirState::Exclusive(NodeId(3))
    );
    assert_eq!(m.st().oracle.expected_version(line).0, 1);
}

#[test]
fn random_fill_has_no_corruption_without_faults() {
    let params = MachineParams::tiny();
    let layout = params.layout();
    let mut m = tiny_machine(
        move |_| Box::new(RandomFill::valid_system_range(200, 0.4, layout)),
        5,
    );
    quiesce(&mut m);
    // Flush everything home via validation of memory versions: without
    // faults, dirty lines still live in caches, so validate() compares
    // memory versions — check instead that no bus errors occurred and
    // all ops completed.
    for node in &m.st().nodes {
        assert_eq!(node.bus_errors, 0);
        assert!(matches!(node.proc, ProcState::Halted));
    }
    assert_eq!(m.st().counters.get("bus_errors"), 0);
}

#[test]
fn uncached_io_roundtrip_is_exactly_once() {
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(2) {
                Box::new(Script::new([
                    ProcOp::UncachedRead { dev: NodeId(0) },
                    ProcOp::UncachedWrite {
                        dev: NodeId(0),
                        value: 55,
                    },
                    ProcOp::UncachedRead { dev: NodeId(0) },
                ]))
            } else {
                Box::new(Script::new([]))
            }
        },
        6,
    );
    quiesce(&mut m);
    let dev = &m.st().nodes[0].io_dev;
    assert_eq!(dev.reads, 2);
    assert_eq!(dev.writes, 1);
    // First read returned 0, then write(55), then read returned 55.
    assert_eq!(dev.register(), 56);
}

#[test]
fn io_guard_denies_foreign_uncached() {
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(3) {
                Box::new(Script::new([ProcOp::UncachedRead { dev: NodeId(0) }]))
            } else {
                Box::new(Script::new([]))
            }
        },
        7,
    );
    // Restrict node 0's device to node 0 only.
    m.st_mut().nodes[0]
        .io_guard
        .set_allowed(NodeSet::singleton(NodeId(0)));
    quiesce(&mut m);
    assert_eq!(m.st().nodes[3].bus_errors, 1);
    assert_eq!(m.st().counters.get("bus_errors"), 1);
    assert_eq!(
        script_results(&m, 3),
        [OpResult::BusError(BusError::ForeignUncachedIo)]
    );
    assert_eq!(m.st().counters.get("io_guard_denials"), 1);
    assert_eq!(m.st().nodes[0].io_dev.reads, 0, "device untouched");
}

#[test]
fn firewall_denies_unauthorized_exclusive_fetch() {
    let line = LineAddr(500);
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(2) {
                Box::new(Script::new([ProcOp::Write(line)]))
            } else {
                Box::new(Script::new([]))
            }
        },
        8,
    );
    m.st_mut().nodes[0]
        .firewall
        .restrict(line.page(), NodeSet::singleton(NodeId(0)));
    quiesce(&mut m);
    assert_eq!(m.st().nodes[2].bus_errors, 1);
    assert_eq!(m.st().counters.get("bus_errors"), 1);
    assert_eq!(
        script_results(&m, 2),
        [OpResult::BusError(BusError::FirewallDenied)]
    );
    assert_eq!(m.st().counters.get("firewall_denials"), 1);
    assert!(m.st().nodes[2].cache.lookup(line).is_none());
    // Reads are unaffected by the firewall.
    assert_eq!(m.st().nodes[0].dir.state(line), DirState::Uncached);
}

#[test]
fn range_check_bus_errors_wild_writes() {
    // The protected region is the top `PROTECTED_LINES` of each node's
    // slice; tiny() => lines-per-node 8192, protected 64 => local index
    // 8191 is protected.
    let protected = LineAddr(8191);
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(0) {
                Box::new(Script::new([
                    ProcOp::Write(protected),
                    ProcOp::Read(protected),
                ]))
            } else {
                Box::new(Script::new([]))
            }
        },
        9,
    );
    quiesce(&mut m);
    assert_eq!(m.st().nodes[0].bus_errors, 1, "write denied, read allowed");
    assert_eq!(m.st().counters.get("bus_errors"), 1);
    assert_eq!(
        script_results(&m, 0),
        [
            OpResult::BusError(BusError::RangeViolation),
            OpResult::Ok(None)
        ]
    );
}

#[test]
fn vector_range_accesses_stay_local() {
    // Node 2 reads line 3 (vector range): remapped into node 2's slice.
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(2) {
                Box::new(Script::new([ProcOp::Read(LineAddr(3))]))
            } else {
                Box::new(Script::new([]))
            }
        },
        10,
    );
    quiesce(&mut m);
    let remapped = LineAddr(2 * 8192 + 3);
    assert!(m.st().nodes[2].cache.lookup(remapped).is_some());
    // Node 0's directory never saw the access.
    assert_eq!(m.st().nodes[0].dir.state(LineAddr(3)), DirState::Uncached);
}

#[test]
fn node_map_blocks_requests_to_failed_homes() {
    let line = LineAddr(3 * 8192 + 7); // homed on node 3
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(0) {
                Box::new(Script::new([ProcOp::Read(line)]))
            } else {
                Box::new(Script::new([]))
            }
        },
        11,
    );
    m.st_mut().nodes[0].node_map.set_available(NodeId(3), false);
    quiesce(&mut m);
    assert_eq!(m.st().nodes[0].bus_errors, 1);
    assert_eq!(m.st().counters.get("bus_errors"), 1);
    assert_eq!(
        script_results(&m, 0),
        [OpResult::BusError(BusError::DeadHome)]
    );
    assert_eq!(m.st().counters.get("node_map_bus_errors"), 1);
}

#[test]
fn dead_node_makes_requests_time_out() {
    let line = LineAddr(3 * 8192 + 7);
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(0) {
                Box::new(Script::new([ProcOp::Compute(1_000), ProcOp::Read(line)]))
            } else {
                Box::new(Script::new([]))
            }
        },
        12,
    );
    m.schedule_fault(SimTime::from_nanos(500), FaultSpec::Node(NodeId(3)));
    quiesce(&mut m);
    // NullExtension just counts the trigger.
    assert_eq!(m.st().counters.get("timeout_triggers"), 1);
    assert_eq!(m.st().counters.get("ignored_triggers"), 1);
    assert!(m.st().failed_nodes.contains(NodeId(3)));
}

#[test]
fn infinite_loop_congests_but_triggers_timeout() {
    let line = LineAddr(8192 + 7); // homed on node 1
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(0) {
                Box::new(Script::new([ProcOp::Compute(1_000), ProcOp::Read(line)]))
            } else {
                Box::new(Script::new([]))
            }
        },
        13,
    );
    m.schedule_fault(SimTime::from_nanos(500), FaultSpec::InfiniteLoop(NodeId(1)));
    quiesce(&mut m);
    assert_eq!(m.st().counters.get("timeout_triggers"), 1);
}

#[test]
fn deterministic_replay() {
    let run = |seed| {
        let params = MachineParams::tiny();
        let layout = params.layout();
        let mut m = tiny_machine(
            move |_| Box::new(RandomFill::valid_system_range(100, 0.5, layout)),
            seed,
        );
        quiesce(&mut m);
        (
            m.now(),
            m.events_processed(),
            m.st().counters.get("bus_errors"),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).1, 0);
}

/// Pins which copy `validate` judges: an exclusive cached copy in a live
/// node overrides the home memory image (the last node's copy when several
/// claim the line), and a line never stored is expected at
/// `Version::INITIAL`.
#[test]
fn validate_prefers_the_exclusive_copy_over_memory() {
    let line = LineAddr(200); // homed on node 0
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(1) {
                Box::new(Script::new([ProcOp::Write(line)]))
            } else {
                Box::new(Script::new([]))
            }
        },
        2,
    );
    quiesce(&mut m);
    // Node 1 holds the only current copy; home memory is still stale.
    assert_eq!(m.st().nodes[0].dir.mem_version(line), Version::INITIAL);
    assert_eq!(m.st().oracle.expected_version(line), Version(1));
    let clean = m.st().validate();
    assert!(clean.passed() && clean.corrupted.is_empty(), "{clean}");
    assert_eq!(clean.unlogged_drops, 0);
    assert!(clean.lines_checked > 0);

    // A later node's stale exclusive copy wins over node 1's current one.
    let mut stale_claim = m.clone();
    stale_claim.st_mut().nodes[3]
        .cache
        .insert(line, true, Version::INITIAL);
    assert_eq!(stale_claim.st().validate().corrupted, vec![line]);

    // Memory brought current behind node 1's back: its exclusive copy is
    // now stale and still wins, so the line is corrupted.
    let st = m.st_mut();
    st.nodes[0].dir.recovery_put(line, Version(2));
    st.oracle.record_store(line, Version(2));
    assert_eq!(m.st().validate().corrupted, vec![line]);

    // Lines never stored, below and above the highest stored line, read
    // the initial version from the dense oracle.
    for never in [LineAddr(199), LineAddr(201), LineAddr(4 * 8192 - 1)] {
        assert_eq!(m.st().oracle.expected_version(never), Version::INITIAL);
    }
    assert_eq!(m.st().oracle.written_lines(), 1);
}

/// Two live caches claiming one line exclusively at different versions:
/// `validate` judges the higher-numbered node's copy, whichever version
/// it holds.
#[test]
fn validate_takes_the_higher_numbered_nodes_copy() {
    let line = LineAddr(200); // homed on node 0
    let mut m = tiny_machine(
        |n| {
            if n == NodeId(1) {
                Box::new(Script::new([ProcOp::Write(line)]))
            } else {
                Box::new(Script::new([]))
            }
        },
        2,
    );
    quiesce(&mut m);
    assert_eq!(m.st().oracle.expected_version(line), Version(1));
    // A lower node's stale claim loses to node 1's current copy.
    let mut lower = m.clone();
    lower.st_mut().nodes[0]
        .cache
        .insert(line, true, Version::INITIAL);
    assert!(lower.st().validate().passed());
    // A higher node's stale claim wins over it.
    let mut higher = m.clone();
    higher.st_mut().nodes[2]
        .cache
        .insert(line, true, Version::INITIAL);
    assert_eq!(higher.st().validate().corrupted, vec![line]);
    // With node 1's copy stale and node 2's current, node 2 still wins.
    let st = higher.st_mut();
    for (n, version) in [(1, Version::INITIAL), (2, Version(1))] {
        st.nodes[n].cache.invalidate(line);
        st.nodes[n].cache.insert(line, true, version);
    }
    assert!(higher.st().validate().passed());
}

/// An extension that, on a false alarm at `node`, queues `burst`
/// source-routed recovery messages from that node to node 1 at once, each
/// carrying its sequence number, and logs every delivery.
#[derive(Clone, Debug, Default)]
struct Burst {
    burst: u32,
    delivered: Vec<(NodeId, NodeId, u32)>,
}

impl Extension for Burst {
    type Msg = u32;
    type Ev = ();
    fn on_trigger(
        &mut self,
        st: &mut MachineState<u32>,
        node: NodeId,
        _trig: Trigger,
        sched: &mut Scheduler<'_, Ev<()>>,
    ) {
        for i in 0..self.burst {
            st.send_recovery(node, NodeId(1), [RouterId(1)], Lane::Recovery0, i, sched);
        }
    }
    fn on_event(
        &mut self,
        _st: &mut MachineState<u32>,
        _ev: (),
        _sched: &mut Scheduler<'_, Ev<()>>,
    ) {
    }
    fn on_recovery_msg(
        &mut self,
        _st: &mut MachineState<u32>,
        at: NodeId,
        from: NodeId,
        msg: u32,
        _sched: &mut Scheduler<'_, Ev<()>>,
    ) {
        self.delivered.push((at, from, msg));
    }
}

/// A burst larger than the injection queue: the fabric refuses packets,
/// the pump keeps each refused one at the head of its outbox, and every
/// message still arrives exactly once, with its payload, in send order.
#[test]
fn refused_recovery_packets_are_delivered_once_in_order() {
    let burst = 200;
    let ext = Burst {
        burst,
        delivered: Vec::new(),
    };
    let params = MachineParams::tiny();
    assert!(burst > params.net.node_out_flits);
    let mut m = Machine::new(params, |_| Box::new(Script::new([])), ext, 3);
    m.start();
    m.schedule_fault(SimTime::from_nanos(1_000), FaultSpec::FalseAlarm(NodeId(0)));
    quiesce(&mut m);
    assert!(m.st().fabric.counters().get("inject_full") > 0);
    let want: Vec<_> = (0..burst).map(|i| (NodeId(1), NodeId(0), i)).collect();
    assert_eq!(m.ext().delivered, want);
    assert!(m.st().nodes[0].outbox.iter().all(|q| q.is_empty()));
}

/// Table-routed coherence traffic through an injection queue that holds
/// one data packet: the fabric refuses packets, yet every sent packet is
/// delivered, every operation completes and the memory image validates.
#[test]
fn refused_coherence_packets_still_complete_every_op() {
    let mut params = MachineParams::tiny();
    params.net.node_out_flits = flash_coherence::DATA_FLITS;
    let layout = params.layout();
    let mut m = Machine::new(
        params,
        move |_| Box::new(RandomFill::valid_system_range(200, 0.4, layout)),
        NullExtension,
        5,
    );
    m.start();
    quiesce(&mut m);
    let net = m.st().fabric.counters();
    assert!(net.get("inject_full") > 0);
    assert_eq!(net.get("packets_dropped"), 0);
    assert_eq!(net.get("packets_delivered"), net.get("packets_sent"));
    for node in &m.st().nodes {
        assert_eq!(node.bus_errors, 0);
        assert!(matches!(node.proc, ProcState::Halted));
    }
    assert!(m.st().validate().passed());
}
