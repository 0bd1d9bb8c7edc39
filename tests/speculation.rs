//! The incorrect-speculation hazard of Section 3.3 and the firewall's
//! containment of it: "an incorrectly speculated write may cause a
//! processor to fetch some arbitrary line into its cache in exclusive mode.
//! If that processor fails, the data is lost. ... This effect can cause
//! multiple cells to crash after a single hardware fault. ... The firewall
//! allows cells to protect their data against speculative writes."

use flash::coherence::DirState;
use flash::coherence::LineAddr;
use flash::core::{build_machine, RecoveryConfig};
use flash::hive::CellLayout;
use flash::machine::{FaultSpec, MachineParams, ProcOp, Script, Workload};
use flash::net::NodeId;
use flash::sim::SimTime;

const LPN: u64 = 8192;

/// Node 3 speculatively writes a line of node 0's memory, then dies.
/// Returns the post-recovery directory state of that line at its home.
fn run(firewall: bool) -> (DirState, u64) {
    let victim_line = LineAddr(400); // homed on node 0 (cell 0's data)
    let mut params = MachineParams::tiny();
    params.magic.firewall_enabled = firewall;
    let mk = move |n: NodeId| -> Box<dyn Workload> {
        match n.0 {
            3 => Box::new(Script::new([ProcOp::SpeculativeWrite(victim_line)])),
            1 => Box::new(Script::new(
                // Detection traffic toward node 3 after it dies.
                (0..40).flat_map(|i| {
                    [
                        ProcOp::Compute(100_000),
                        ProcOp::Read(LineAddr(3 * LPN + 40 + i)),
                    ]
                }),
            )),
            _ => Box::new(Script::new([])),
        }
    };
    let mut m = build_machine(params, RecoveryConfig::default(), mk, 33);
    // Hive cell setup: one cell per node, so node 0's pages are only
    // writable by node 0.
    let layout = CellLayout::contiguous(4, 4);
    flash::hive::os::configure(&mut m, &layout);
    m.start();
    m.schedule_fault(SimTime::from_nanos(600_000), FaultSpec::Node(NodeId(3)));
    m.run_until(SimTime::MAX);
    let state = m.st().nodes[0].dir.state(victim_line);
    let denials = m.st().counters.get("firewall_denials");
    assert!(m.ext().report.completed(), "recovery ran");
    assert!(m.st().validate().passed(), "{}", m.st().validate());
    (state, denials)
}

#[test]
fn without_firewall_a_remote_fault_destroys_cell_data() {
    let (state, denials) = run(false);
    assert_eq!(denials, 0);
    // Node 3 held cell 0's line exclusive when it died: the line is lost
    // even though cell 0's hardware is healthy.
    assert_eq!(state, DirState::Incoherent);
}

#[test]
fn firewall_contains_the_speculative_write() {
    let (state, denials) = run(true);
    assert_eq!(denials, 1, "the ACL check refused the exclusive fetch");
    // Cell 0's data survived the failure of cell 3's node.
    assert_eq!(state, DirState::Uncached);
}

#[test]
fn speculative_faults_are_invisible_to_the_program() {
    // A speculating workload completes with zero program-visible bus
    // errors: wrong-path references that hit the MAGIC-protected range (or
    // any other guard) are terminated and silently discarded.
    let params = MachineParams::tiny();
    let layout = params.layout();
    let mut m = build_machine(
        params,
        RecoveryConfig::default(),
        move |_| {
            Box::new(
                flash::machine::RandomFill::valid_system_range(600, 0.4, layout)
                    .with_speculation(0.2),
            )
        },
        34,
    );
    m.start();
    m.run_until(SimTime::MAX);
    assert!(
        m.st().counters.get("speculative_faults_discarded") > 0,
        "some wrong-path stores hit the protected range"
    );
    assert_eq!(
        m.st().counters.get("bus_errors"),
        0,
        "speculation faults stay invisible"
    );
    for node in &m.st().nodes {
        assert_eq!(node.bus_errors, 0);
    }
}
