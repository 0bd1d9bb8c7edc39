//! End-to-end Hive experiments across crates: the Table 5.4 scenario with
//! every fault type, multi-node cells, and the single-system-image
//! accounting after cell shutdown.

use flash::core::RecoveryConfig;
use flash::hive::{run_parallel_make, CellLayout, HiveConfig, TaskState};
use flash::machine::{FaultSpec, MachineParams};
use flash::net::{NodeId, RouterId};

fn hive_8() -> (MachineParams, HiveConfig) {
    (
        MachineParams::table_5_1(),
        HiveConfig {
            files_per_task: 2,
            blocks_per_file: 24,
            out_blocks: 12,
            compute_ns: 20_000,
            ..HiveConfig::default()
        },
    )
}

#[test]
fn every_fault_type_spares_unaffected_compiles() {
    let (params, hive) = hive_8();
    let faults = [
        FaultSpec::Node(NodeId(4)),
        FaultSpec::Router(RouterId(6)),
        FaultSpec::Link(RouterId(2), RouterId(3)),
        FaultSpec::InfiniteLoop(NodeId(7)),
        FaultSpec::FalseAlarm(NodeId(1)),
    ];
    for (i, fault) in faults.into_iter().enumerate() {
        let out = run_parallel_make(
            params,
            &hive,
            RecoveryConfig::default(),
            Some(fault.clone()),
            50 + i as u64,
        );
        assert!(out.finished, "{fault:?}");
        assert!(
            out.unaffected_all_completed(),
            "{fault:?}: {:?}",
            out.compiles
        );
    }
}

#[test]
fn false_alarm_interrupts_but_completes_everything() {
    let (params, hive) = hive_8();
    let out = run_parallel_make(
        params,
        &hive,
        RecoveryConfig::default(),
        Some(FaultSpec::FalseAlarm(NodeId(3))),
        60,
    );
    assert!(out.finished);
    for c in &out.compiles {
        assert_eq!(c.state, TaskState::Completed, "{c:?}");
        assert!(!c.affected);
    }
    assert_eq!(out.recovery.lines_marked_incoherent, 0);
    assert_eq!(out.lines_reinitialized, 0);
}

#[test]
fn multi_node_cells_shut_down_as_a_unit() {
    // 4 cells of 2 nodes each; node 3 (cell 1's second node) dies. The
    // whole of cell 1 must shut down cleanly even though node 2 itself is
    // healthy (failure-unit semantics, Section 3.3).
    let params = MachineParams::table_5_1();
    let hive = HiveConfig {
        n_cells: 4,
        files_per_task: 2,
        blocks_per_file: 16,
        out_blocks: 8,
        compute_ns: 20_000,
    };
    let out = run_parallel_make(
        params,
        &hive,
        RecoveryConfig::default(),
        Some(FaultSpec::Node(NodeId(3))),
        61,
    );
    assert!(out.finished);
    // Node 2 was shut down by the recovery algorithm as part of the unit.
    assert!(out.recovery.nodes_shut_down >= 1, "{:?}", out.recovery);
    let affected: Vec<usize> = out
        .compiles
        .iter()
        .filter(|c| c.affected)
        .map(|c| c.cell)
        .collect();
    assert_eq!(affected, vec![1]);
    assert!(out.unaffected_all_completed(), "{:?}", out.compiles);
}

#[test]
fn cell_layout_matches_experiment_accounting() {
    let layout = CellLayout::contiguous(8, 4);
    // Killing node 5 dooms cell 2 (nodes 4-5).
    let failed = flash::coherence::NodeSet::singleton(NodeId(5));
    assert_eq!(layout.failed_cells(&failed), vec![2]);
}

#[test]
fn fault_free_baseline_is_clean() {
    let (params, hive) = hive_8();
    let out = run_parallel_make(params, &hive, RecoveryConfig::default(), None, 62);
    assert!(out.finished);
    assert!(out.compiles.iter().all(|c| c.state == TaskState::Completed));
    assert!(
        out.recovery.phases.triggered_at.is_none(),
        "no spurious recovery"
    );
}
