//! **Figure 5.7 — End-to-end recovery times.**
//!
//! The duration user processes stay suspended after a hardware fault:
//! hardware recovery (HW) plus Hive's operating-system recovery (HW+OS),
//! for 2–16 nodes with one Hive cell per node and 16 MB per node (1 MB L2).
//! The paper notes OS recovery scales with the number of *cells* (not
//! nodes), so large machines running several nodes per cell recover faster
//! than this one-cell-per-node curve suggests.

use flash_bench::{banner, ResultSheet, Stopwatch};
use flash_core::RecoveryConfig;
use flash_hive::{run_parallel_make, HiveConfig};
use flash_machine::{FaultSpec, MachineParams};
use flash_net::NodeId;

fn main() {
    banner(
        "Figure 5.7: end-to-end recovery times",
        "Teodosiu et al., ISCA'97, Fig 5.7 (1 cell/node, 16 MB/node, 1 MB L2)",
    );
    let sw = Stopwatch::start();
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "nodes", "HW [ms]", "OS [ms]", "HW+OS [ms]"
    );
    let mut sheet = ResultSheet::new(
        "fig_5_7_end_to_end",
        "Figure 5.7",
        &["hw_ms", "os_ms", "total_ms"],
    );
    for &n in &[2usize, 4, 8, 16] {
        let mut params = MachineParams::table_5_1();
        params.n_nodes = n;
        params.mem_mb_per_node = 16;
        params.l2_mb = 1.0;
        let hive = HiveConfig {
            n_cells: n,
            files_per_task: 3,
            blocks_per_file: 48,
            out_blocks: 24,
            compute_ns: 40_000,
        };
        let out = run_parallel_make(
            params,
            &hive,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(1))),
            77,
        );
        assert!(
            out.finished && out.unaffected_all_completed(),
            "n={n}: {:?}",
            out.compiles
        );
        let hw = out
            .recovery
            .phases
            .total()
            .expect("recovery ran")
            .as_millis_f64();
        let os = out.os_time.as_millis_f64();
        sheet.push(format!("nodes={n}"), &[hw, os, hw + os]);
        println!("{n:>6} {hw:>12.3} {os:>12.3} {:>12.3}", hw + os);
    }
    println!("\npaper shape: tens to ~200 ms, OS part growing with the cell count and");
    println!(
        "dominating at larger configurations.   [{:.1}s host]",
        sw.secs()
    );
    sheet.write();
}
