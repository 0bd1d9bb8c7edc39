//! **Figure 5.5 — Total hardware recovery times.**
//!
//! Recovery time versus machine size on a mesh (1 MB memory/node, 1 MB L2),
//! broken into the cumulative phase series P1, P1–2, P1–3 and total, plus
//! the hypercube comparison for the dissemination phase: the paper notes P2
//! "scales better (both asymptotically and for a moderate number of nodes)
//! on the fat hypercube topology than on the mesh ... since its running
//! time is proportional to the diameter of the interconnect".
//!
//! Set `FLASH_BIG=1` to extend the sweep past the paper's 128-node ceiling
//! to 512 and 1024 nodes, re-checking that the dissemination phase still
//! dominates total recovery time at sizes the paper could not simulate.

use flash_bench::{banner, ResultSheet, Stopwatch};
use flash_core::{run_fault_experiment, ExperimentConfig};
use flash_machine::{FaultSpec, MachineParams, TopologyKind};
use flash_net::NodeId;

fn recovery_times(n: usize, topology: TopologyKind, seed: u64) -> [f64; 4] {
    let mut params = MachineParams::table_5_1();
    params.n_nodes = n;
    params.topology = topology;
    params.mem_mb_per_node = 1;
    params.l2_mb = 1.0;
    let mut cfg = ExperimentConfig::new(params, seed);
    cfg.fill_ops = 100;
    cfg.total_ops = 3_000;
    let out = run_fault_experiment(&cfg, FaultSpec::Node(NodeId(1)));
    assert!(out.passed(), "n={n} {topology:?}: {}", out.validation);
    let p = out.recovery.phases;
    [
        p.p1().unwrap().as_millis_f64(),
        p.p1_2().unwrap().as_millis_f64(),
        p.p1_3().unwrap().as_millis_f64(),
        p.total().unwrap().as_millis_f64(),
    ]
}

fn main() {
    banner(
        "Figure 5.5: total hardware recovery times",
        "Teodosiu et al., ISCA'97, Fig 5.5 (2-128 nodes, 1 MB/node, 1 MB L2)",
    );
    let sw = Stopwatch::start();
    println!("mesh topology (as simulated in the paper):");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "nodes", "P1 [ms]", "P1,2 [ms]", "P1,2,3 [ms]", "total [ms]"
    );
    let sizes = [2usize, 4, 8, 16, 32, 64, 128];
    let mut sheet = ResultSheet::new(
        "fig_5_5_recovery_scaling",
        "Figure 5.5",
        &["p1_ms", "p12_ms", "p123_ms", "total_ms"],
    );
    let mut mesh_p2 = Vec::new();
    for &n in &sizes {
        let t = recovery_times(n, TopologyKind::Mesh2D, 7);
        mesh_p2.push(t[1] - t[0]);
        sheet.push(format!("mesh/nodes={n}"), &t);
        println!(
            "{n:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            t[0], t[1], t[2], t[3]
        );
    }

    println!("\nhypercube topology (FLASH's real interconnect family):");
    println!(
        "{:>6} {:>12} {:>12} {:>14}",
        "nodes", "P2 mesh[ms]", "P2 cube[ms]", "dissem speedup"
    );
    for (i, &n) in sizes.iter().enumerate() {
        if !n.is_power_of_two() {
            continue;
        }
        let t = recovery_times(n, TopologyKind::Hypercube, 7);
        sheet.push(format!("hypercube/nodes={n}"), &t);
        let cube_p2 = t[1] - t[0];
        println!(
            "{n:>6} {:>12.3} {:>12.3} {:>13.2}x",
            mesh_p2[i],
            cube_p2,
            mesh_p2[i] / cube_p2.max(1e-9)
        );
    }
    // Past the paper's ceiling: 512 and 1024 nodes. The claim under test
    // is qualitative — dissemination (P2) still dominates total recovery
    // as the mesh diameter grows.
    if std::env::var("FLASH_BIG").is_ok_and(|v| v == "1") {
        println!("\nbeyond the paper:");
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "nodes", "P1 [ms]", "P1,2 [ms]", "P1,2,3 [ms]", "total [ms]", "P2/total"
        );
        for &n in &[512usize, 1024] {
            let t = recovery_times(n, TopologyKind::Mesh2D, 7);
            let p2_share = (t[1] - t[0]) / t[3];
            sheet.push(format!("mesh/nodes={n}"), &t);
            println!(
                "{n:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>8.0}%",
                t[0],
                t[1],
                t[2],
                t[3],
                p2_share * 100.0
            );
        }
    }

    println!("\npaper shape: total ~150-200 ms at 128 nodes, dominated by the dissemination");
    println!(
        "phase; P1 roughly constant; hypercube dissemination faster.   [{:.1}s host]",
        sw.secs()
    );
    sheet.write();
}
