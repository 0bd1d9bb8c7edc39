//! The paper's end-to-end experiment (Section 5.2, Table 5.4): a parallel
//! make running across eight Hive cells — cell 0 doubling as the file
//! server — with a hardware fault injected while all compiles are running.
//!
//! ```sh
//! cargo run --release --example parallel_make [fault] [seed]
//! ```
//!
//! `fault` is one of `node`, `router`, `link`, `loop`, `false-alarm`
//! (default `node`). The run panics unless it finishes and every compile
//! on a cell the fault did not affect completes.

use flash::core::RecoveryConfig;
use flash::hive::{run_parallel_make, HiveConfig, TaskState};
use flash::machine::{FaultSpec, MachineParams};
use flash::net::{NodeId, RouterId};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = args.get(1).map(String::as_str).unwrap_or("node");
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(7);

    let fault = match kind {
        "node" => FaultSpec::Node(NodeId(5)),
        "router" => FaultSpec::Router(RouterId(6)),
        "link" => FaultSpec::Link(RouterId(1), RouterId(2)),
        "loop" => FaultSpec::InfiniteLoop(NodeId(3)),
        "false-alarm" => FaultSpec::FalseAlarm(NodeId(2)),
        other => {
            eprintln!("unknown fault kind {other:?}; use node|router|link|loop|false-alarm");
            std::process::exit(2);
        }
    };

    let params = MachineParams::table_5_1(); // 8 nodes
    let hive = HiveConfig::default(); // 8 cells, cell 0 = file server
    println!(
        "parallel make: {} cells on {} nodes, {} files/compile; injecting {fault:?} (seed {seed})\n",
        hive.n_cells, params.n_nodes, hive.files_per_task
    );

    let out = run_parallel_make(params, &hive, RecoveryConfig::default(), Some(fault), seed);

    for c in &out.compiles {
        let status = match c.state {
            TaskState::Completed => "completed",
            TaskState::Failed => "FAILED   ",
            TaskState::Running => "killed   ",
        };
        println!(
            "cell {:>2}: {status}  ({} files)  {}",
            c.cell,
            c.files_done,
            if c.affected {
                "[affected by fault]"
            } else {
                ""
            }
        );
    }
    println!();
    match out.recovery.phases.total() {
        Some(hw) => {
            println!("hardware recovery: {:>8.3} ms", hw.as_millis_f64());
            println!("OS recovery:       {:>8.3} ms", out.os_time.as_millis_f64());
            println!(
                "processes suspended for {:>8.3} ms total",
                out.suspension_time().unwrap().as_millis_f64()
            );
        }
        None => println!("no recovery ran (fault stayed latent)"),
    }
    println!(
        "incoherent lines reinitialized by the OS: {}",
        out.lines_reinitialized
    );
    let unaffected = out.unaffected_all_completed();
    println!("\nunaffected compiles all completed: {unaffected}");
    assert!(out.finished);
    assert!(unaffected, "a compile the fault did not touch failed");
}
