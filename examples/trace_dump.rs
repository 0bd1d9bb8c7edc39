//! Dump a full structured trace of one fault-recovery run: a Chrome
//! `trace_event` JSON file (load it in Perfetto or `chrome://tracing`)
//! plus the per-node P1–P4 recovery timeline table on stdout.
//!
//! ```sh
//! cargo run --release --example trace_dump [nodes] [out.trace.json]
//! ```

use flash::core::{build_machine, RecoveryConfig};
use flash::machine::{FaultSpec, MachineParams, RandomFill};
use flash::net::NodeId;
use flash::obs::{chrome_trace_json, phase_timeline, Recorder};
use flash::sim::{RunOutcome, SimDuration};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| format!("recovery_{n}n.trace.json"));
    assert!(n.is_power_of_two() && n >= 4, "use a power of two >= 4");

    let mut params = MachineParams::table_5_1();
    params.n_nodes = n;
    let layout = params.layout();
    let mut m = build_machine(
        params,
        RecoveryConfig::default(),
        move |_| Box::new(RandomFill::valid_system_range(3_000, 0.5, layout)),
        7,
    );

    // Swap in a deep recorder with every domain (and metrics) enabled so
    // the dump captures the hot domains the default mask keeps off.
    let mut rec = Recorder::with_capacity(1 << 16);
    rec.enable_all();
    m.st_mut().obs = rec;

    m.set_event_budget(2_000_000_000);
    m.start();

    // Fill caches briefly, then take out a node mid-workload.
    m.run_for(SimDuration::from_micros(50));
    let inject_at = m.now() + SimDuration::from_nanos(1);
    m.schedule_fault(inject_at, FaultSpec::Node(NodeId(1)));
    let outcome = m.run_until(m.now() + SimDuration::from_secs(20));
    assert_eq!(outcome, RunOutcome::Drained, "run must reach quiescence");

    let obs = &m.st().obs;
    let json = chrome_trace_json(obs);
    std::fs::write(&out_path, &json).expect("write trace file");

    println!(
        "{n}-node machine, node 1 failed at {} ns; {} trace events ({} dropped)",
        inject_at.as_nanos(),
        obs.merged().len(),
        obs.dropped_total()
    );
    println!("\nper-node recovery phase timeline:");
    println!("{}", phase_timeline(obs));
    let snapshot = obs.metrics.snapshot_json(&m.st().counters_total());
    println!("metrics snapshot:\n{snapshot}");
    println!(
        "wrote {} ({} bytes) — load it in Perfetto or chrome://tracing",
        out_path,
        json.len()
    );
}
