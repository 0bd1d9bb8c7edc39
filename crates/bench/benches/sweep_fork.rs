//! **Checkpoint/fork sweep vs. from-scratch — the speedup evidence.**
//!
//! Runs the Table 5.3 (validation) and Table 5.4 (end-to-end) sweeps twice
//! at equal N — once through the checkpoint/fork engine, once from scratch
//! with identical seeds — asserts every forked run's trace hash is
//! bit-identical to its from-scratch twin, and reports the wall-clock
//! speedup. The rows land in `target/bench-results/sweep_fork.json`; the
//! committed numbers live in `BENCH_sweep_fork.json`.
//!
//! Environment knobs:
//!
//! * `FLASH_RUNS=N` — runs per fault type on each side (default 64; the
//!   speedup is prelude-amortization, so tiny N underreports it — the CI
//!   smoke run at `FLASH_RUNS=5` exercises the path and the determinism
//!   assertion, not the speedup);
//! * `FLASH_BENCH_CHECK=path` — exit 1 unless each sweep's speedup reaches
//!   its `floor` in a committed sheet such as `BENCH_sweep_fork.json`
//!   ([`flash_bench::ResultSheet::check_floors`]).

use flash_bench::{
    banner, runs_from_env, scratch_fault_sweep, scratch_parallel_make_sweep,
    sweep_fault_experiments, sweep_parallel_make, table_5_3_experiment, table_5_4_hive,
    ResultSheet, Stopwatch, SweepConfig, SweepRun, DEFAULT_MAKE_STAGES,
};
use flash_core::{FaultKind, RecoveryConfig};
use flash_machine::MachineParams;

/// Times the forked sweep and then its from-scratch twin, counts the runs
/// whose trace hashes differ between the two, prints the arm and appends
/// it to `sheet`. Returns the mismatch count.
fn arm<O>(
    sheet: &mut ResultSheet,
    name: &str,
    forked: impl FnOnce() -> Vec<SweepRun<O>>,
    scratch: impl FnOnce() -> Vec<SweepRun<O>>,
    hash: impl Fn(&O) -> u64,
) -> usize {
    let sw = Stopwatch::start();
    let forked = forked();
    let forked_s = sw.secs();
    let sw = Stopwatch::start();
    let scratch = scratch();
    let scratch_s = sw.secs();
    assert_eq!(forked.len(), scratch.len(), "unequal N between arms");
    let mismatches = forked
        .iter()
        .zip(&scratch)
        .filter(|(f, s)| {
            let differ = hash(&f.outcome) != hash(&s.outcome);
            if differ {
                eprintln!(
                    "DETERMINISM MISMATCH {:?} run {} stage {}%",
                    f.kind, f.run, f.stage_pct
                );
            }
            differ
        })
        .count();
    let speedup = scratch_s / forked_s.max(1e-12);
    let runs = forked.len() as f64;
    println!("{name:<28} {runs:>6} {forked_s:>9.2}s {scratch_s:>9.2}s {speedup:>8.2}x");
    sheet.push(
        name,
        &[runs, forked_s, scratch_s, speedup, mismatches as f64],
    );
    mismatches
}

fn main() {
    let reproduces = "engine behind Tables 5.3/5.4 at paper-scale run counts";
    banner(
        "sweep_fork: checkpoint/fork sweep vs. from-scratch at equal N",
        reproduces,
    );
    let runs = runs_from_env(64);
    let mut cfg = SweepConfig::new(runs as usize);
    cfg.forks_per_checkpoint = 8;
    let sw = Stopwatch::start();
    let columns = [
        "runs",
        "forked_s",
        "scratch_s",
        "speedup",
        "hash_mismatches",
    ];
    let mut sheet = ResultSheet::new("sweep_fork", reproduces, &columns);
    println!(
        "\n{:<28} {:>6} {:>10} {:>10} {:>9}",
        "sweep", "runs", "forked", "scratch", "speedup"
    );

    // Arm 1: the Table 5.3 validation sweep, all five fault types.
    let mut mismatches = arm(
        &mut sheet,
        "validation_table_5_3",
        || sweep_fault_experiments(&cfg, &FaultKind::ALL, table_5_3_experiment),
        || scratch_fault_sweep(&cfg, &FaultKind::ALL, table_5_3_experiment),
        |o| o.trace_hash,
    );

    // Arm 2: the Table 5.4 end-to-end sweep over the injection ladder.
    let kinds = [
        FaultKind::Node,
        FaultKind::Router,
        FaultKind::Link,
        FaultKind::InfiniteLoop,
    ];
    let (params, hive, recovery) = (
        MachineParams::table_5_1(),
        table_5_4_hive(),
        RecoveryConfig::default(),
    );
    mismatches += arm(
        &mut sheet,
        "end_to_end_table_5_4",
        || sweep_parallel_make(&cfg, &kinds, DEFAULT_MAKE_STAGES, params, &hive, recovery),
        || scratch_parallel_make_sweep(&cfg, &kinds, DEFAULT_MAKE_STAGES, params, &hive, recovery),
        |o| o.trace_hash,
    );
    println!("[{:.1}s host total]", sw.secs());

    sheet.write();
    assert_eq!(
        mismatches, 0,
        "every forked run must hash identically to its from-scratch twin"
    );
    sheet.check_floors("speedup");
}
