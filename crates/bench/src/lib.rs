//! # flash-bench — the paper's evaluation, regenerated
//!
//! One benchmark target per table and figure of the paper's Section 5 (plus
//! the Section 6.2 firewall-overhead claim and ablations of design
//! choices). The figure/table targets are `harness = false` binaries that
//! run simulated experiments and print the same rows/series the paper
//! reports — in *simulated* time. Two targets measure *host* time instead:
//! `sim_speed` (simulator throughput, min-of-N) and `sweep_fork` (the
//! checkpoint/fork speedup). Both write a [`ResultSheet`] and gate through
//! [`ResultSheet::check_floors`] against a committed `BENCH_*.json` sheet.
//!
//! | target | reproduces |
//! |---|---|
//! | `table_5_3_validation` | Table 5.3 (validation experiments) |
//! | `table_5_4_end_to_end` | Table 5.4 (end-to-end recovery) |
//! | `fig_5_5_recovery_scaling` | Figure 5.5 (recovery time vs. nodes) |
//! | `fig_5_6_p4_scaling` | Figure 5.6 (P4 vs. L2 / memory size) |
//! | `fig_5_7_end_to_end` | Figure 5.7 (HW+OS suspension time) |
//! | `table_6_1_firewall_overhead` | §6.2 firewall cost (< 7 %) |
//! | `ablation_speculative_ping` | §4.2 trigger-wave speedup |
//! | `ablation_bft_hints` | §4.3 deferred-BFT hint scheduling |
//! | `ablation_reliable_interconnect` | §6.3 HAL-style reliable interconnect |
//! | `ablation_diameter_bound` | §4.3 tighter dissemination diameter bound |
//! | `ablation_upgrade` | ownership upgrades (not a paper figure) |
//! | `campaign_sweep` | multi-fault chaos campaign (§4.1/§5.3 generalized) |
//! | `sim_speed` | host-side simulator throughput (not a paper result) |
//! | `sweep_fork` | checkpoint/fork vs. from-scratch sweep speedup |
//!
//! Run everything with `cargo bench -p flash-bench`; each target accepts a
//! `FLASH_RUNS` environment variable to scale the run counts.

mod results;
pub mod sweep;

pub use results::{
    mark_fault_classes, results_dir, run_fault_classes, ClassTally, ResultSheet, Row, VerdictSheet,
    FAULT_CLASSES,
};
pub use sweep::{
    fault_rng_seed, run_checkpoint_groups, scratch_fault_sweep, scratch_parallel_make_sweep,
    sweep_fault_experiments, sweep_parallel_make, SweepConfig, SweepRun, DEFAULT_MAKE_STAGES,
};

use flash_core::{ExperimentConfig, FaultKind};
use flash_hive::HiveConfig;
use flash_machine::MachineParams;
use std::time::Instant;

/// The Table 5.3 validation experiment configuration for one fill seed:
/// the Table 5.1 machine with the caches filled deep (the paper fills the
/// caches with valid data before injecting) and enough post-fill operations
/// left to exercise recovery under load. Shared by the table bench, the
/// `sweep_fork` comparison bench and the fork-determinism tests.
pub fn table_5_3_experiment(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), seed);
    cfg.fill_ops = 3_000;
    cfg.total_ops = 4_000;
    cfg
}

/// The Table 5.4 parallel-make workload: 12 files per client cell — an
/// 84-file compile tree across the 7 client cells. The paper's benchmark (a
/// pmake compile job) ran orders of magnitude longer than the ~100 ms
/// recovery it absorbed; a longer make keeps that proportion honest, which
/// is also what the checkpoint/fork engine amortizes.
pub fn table_5_4_hive() -> HiveConfig {
    HiveConfig {
        files_per_task: 12,
        ..HiveConfig::default()
    }
}

/// The paper's per-fault-type run counts for Table 5.4 (1187 total).
pub const TABLE_5_4_RUNS: [(FaultKind, u64); 4] = [
    (FaultKind::Node, 310),
    (FaultKind::Router, 215),
    (FaultKind::Link, 268),
    (FaultKind::InfiniteLoop, 394),
];

/// Reads a run-count override from `FLASH_RUNS`, defaulting to `default`.
pub fn runs_from_env(default: u64) -> u64 {
    runs_from_lookup(default, |k| std::env::var(k).ok())
}

/// [`runs_from_env`] with an injectable environment lookup, so tests can
/// exercise the parsing without mutating real process environment (which
/// is unsound with Rust's parallel test runner and made the env test
/// flaky).
pub fn runs_from_lookup(default: u64, lookup: impl Fn(&str) -> Option<String>) -> u64 {
    lookup("FLASH_RUNS")
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A tiny stopwatch for host-side progress reporting.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed host seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Prints the standard bench banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses() {
        // Injectable lookup: no process-env mutation, so this cannot race
        // with other tests (std::env::set_var/remove_var are process-global).
        assert_eq!(runs_from_lookup(7, |_| None), 7);
        assert_eq!(runs_from_lookup(7, |_| Some("12".into())), 12);
        assert_eq!(runs_from_lookup(7, |_| Some("junk".into())), 7);
        assert_eq!(runs_from_lookup(7, |_| Some("".into())), 7);
    }

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        assert!(sw.secs() >= 0.0);
    }
}
