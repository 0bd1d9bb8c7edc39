//! A reduced Table 5.3: the paper ran 200 validation experiments per fault
//! type with zero failures; this suite runs a handful per type in debug CI,
//! with the full counts regenerated by `crates/bench`.

use flash::core::{random_fault, run_fault_experiment, ExperimentConfig, FaultKind};
use flash::machine::MachineParams;
use flash::sim::DetRng;

fn run_batch(kind: FaultKind, runs: u64) {
    let params = MachineParams::table_5_1();
    for seed in 0..runs {
        let mut rng = DetRng::new(seed * 1_000_003 + kind as u64);
        let fault = random_fault(kind, params.n_nodes, &mut rng);
        let mut cfg = ExperimentConfig::new(params, seed);
        cfg.fill_ops = 400;
        cfg.total_ops = 1_000;
        let out = run_fault_experiment(&cfg, fault.clone());
        assert!(
            out.passed(),
            "{kind:?} seed {seed} fault {fault:?}: finished={} recovery={:?} validation={}",
            out.finished,
            out.recovery.completed(),
            out.validation
        );
    }
}

#[test]
fn node_failures_validate() {
    run_batch(FaultKind::Node, 4);
}

#[test]
fn router_failures_validate() {
    run_batch(FaultKind::Router, 4);
}

#[test]
fn link_failures_validate() {
    run_batch(FaultKind::Link, 4);
}

#[test]
fn infinite_loops_validate() {
    run_batch(FaultKind::InfiniteLoop, 4);
}

#[test]
fn false_alarms_validate() {
    run_batch(FaultKind::FalseAlarm, 4);
}

#[test]
fn experiments_are_deterministic() {
    let params = MachineParams::table_5_1();
    let run = || {
        let mut cfg = ExperimentConfig::new(params, 7);
        cfg.fill_ops = 300;
        cfg.total_ops = 800;
        let out =
            run_fault_experiment(&cfg, flash::machine::FaultSpec::Node(flash::net::NodeId(4)));
        (
            out.end_time,
            out.bus_errors,
            out.recovery.lines_marked_incoherent,
            out.recovery.phases.total(),
            out.validation.marked_incoherent,
        )
    };
    assert_eq!(run(), run(), "same seed must replay identically");
}

/// Regression: a buffered invalidation from an older sharer epoch must not
/// be honored against a newer exclusive grant (it would silently discard
/// the freshly committed store). Caught by the full Table 5.3 sweep at
/// these two seeds.
#[test]
fn regression_stale_buffered_inval_seeds() {
    for (kind, seed) in [(FaultKind::Link, 78u64), (FaultKind::Node, 57u64)] {
        let params = MachineParams::table_5_1();
        let mut rng = DetRng::new(seed.wrapping_mul(0x9E3779B9) ^ kind as u64);
        let fault = random_fault(kind, params.n_nodes, &mut rng);
        let mut cfg = ExperimentConfig::new(params, seed);
        cfg.fill_ops = 1_500;
        cfg.total_ops = 4_000;
        let out = run_fault_experiment(&cfg, fault);
        assert!(out.passed(), "{kind:?} seed {seed}: {}", out.validation);
    }
}

/// The recovery algorithm is topology-independent (paper, Section 2): the
/// validation methodology must also pass on the hypercube interconnect.
#[test]
fn hypercube_topology_validates() {
    use flash::machine::TopologyKind;
    for (kind, seed) in [
        (FaultKind::Node, 301u64),
        (FaultKind::Router, 302),
        (FaultKind::InfiniteLoop, 303),
        (FaultKind::FalseAlarm, 304),
    ] {
        let mut params = MachineParams::table_5_1();
        params.topology = TopologyKind::Hypercube;
        let mut rng = DetRng::new(seed);
        let fault = random_fault(kind, params.n_nodes, &mut rng);
        let mut cfg = ExperimentConfig::new(params, seed);
        cfg.fill_ops = 400;
        cfg.total_ops = 1_000;
        let out = run_fault_experiment(&cfg, fault.clone());
        assert!(
            out.passed(),
            "hypercube {kind:?} {fault:?}: {} (recovery: {})",
            out.validation,
            out.recovery.completed()
        );
    }
}

/// The tighter dissemination bound and the reliable-interconnect variant
/// compose with each other and with upgrades; with speculative pings, BFT
/// hints and upgrades all off (the ablation benches' off setting) the
/// machine validates too.
#[test]
fn feature_combinations_validate() {
    use flash::core::RecoveryConfig;
    let reliable = RecoveryConfig {
        center_diameter_bound: true,
        reliable_interconnect: true,
        ..Default::default()
    };
    let unoptimized = RecoveryConfig {
        speculative_pings: false,
        bft_hints: false,
        ..Default::default()
    };
    for (recovery, upgrades) in [(reliable, true), (unoptimized, false)] {
        for seed in 0..3u64 {
            let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), 400 + seed);
            cfg.params.upgrades_enabled = upgrades;
            cfg.recovery = recovery;
            cfg.fill_ops = 500;
            cfg.total_ops = 1_400;
            let out = run_fault_experiment(
                &cfg,
                flash::machine::FaultSpec::Node(flash::net::NodeId(1 + seed as u16)),
            );
            assert!(out.passed(), "{recovery:?} seed {seed}: {}", out.validation);
            if recovery.reliable_interconnect {
                assert_eq!(
                    out.recovery.flush_writebacks, 0,
                    "no flush in reliable mode"
                );
            }
        }
    }
}
