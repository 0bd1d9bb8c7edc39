//! Fork-determinism and checkpoint-placement tests for the warm-state
//! checkpoint/fork engine (the machinery behind the paper-scale sweeps of
//! Tables 5.3 and 5.4).
//!
//! The correctness contract is trace-hash equivalence: a run forked from a
//! warm checkpoint must produce a [`flash::obs::Recorder::merged_hash`]
//! bit-identical to a from-scratch run with the same seeds. The hash covers
//! every recorded event in every trace domain in order, so any divergence
//! in timing, message order, RNG state or workload cursor shows up.

use flash::core::{
    finish_fault_experiment, prepare_fault_experiment, random_fault, run_fault_experiment,
    ExperimentConfig, FaultKind, RecoveryConfig,
};
use flash::hive::{finish_parallel_make, prepare_parallel_make, HiveConfig};
use flash::machine::MachineParams;
use flash::sim::DetRng;

fn quick_experiment(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), seed);
    cfg.fill_ops = 400;
    cfg.total_ops = 1_000;
    cfg
}

/// For every fault type, a run forked from a warm checkpoint produces the
/// same trace hash, end time and validation outcome as a from-scratch run
/// with identical seeds (pinned: machine seed 11, fault seed derived per
/// kind).
#[test]
fn forked_run_matches_scratch_for_every_fault_type() {
    let cfg = quick_experiment(11);
    let ckpt = prepare_fault_experiment(&cfg).checkpoint();
    for (i, &kind) in FaultKind::ALL.iter().enumerate() {
        let draw = || {
            let mut rng = DetRng::new(0xF0 + i as u64);
            random_fault(kind, cfg.params.n_nodes, &mut rng)
        };
        let forked = finish_fault_experiment(ckpt.fork(), draw());
        let scratch = run_fault_experiment(&cfg, draw());
        assert!(forked.finished && scratch.finished, "{kind:?}");
        assert_eq!(
            forked.trace_hash, scratch.trace_hash,
            "{kind:?}: forked trace diverged from from-scratch"
        );
        assert_eq!(forked.end_time, scratch.end_time, "{kind:?}");
        assert_eq!(forked.bus_errors, scratch.bus_errors, "{kind:?}");
        assert_eq!(
            forked.validation.passed(),
            scratch.validation.passed(),
            "{kind:?}"
        );
        // Forks are independent: a second fork replays identically.
        let again = finish_fault_experiment(ckpt.fork(), draw());
        assert_eq!(again.trace_hash, forked.trace_hash, "{kind:?} refork");
    }
}

/// Gray faults (fail-slow, degraded memory, lossy link, pool failure)
/// preserve the same fork contract as the fail-stop kinds: a run forked
/// from a warm checkpoint hashes identically to a from-scratch run. The
/// lossy-link case exercises the seeded per-packet drop RNG across the
/// checkpoint boundary — the RNG state is part of the fabric snapshot.
#[test]
fn forked_run_matches_scratch_for_gray_fault_types() {
    use flash::machine::FaultSpec;
    use flash::net::{NodeId, RouterId};

    let cfg = quick_experiment(31);
    let ckpt = prepare_fault_experiment(&cfg).checkpoint();
    let grays = [
        FaultSpec::FailSlow(NodeId(2), 5),
        FaultSpec::DegradedMemory(NodeId(1), 30, 900),
        FaultSpec::LossyLink(RouterId(0), RouterId(1), 60_000),
        FaultSpec::PoolFailure {
            pool: vec![NodeId(1), NodeId(2)],
        },
    ];
    for fault in grays {
        let forked = finish_fault_experiment(ckpt.fork(), fault.clone());
        let scratch = run_fault_experiment(&cfg, fault.clone());
        assert!(forked.finished && scratch.finished, "{fault:?}");
        assert_eq!(
            forked.trace_hash, scratch.trace_hash,
            "{fault:?}: forked trace diverged from from-scratch"
        );
        assert_eq!(forked.end_time, scratch.end_time, "{fault:?}");
        assert_eq!(
            forked.validation.passed(),
            scratch.validation.passed(),
            "{fault:?}"
        );
        let again = finish_fault_experiment(ckpt.fork(), fault.clone());
        assert_eq!(again.trace_hash, forked.trace_hash, "{fault:?} refork");
    }
}

/// A checkpoint taken *while a lossy link is actively dropping packets*
/// (some drops already consumed from the loss RNG, more to come) forks into
/// a run bit-identical to the original continued past the same point.
#[test]
fn checkpoint_mid_lossy_drops_replays_identically() {
    use flash::machine::FaultSpec;
    use flash::net::{NodeId, RouterId};
    use flash::sim::SimDuration;

    let cfg = quick_experiment(37);
    let mut m = prepare_fault_experiment(&cfg);
    let fault = FaultSpec::Multi(vec![
        FaultSpec::LossyLink(RouterId(0), RouterId(1), 200_000),
        FaultSpec::FailSlow(NodeId(3), 4),
    ]);
    m.schedule_fault(m.now() + SimDuration::from_nanos(1), fault);

    // Run in fine slices until at least one packet has been dropped, so
    // the checkpoint lands with the loss RNG mid-stream.
    let mut guard = 0;
    loop {
        m.run_for(SimDuration::from_micros(5));
        if m.st().fabric.counters().get("drop_lossy_link") > 0 {
            break;
        }
        guard += 1;
        assert!(guard < 2_000_000, "lossy link never dropped a packet");
    }

    let ckpt = m.checkpoint();
    let mut fork = ckpt.fork();
    let budget = m.now() + SimDuration::from_secs(20);
    m.run_until(budget);
    fork.run_until(budget);

    assert_eq!(m.now(), fork.now());
    assert_eq!(
        m.st().fabric.counters().get("drop_lossy_link"),
        fork.st().fabric.counters().get("drop_lossy_link"),
        "fork must replay the same drop sequence"
    );
    assert_eq!(
        m.st().obs.merged_hash(),
        fork.st().obs.merged_hash(),
        "mid-drop fork diverged from the original"
    );
}

/// End-to-end (Table 5.4 methodology): a parallel-make run forked from a
/// mid-make warm checkpoint hashes identically to a from-scratch run that
/// boots its own machine and warms to the same progress point.
#[test]
fn end_to_end_fork_matches_scratch_mid_make() {
    let mut params = MachineParams::table_5_1();
    params.n_nodes = 4;
    let hive = HiveConfig {
        n_cells: 4,
        files_per_task: 2,
        blocks_per_file: 8,
        out_blocks: 4,
        compute_ns: 10_000,
    };
    let recovery = RecoveryConfig::default();
    let fault = || {
        let mut rng = DetRng::new(77);
        random_fault(FaultKind::Node, params.n_nodes, &mut rng)
    };

    let mut warm = prepare_parallel_make(params, &hive, recovery, 5);
    warm.warm_to_percent(50);
    let forked = finish_parallel_make(warm.fork(), Some(fault()));

    let mut scratch_prep = prepare_parallel_make(params, &hive, recovery, 5);
    scratch_prep.warm_to_percent(50);
    let scratch = finish_parallel_make(scratch_prep, Some(fault()));

    assert!(forked.finished && scratch.finished);
    assert_eq!(forked.trace_hash, scratch.trace_hash);
    assert_eq!(forked.lines_reinitialized, scratch.lines_reinitialized);
    assert_eq!(forked.compiles, scratch.compiles);
}

/// Service-workload fork contract (the `hive-kv` serving harness): a KV
/// run forked from a mid-traffic warm checkpoint hashes identically to a
/// from-scratch run warmed to the same progress point, for fail-stop and
/// all four gray fault classes striking mid-traffic. The hash covers the
/// request-lifecycle trace events and replication-repair events, so any
/// divergence in arrival schedules, retry backoff, or repair ordering
/// across the checkpoint boundary shows up.
#[test]
fn kv_serving_fork_matches_scratch_for_every_fault_class() {
    use flash::hivekv::{finish_kv_serving, prepare_kv_serving, KvConfig};
    use flash::machine::FaultSpec;
    use flash::net::{NodeId, RouterId};

    let mut params = MachineParams::table_5_1();
    params.n_nodes = 4;
    let kv = KvConfig {
        n_cells: 4,
        chunks: 8,
        requests_per_shard: 60,
        ..KvConfig::default()
    };
    let recovery = RecoveryConfig::default();
    let faults: [Option<FaultSpec>; 6] = [
        None,
        Some(FaultSpec::Node(NodeId(2))),
        Some(FaultSpec::FailSlow(NodeId(2), 5)),
        Some(FaultSpec::DegradedMemory(NodeId(1), 30, 900)),
        Some(FaultSpec::LossyLink(RouterId(0), RouterId(1), 60_000)),
        Some(FaultSpec::PoolFailure {
            pool: vec![NodeId(1), NodeId(2)],
        }),
    ];

    let mut warm = prepare_kv_serving(params, &kv, recovery, 9);
    warm.warm_to_percent(50);
    for fault in faults {
        let forked = finish_kv_serving(warm.fork(), fault.clone());

        let mut scratch_prep = prepare_kv_serving(params, &kv, recovery, 9);
        scratch_prep.warm_to_percent(50);
        let scratch = finish_kv_serving(scratch_prep, fault.clone());

        assert!(forked.finished && scratch.finished, "{fault:?}");
        assert_eq!(
            forked.trace_hash, scratch.trace_hash,
            "{fault:?}: forked KV trace diverged from from-scratch"
        );
        assert_eq!(forked.stats.ok, scratch.stats.ok, "{fault:?}");
        assert_eq!(forked.stats.errors, scratch.stats.errors, "{fault:?}");
        assert_eq!(forked.stats.unserved, scratch.stats.unserved, "{fault:?}");
        assert_eq!(forked.checks.len(), scratch.checks.len(), "{fault:?}");
        assert!(
            forked.checks.is_empty(),
            "{fault:?}: serving invariants violated: {:?}",
            forked.checks
        );

        // Forks are independent: a second fork replays identically.
        let again = finish_kv_serving(warm.fork(), fault.clone());
        assert_eq!(again.trace_hash, forked.trace_hash, "{fault:?} refork");
    }
}

/// Checkpoints may be taken mid-recovery — between the P1 and P4 phase
/// entries — and a fork taken there still replays bit-identically: the
/// in-flight recovery messages and timed extension events are part of the
/// snapshot. (This is the "supported" branch of the supported-or-cleanly-
/// rejected contract; nothing needs rejecting.)
#[test]
fn checkpoint_mid_recovery_replays_identically() {
    use flash::sim::SimDuration;

    let cfg = quick_experiment(23);
    let mut m = prepare_fault_experiment(&cfg);
    let fault = {
        let mut rng = DetRng::new(0xAB);
        random_fault(FaultKind::Node, cfg.params.n_nodes, &mut rng)
    };
    m.schedule_fault(m.now() + SimDuration::from_nanos(1), fault);

    // Run in fine slices until the machine is inside recovery, strictly
    // past the P1 entry and before completion.
    let mut guard = 0;
    loop {
        m.run_for(SimDuration::from_micros(5));
        let entries = m.ext().phase_entries();
        if m.ext().recovery_active() && entries.p2.is_some() && !m.ext().report.completed() {
            break;
        }
        guard += 1;
        assert!(guard < 2_000_000, "never reached mid-recovery state");
    }
    let entries = m.ext().phase_entries();
    assert!(entries.p1.is_some() && entries.p2.is_some());
    assert!(
        entries.p4.is_none() || !m.ext().report.completed(),
        "checkpoint must land before recovery completes"
    );

    let ckpt = m.checkpoint();
    let mut fork = ckpt.fork();

    // Drive the original and the fork through identical horizons.
    let budget = m.now() + SimDuration::from_secs(20);
    m.run_until(budget);
    fork.run_until(budget);

    assert_eq!(m.now(), fork.now());
    assert_eq!(
        m.st().obs.merged_hash(),
        fork.st().obs.merged_hash(),
        "mid-recovery fork diverged from the original"
    );
    assert!(m.ext().report.completed());
    assert!(fork.ext().report.completed());
    assert!(m.st().validate().passed());
    assert!(fork.st().validate().passed());
}

/// Checkpoints taken across P3 — from just after its entry to just before
/// P4's, while survivors isolate, drain and install routes — fork into
/// runs that replay the uninterrupted run bit-identically: the routing
/// tables the survivors share are part of the snapshot.
#[test]
fn checkpoint_mid_p3_replays_identically() {
    use flash::sim::SimDuration;

    let cfg = quick_experiment(29);
    let start = || {
        let mut m = prepare_fault_experiment(&cfg);
        let fault = random_fault(FaultKind::Node, cfg.params.n_nodes, &mut DetRng::new(0xC3));
        m.schedule_fault(m.now() + SimDuration::from_nanos(1), fault);
        m
    };
    let mut whole = start();
    let budget = whole.now() + SimDuration::from_secs(20);
    whole.run_until(budget);
    assert!(whole.ext().report.completed());
    let entries = whole.ext().phase_entries();
    let p3 = entries.p3.expect("P3 entered");
    let span = entries.p4.expect("P4 entered").since(p3).as_nanos();
    for k in 0..5 {
        let at = p3 + SimDuration::from_nanos(1 + (span - 2) * k / 4);
        let mut m = start();
        m.run_until(at);
        let entries = m.ext().phase_entries();
        assert!(
            entries.p3.is_some() && entries.p4.is_none(),
            "checkpoint {k} lands in P3"
        );
        let mut fork = m.checkpoint().fork();
        m.run_until(budget);
        fork.run_until(budget);
        for (run, name) in [(&m, "sliced"), (&fork, "forked")] {
            assert_eq!(run.now(), whole.now(), "{name} at checkpoint {k}");
            assert_eq!(
                run.st().obs.merged_hash(),
                whole.st().obs.merged_hash(),
                "{name} run diverged at checkpoint {k}"
            );
            assert!(run.st().validate().passed());
        }
    }
}
