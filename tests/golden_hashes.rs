//! Golden trace hashes: the refactor oracle, pinned against earlier values.
//!
//! The other determinism tests compare two runs of the same build (a fork
//! against a from-scratch run, one worker count against another). This one
//! compares each run against the [`flash::obs::Recorder::merged_hash`] it
//! produced when the values below were recorded. A change that claims to
//! keep behaviour (a refactor, a deletion, a performance fix) must keep
//! every value; a change that moves one on purpose updates it here and says
//! why.
//!
//! Covered: one quick 8-node Table 5.3 experiment per fault type, one
//! checkpoint→fork run, a six-run campaign with two runs per harness, and
//! one hand-written schedule per harness that reaches the phase-entry and
//! OS-window arming paths (generated campaigns at these sizes draw only
//! steady events).

use flash::campaign::{
    generate, per_run_seed, run_campaign, run_schedule, CampaignConfig, FaultEvent,
    GeneratorConfig, InjectAt, Mode, Schedule,
};
use flash::core::{
    finish_fault_experiment, prepare_fault_experiment, random_fault, run_fault_experiment,
    ExperimentConfig, FaultKind,
};
use flash::machine::{FaultSpec, MachineParams};
use flash::net::NodeId;
use flash::sim::DetRng;

/// A short Table 5.3 experiment on the 8-node Table 5.1 machine.
fn quick_experiment(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), seed);
    cfg.fill_ops = 200;
    cfg.total_ops = 500;
    cfg
}

/// The fault of kind `kind` drawn from fault seed `seed`.
fn fault_of(kind: FaultKind, seed: u64) -> FaultSpec {
    random_fault(kind, 8, &mut DetRng::new(seed))
}

/// Machine seed 3, fault seed `0x60 + i` for the `i`-th kind of
/// [`FaultKind::ALL`].
const FAULT_KIND_HASHES: [(FaultKind, u64); 5] = [
    (FaultKind::Node, 0x6415_c5a2_afce_f9e8),
    (FaultKind::Router, 0x6298_3507_e895_78f1),
    (FaultKind::Link, 0xe11d_9df5_ac02_0c44),
    (FaultKind::InfiniteLoop, 0x6d80_a7d6_d141_34cf),
    (FaultKind::FalseAlarm, 0x615e_3331_403d_72d5),
];

/// Machine seed 5, a `Node` fault from fault seed `0x65`, run on a fork of
/// the warm checkpoint.
const FORK_HASH: u64 = 0x0608_0652_e878_17c8;

/// The campaign's master seed: the first one whose six runs split two per
/// harness under [`campaign_generator`].
const CAMPAIGN_SEED: u64 = 29;

/// Per-run hashes of the six-run campaign, in run order (KV, Hive,
/// machine, KV, Hive, machine).
const CAMPAIGN_HASHES: [u64; 6] = [
    0xa7b8_6b15_35f9_37d8,
    0xa3db_6e60_6cbb_8568,
    0xd975_cdd6_1bab_0c03,
    0x824a_e591_0de7_9230,
    0x284c_93bc_baef_9834,
    0x7cb2_b94c_9ba8_896d,
];

/// 8-node schedules with at most two fault events, a third of them Hive
/// and half of the rest KV serving.
fn campaign_generator() -> GeneratorConfig {
    GeneratorConfig {
        min_nodes: 8,
        max_nodes: 8,
        max_events: 2,
        hive_chance: 1.0 / 3.0,
        kv_chance: 0.5,
        gray_chance: 0.3,
        ..GeneratorConfig::default()
    }
}

#[test]
fn every_fault_kind_keeps_its_trace_hash() {
    let cfg = quick_experiment(3);
    for (i, &(kind, golden)) in FAULT_KIND_HASHES.iter().enumerate() {
        let out = run_fault_experiment(&cfg, fault_of(kind, 0x60 + i as u64));
        assert!(
            out.passed(),
            "{kind:?}: {:?} / {}",
            out.recovery,
            out.validation
        );
        assert_eq!(
            out.trace_hash, golden,
            "{kind:?}: trace hash {:#018x} moved from {golden:#018x}",
            out.trace_hash
        );
    }
}

#[test]
fn forked_run_keeps_its_trace_hash() {
    let ckpt = prepare_fault_experiment(&quick_experiment(5)).checkpoint();
    let out = finish_fault_experiment(ckpt.fork(), fault_of(FaultKind::Node, 0x65));
    assert!(out.passed(), "{:?} / {}", out.recovery, out.validation);
    assert_eq!(
        out.trace_hash, FORK_HASH,
        "trace hash {:#018x} moved from {FORK_HASH:#018x}",
        out.trace_hash
    );
}

#[test]
fn campaign_keeps_its_trace_hashes() {
    let gen = campaign_generator();
    let modes: Vec<Mode> = (0..6)
        .map(|i| generate(per_run_seed(CAMPAIGN_SEED, i), &gen).mode)
        .collect();
    for mode in [Mode::Machine, Mode::Hive, Mode::HiveKv] {
        assert_eq!(modes.iter().filter(|&&m| m == mode).count(), 2, "{modes:?}");
    }
    let report = run_campaign(&CampaignConfig {
        master_seed: CAMPAIGN_SEED,
        runs: 6,
        workers: 2,
        generator: gen,
        ..CampaignConfig::default()
    });
    let hashes: Vec<u64> = report.records.iter().map(|r| r.trace_hash).collect();
    assert_eq!(
        hashes, CAMPAIGN_HASHES,
        "campaign trace hashes moved: {:#018x?}",
        hashes
    );
}

/// An 8-node schedule for `mode` that dooms node 3 at the steady point,
/// node 5 500 ns after the first P2 entry, and node 6 in the OS recovery
/// window (a late steady fault in machine mode).
fn arming_schedule(mode: Mode) -> Schedule {
    Schedule {
        seed: 41,
        n_nodes: 8,
        mode,
        fill_ops: 120,
        total_ops: 350,
        firewall_enabled: true,
        events: vec![
            FaultEvent {
                at: InjectAt::Steady { offset_ns: 0 },
                fault: FaultSpec::Node(NodeId(3)),
            },
            FaultEvent {
                at: InjectAt::PhaseEntry {
                    phase: 2,
                    delay_ns: 500,
                },
                fault: FaultSpec::Node(NodeId(5)),
            },
            FaultEvent {
                at: InjectAt::DuringOsRecovery,
                fault: FaultSpec::Node(NodeId(6)),
            },
        ],
    }
}

/// Per harness: trace hash, phase hits, OS-window hits. Every run finishes
/// and passes the invariant stack.
const ARMING_PINS: [(Mode, u64, [u64; 4], u64); 3] = [
    (Mode::Machine, 0xd78b_5f22_5852_3a62, [0, 1, 0, 0], 0),
    (Mode::Hive, 0x6a9b_e2f8_79df_a6b2, [0, 1, 0, 0], 1),
    (Mode::HiveKv, 0x086d_2187_9e70_29a2, [0, 1, 0, 0], 1),
];

#[test]
fn phase_entry_and_os_window_arming_keep_their_trace_hashes() {
    for (mode, hash, phase_hits, os_hits) in ARMING_PINS {
        let r = run_schedule(&arming_schedule(mode));
        assert!(r.finished, "{mode:?} did not finish");
        assert!(r.passed(), "{mode:?}: {:?}", r.violations);
        assert_eq!(r.phase_hits, phase_hits, "{mode:?} phase hits");
        assert_eq!(r.os_recovery_hits, os_hits, "{mode:?} OS-window hits");
        assert_eq!(
            r.trace_hash, hash,
            "{mode:?}: trace hash {:#018x} moved from {hash:#018x}",
            r.trace_hash
        );
    }
}

/// A machine-mode schedule with one fault at the steady point runs the
/// Table 5.3 experiment: same machine, fill, fault time and trace.
#[test]
fn machine_schedule_matches_the_table_5_3_experiment() {
    let params = MachineParams::tiny();
    for fault in [FaultSpec::FalseAlarm(NodeId(1)), FaultSpec::Node(NodeId(2))] {
        let s = Schedule {
            seed: 17,
            n_nodes: params.n_nodes,
            mode: Mode::Machine,
            fill_ops: 120,
            total_ops: 350,
            firewall_enabled: params.magic.firewall_enabled,
            events: vec![FaultEvent {
                at: InjectAt::Steady { offset_ns: 0 },
                fault: fault.clone(),
            }],
        };
        let mut cfg = ExperimentConfig::new(params, s.seed);
        cfg.fill_ops = s.fill_ops;
        cfg.total_ops = s.total_ops;
        cfg.write_fraction = 0.5;
        let experiment = run_fault_experiment(&cfg, fault.clone());
        let record = run_schedule(&s);
        assert!(experiment.passed() && record.passed(), "{fault:?}");
        assert_eq!(record.finished, experiment.finished, "{fault:?}");
        assert_eq!(record.trace_hash, experiment.trace_hash, "{fault:?}");
    }
}
