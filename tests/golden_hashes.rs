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
//!
//! Those runs trace with the default mask, which leaves the hot domains
//! (Sim, Net, Coherence, Magic) off, so two more runs trace every domain
//! into rings large enough to drop nothing: their hashes cover every fabric
//! send, drop and delivery. One is a Router fault; the other a Node fault
//! under the reliable interconnect, whose P4 prunes the directories instead
//! of resetting them.
//!
//! A trace hash does not cover the [`RecoveryReport`], the phase-entry
//! times or the incarnation number, which the recovery extension fills in
//! beside the trace. Those are pinned here as well: for the per-kind
//! experiments, the majority halt, a second fault at three distances from
//! the first, and the restart count of each arming schedule.

use flash::campaign::{
    generate, per_run_seed, run_campaign, run_schedule, CampaignConfig, FaultEvent,
    GeneratorConfig, InjectAt, Mode, Schedule,
};
use flash::core::{
    build_machine, finish_fault_experiment, prepare_fault_experiment, random_fault,
    run_fault_experiment, run_to_quiescence, warm_until, ExperimentConfig, FaultKind, FcMachine,
    RecoveryConfig, RecoveryReport, RunEnd,
};
use flash::machine::{FaultSpec, MachineParams, RandomFill};
use flash::net::NodeId;
use flash::obs::Recorder;
use flash::sim::{DetRng, SimDuration, SimTime};

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

/// [`report_figures`] of the [`FAULT_KIND_HASHES`] runs, in the same order.
const FAULT_KIND_REPORTS: [[u64; 14]; 5] = [
    [
        260_311, 5_261_281, 6_868_741, 7_263_741, 17_710_749, 260_911, 7_263_161, 17_094_601, 0,
        118, 716, 7, 0, 0,
    ],
    [
        259_593, 760_473, 2_485_663, 2_881_033, 13_328_489, 259_963, 2_880_353, 12_712_013, 0, 119,
        702, 7, 0, 0,
    ],
    [
        160_121, 661_171, 2_428_721, 2_824_341, 13_271_909, 160_749, 2_823_661, 12_655_321, 0, 1,
        952, 8, 0, 0,
    ],
    [
        260_151, 5_261_121, 6_868_711, 7_263_531, 17_710_619, 260_601, 7_262_971, 17_094_391, 0,
        97, 754, 7, 0, 0,
    ],
    [
        160_001, 661_011, 2_428_971, 2_824_661, 13_271_989, 160_501, 2_823_981, 12_655_641, 0, 0,
        950, 8, 0, 0,
    ],
];

/// A recovery report's figures in a fixed order, `u64::MAX` for an unset
/// time: trigger, P1–P4 done, trigger wave complete, P4 start and flush
/// done (ns); then restarts, lines marked incoherent, flush writebacks,
/// nodes resumed, nodes shut down and machine halted (0 or 1).
fn report_figures(r: &RecoveryReport) -> [u64; 14] {
    let p = &r.phases;
    [
        ns(p.triggered_at),
        ns(p.p1_done),
        ns(p.p2_done),
        ns(p.p3_done),
        ns(p.p4_done),
        ns(r.wave_complete_at),
        ns(r.p4_started_at),
        ns(r.flush_done_at),
        r.restarts.into(),
        r.lines_marked_incoherent,
        r.flush_writebacks,
        r.nodes_resumed.into(),
        r.nodes_shut_down.into(),
        r.machine_halted.into(),
    ]
}

/// A pinned time in ns, `u64::MAX` when unset.
fn ns(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, SimTime::as_nanos)
}

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
        assert_eq!(
            report_figures(&out.recovery),
            FAULT_KIND_REPORTS[i],
            "{kind:?}: recovery report moved"
        );
    }
}

/// Machine seed 10 and the Router fault of fault seed `0x61` (router 6),
/// traced with every domain on: the merged hash and the number of events
/// dispatched. Seed 10 is the first machine seed whose quick run also
/// drains a dead router's buffer.
const FULL_TRACE_PIN: (u64, u64) = (0x2a25_2396_b75b_1c83, 72_505);

/// Ring capacity per domain for the full trace; the run retains every
/// record.
const FULL_TRACE_CAPACITY: usize = 1 << 22;

/// Runs `cfg` with `fault` injected once every node has done its fill,
/// tracing every domain into rings that drop nothing, and drains it; the
/// recovery must complete and the oracle must pass.
fn full_trace_run(cfg: ExperimentConfig, fault: FaultSpec) -> FcMachine {
    let layout = cfg.params.layout();
    let (total_ops, write_fraction) = (cfg.total_ops, cfg.write_fraction);
    let mut m = build_machine(
        cfg.params,
        cfg.recovery,
        move |_| {
            Box::new(RandomFill::valid_system_range(
                total_ops,
                write_fraction,
                layout,
            ))
        },
        cfg.seed,
    );
    let mut rec = Recorder::with_capacity(FULL_TRACE_CAPACITY);
    rec.enable_all();
    m.st_mut().obs = rec;
    m.set_event_budget(2_000_000_000);
    m.start();
    warm_until(&mut m, SimDuration::from_micros(20), |m| {
        m.st()
            .nodes
            .iter()
            .all(|n| n.workload.progress() >= cfg.fill_ops)
    });
    m.schedule_fault(m.now() + SimDuration::from_nanos(1), fault);
    assert_eq!(run_to_quiescence(&mut m, &mut true), RunEnd::Settled);
    assert!(m.ext().report.completed(), "{:?}", m.ext().report);
    let validation = m.st().validate();
    assert!(validation.passed(), "{validation}");
    assert_eq!(
        m.st().obs.dropped_total(),
        0,
        "the full trace must be complete"
    );
    m
}

/// The full trace's merged hash and the number of events dispatched.
fn full_trace_pin(m: &FcMachine) -> (u64, u64) {
    (m.st().obs.merged_hash(), m.events_processed())
}

#[test]
fn router_fault_keeps_its_full_trace_hash() {
    let m = full_trace_run(quick_experiment(10), fault_of(FaultKind::Router, 0x61));
    // The run reaches both dead-router paths: packets sunk on landing at
    // the dead router, and its buffers drained.
    let c = m.st().fabric.counters();
    assert!(c.get("drop_dead_router") > 0, "{c}");
    assert!(c.get("drop_dead_router_buffer") > 0, "{c}");
    let got = full_trace_pin(&m);
    assert_eq!(
        got, FULL_TRACE_PIN,
        "full trace (hash, events) moved: ({:#018x}, {})",
        got.0, got.1
    );
}

/// Machine seed 11, 1,000 ops per node and a `Node` fault on node 3 under
/// the §6.3 reliable interconnect, traced with every domain on: P4 prunes
/// the directories (`Directory::scan_and_prune`) instead of flushing and
/// resetting them, a path no other pin covers. At 500 ops no later access
/// reaches a pruned line, so the run would hash the same if the prune left
/// the dead node among a line's sharers.
const PRUNE_TRACE_PIN: (u64, u64) = (0xfb9a_179f_f5f5_440c, 114_372);

#[test]
fn pruned_recovery_keeps_its_full_trace_hash() {
    let victim = NodeId(3);
    let mut cfg = quick_experiment(11);
    cfg.total_ops = 1_000;
    cfg.recovery = RecoveryConfig {
        reliable_interconnect: true,
        ..RecoveryConfig::default()
    };
    let m = full_trace_run(cfg, FaultSpec::Node(victim));
    let report = &m.ext().report;
    // Nothing was flushed, and the prune marked the dead owner's lines.
    assert_eq!(report.flush_writebacks, 0, "{report:?}");
    assert!(report.lines_marked_incoherent > 0, "{report:?}");
    // No live directory still lists the dead node as a sharer.
    for node in m.st().nodes.iter().filter(|n| n.is_alive()) {
        for (line, state) in node.dir.iter_states() {
            let sharers = node.dir.sharers(line);
            assert!(!sharers.contains(victim), "{line:?} {state:?} {sharers:?}");
        }
    }
    let got = full_trace_pin(&m);
    assert_eq!(
        got, PRUNE_TRACE_PIN,
        "pruned full trace (hash, events) moved: ({:#018x}, {})",
        got.0, got.1
    );
}

/// [`report_figures`] of `multi_fault.rs`'s majority failure: nodes 1–5
/// of 8 die at once, and the split-brain heuristic halts the machine.
const MAJORITY_HALT_REPORT: [u64; 14] = [
    399_850,
    23_399_960,
    23_854_870,
    u64::MAX,
    u64::MAX,
    402_278,
    u64::MAX,
    u64::MAX,
    0,
    0,
    0,
    0,
    0,
    1,
];

#[test]
fn majority_halt_keeps_its_recovery_report() {
    let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), 25);
    cfg.fill_ops = 400;
    cfg.total_ops = 1_200;
    let fault = FaultSpec::Multi((1..=5).map(|i| FaultSpec::Node(NodeId(i))).collect());
    let out = run_fault_experiment(&cfg, fault);
    assert!(out.recovery.machine_halted, "{:?}", out.recovery);
    assert_eq!(report_figures(&out.recovery), MAJORITY_HALT_REPORT);
}

/// Per delay of the second fault (ms): [`report_figures`], the final
/// incarnation, and the phase-entry times P1–P4 of that incarnation (ns,
/// `u64::MAX` for a phase not entered).
///
/// At +2 ms the second death lands in the first recovery's P1; at +8 ms it
/// lands in that recovery's P4, so P1–P3 done come from the first
/// incarnation and P4 done from the last; at +60 ms the first recovery has
/// completed and the second death opens a new episode. Its trigger-wave
/// end (5.00 ms after its trigger), P4 start and flush end are that
/// episode's own, not the first episode's. `restarts` is 1 there although
/// neither episode restarted: it counts every incarnation after the first.
const SECOND_FAULT_PINS: [(u64, [u64; 14], u32, [u64; 4]); 3] = [
    (
        2,
        [
            399_726,
            9_900_656,
            416_515_156,
            416_909_626,
            427_356_214,
            400_216,
            416_909_136,
            426_740_366,
            2,
            368,
            1002,
            6,
            0,
            0,
        ],
        3,
        [400_900_506, 401_400_956, 416_431_916, 416_909_136],
    ),
    (
        8,
        [
            399_726,
            5_400_696,
            7_008_286,
            7_403_116,
            443_689_234,
            400_216,
            7_402_556,
            443_073_386,
            2,
            170,
            1383,
            6,
            0,
            0,
        ],
        3,
        [417_233_346, 417_733_396, 432_764_846, 433_242_156],
    ),
    (
        60,
        [
            60_450_000, 74_950_900, 76_065_060, 76_459_550, 86_906_010, 65_450_380, 76_459_060,
            86_290_290, 1, 975, 6309, 13, 0, 0,
        ],
        2,
        [60_450_000, 60_950_440, 75_981_840, 76_459_060],
    ),
];

#[test]
fn second_fault_keeps_its_recovery_report() {
    for (delay_ms, figures, incarnation, entries) in SECOND_FAULT_PINS {
        let params = MachineParams::table_5_1();
        let layout = params.layout();
        let mut m = build_machine(
            params,
            RecoveryConfig::default(),
            move |_| Box::new(RandomFill::valid_system_range(3_000, 0.5, layout)),
            24,
        );
        m.start();
        m.run_for(SimDuration::from_micros(300));
        m.schedule_fault(
            m.now() + SimDuration::from_nanos(1),
            FaultSpec::Node(NodeId(2)),
        );
        m.schedule_fault(
            m.now() + SimDuration::from_millis(delay_ms),
            FaultSpec::Node(NodeId(6)),
        );
        m.run_until(SimTime::MAX);
        let ext = m.ext();
        assert!(ext.report.completed(), "+{delay_ms} ms: {:?}", ext.report);
        let e = ext.phase_entries();
        let got = (
            report_figures(&ext.report),
            ext.incarnation(),
            [e.p1, e.p2, e.p3, e.p4].map(ns),
        );
        assert_eq!(
            got,
            (figures, incarnation, entries),
            "+{delay_ms} ms: recovery report moved"
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

/// Per harness: trace hash, phase hits, OS-window hits, recovery restarts.
/// Every run finishes and passes the invariant stack.
const ARMING_PINS: [(Mode, u64, [u64; 4], u64, u32); 3] = [
    (Mode::Machine, 0xd78b_5f22_5852_3a62, [0, 1, 0, 0], 0, 2),
    (Mode::Hive, 0x6a9b_e2f8_79df_a6b2, [0, 1, 0, 0], 1, 3),
    (Mode::HiveKv, 0x086d_2187_9e70_29a2, [0, 1, 0, 0], 1, 2),
];

#[test]
fn phase_entry_and_os_window_arming_keep_their_trace_hashes() {
    for (mode, hash, phase_hits, os_hits, restarts) in ARMING_PINS {
        let r = run_schedule(&arming_schedule(mode));
        assert!(r.finished, "{mode:?} did not finish");
        assert!(r.passed(), "{mode:?}: {:?}", r.violations);
        assert_eq!(r.phase_hits, phase_hits, "{mode:?} phase hits");
        assert_eq!(r.os_recovery_hits, os_hits, "{mode:?} OS-window hits");
        assert_eq!(r.restarts, restarts, "{mode:?} restarts");
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
