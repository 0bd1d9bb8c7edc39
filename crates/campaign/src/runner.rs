//! Schedule execution and the parallel campaign driver.
//!
//! [`run_schedule`] executes one [`Schedule`] deterministically: it drives
//! the simulation in fixed slices, arms steady faults after the workload
//! prelude, arms phase-entry faults by polling the recovery extension's
//! machine-wide phase-entry times between slices, models the dying master's
//! stray write (the wild write the MAGIC firewall exists to block,
//! Section 3.1), and runs the invariant stack on the final state.
//!
//! [`run_campaign`] fans runs across worker threads with deterministic
//! per-run seeds, so a campaign's outcome is independent of worker count
//! and every failure is replayable from its seed alone.

use crate::invariants::{self, GrayFacts, RunContext, Violation};
use crate::schedule::{generate, FaultEvent, GeneratorConfig, InjectAt, Mode, Schedule};
use flash_coherence::{LineAddr, NodeSet};
use flash_core::{build_machine, FcMachine, RecoveryConfig};
use flash_hive::{os, CellLayout, CompileTask, HiveConfig, ServerLoop, TaskState};
use flash_hivekv::{prepare_kv_serving, KvConfig, KvStats};
use flash_machine::{FaultSpec, Idle, MachineParams, ProcState, RandomFill};
use flash_net::NodeId;
use flash_sim::{DetRng, RunOutcome, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The three-way containment verdict of one run (the revised oracle: a
/// fail-slow fault may legitimately go undetected, so "no recovery ran" is
/// only a failure when a fail-stop fault fired).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A node-dooming (fail-stop) fault fired; recovery contained it.
    Contained,
    /// Nothing was doomed, but detection hardware noticed the fault (NAK
    /// overflow, timeout, false alarm) and recovery ran to completion.
    DetectedRecovered,
    /// No detection fired and the machine survived, possibly degraded —
    /// the legitimate quiet outcome of a gray fault.
    SurvivedDegraded,
}

impl Verdict {
    /// Stable string tag (result sheets, JSON).
    pub fn kind_str(&self) -> &'static str {
        match self {
            Verdict::Contained => "contained",
            Verdict::DetectedRecovered => "detected_recovered",
            Verdict::SurvivedDegraded => "survived_degraded",
        }
    }
}

/// The outcome of one schedule execution.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The schedule that was run (self-contained replay input).
    pub schedule: Schedule,
    /// Invariant violations found on the final state (empty = pass).
    pub violations: Vec<Violation>,
    /// Whether the run reached a terminal state within its budget.
    pub finished: bool,
    /// Final simulated time, ns.
    pub end_time_ns: u64,
    /// Recovery restarts observed.
    pub restarts: u32,
    /// Faults that fired during each recovery phase (P1–P4).
    pub phase_hits: [u64; 4],
    /// Faults injected during the Hive OS recovery pass.
    pub os_recovery_hits: u64,
    /// The containment verdict.
    pub verdict: Verdict,
    /// Nanoseconds from the first fired fault to the recovery trigger, when
    /// both happened (in that order).
    pub detect_latency_ns: Option<u64>,
    /// Rendered machine trace; captured only when violations were found.
    pub trace: String,
    /// FNV-1a hash of the merged trace (always captured; worker-count
    /// independent, so campaigns can assert trace determinism cheaply).
    pub trace_hash: u64,
    /// Trace records evicted from the bounded recorder rings.
    pub trace_dropped: u64,
    /// Flight-recorder tail (last trace events) as a JSON array; captured
    /// only when violations were found.
    pub trace_tail_json: String,
    /// Metrics snapshot as a JSON object; captured only when violations
    /// were found.
    pub metrics_json: String,
    /// User-visible serving statistics (KV mode only).
    pub kv: Option<KvStats>,
}

impl RunRecord {
    /// Whether the run passed the whole invariant stack.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Whether a fired fault is guaranteed to be detected. Any node-dooming
/// fault is: live traffic referencing the dead home times out, fail-fast
/// assertions self-trigger, and when both of those are quiet the machine's
/// heartbeat audit raises the trigger within one heartbeat period — so the
/// oracle never excuses an undetected fail-stop fault.
fn detectable_fault(f: &FaultSpec) -> bool {
    !f.doomed_nodes().is_empty()
}

/// Schedules `fault` and models the dying master's stray write: one store
/// aimed at `target`'s MAGIC-protected tail page, submitted to the target's
/// firewall. With the firewall enabled the write is denied (containment);
/// with it disabled — the deliberately seeded bug — the write lands and the
/// oracle-based invariants must catch it.
fn inject(m: &mut FcMachine, at: SimTime, fault: &FaultSpec, wild_target: NodeId) {
    m.schedule_fault(at, fault.clone());
    if let Some(&victim) = fault.doomed_nodes().first() {
        let st = m.st_mut();
        let lpn = st.layout.lines_per_node();
        let line = LineAddr((wild_target.index() as u64 + 1) * lpn - 1);
        if st.nodes[wild_target.index()]
            .firewall
            .may_write(line.page(), victim)
        {
            let v = st.nodes[wild_target.index()].dir.mem_version(line).next();
            st.nodes[wild_target.index()].dir.recovery_put(line, v);
            st.counters.incr("wild_writes_landed");
        } else {
            st.counters.incr("wild_writes_blocked");
        }
    }
}

/// A fault that has been scheduled into the machine.
struct Armed {
    at: SimTime,
    fault: FaultSpec,
}

/// Executes one schedule and checks the invariant stack.
pub fn run_schedule(s: &Schedule) -> RunRecord {
    match s.mode {
        Mode::Machine => run_machine_schedule(s),
        Mode::Hive => run_hive_schedule(s),
        Mode::HiveKv => run_kv_schedule(s),
    }
}

#[allow(clippy::too_many_arguments)]
fn finalize(
    m: &FcMachine,
    s: &Schedule,
    finished: bool,
    detectable: bool,
    phase_hits: [u64; 4],
    os_recovery_hits: u64,
    extra: Vec<Violation>,
    fired: &[FaultSpec],
    first_inject: Option<SimTime>,
) -> RunRecord {
    let gray = GrayFacts::from_faults(fired);
    let triggered_at = m.ext().report.phases.triggered_at;
    // The revised three-way oracle. Ordering matters: a doomed node means
    // the run exercised fail-stop containment whatever else fired.
    let verdict = if gray.doomed_any {
        Verdict::Contained
    } else if triggered_at.is_some() {
        Verdict::DetectedRecovered
    } else {
        Verdict::SurvivedDegraded
    };
    let detect_latency_ns = match (first_inject, triggered_at) {
        (Some(i), Some(t)) if t >= i => Some(t.since(i).as_nanos()),
        _ => None,
    };
    let ctx = RunContext {
        finished,
        detectable_fault_fired: detectable,
        hive: s.mode == Mode::Hive,
        required_progress: if s.mode == Mode::Machine {
            s.total_ops
        } else {
            0
        },
        gray,
    };
    let mut violations = invariants::check_all(m, &ctx);
    violations.extend(extra);
    let obs = &m.st().obs;
    // Flight-recorder mode: the event tail and metrics snapshot are only
    // materialized for failing runs (the post-mortem input).
    let (trace, trace_tail_json, metrics_json) = if violations.is_empty() {
        (String::new(), String::new(), String::new())
    } else {
        (
            obs.render(),
            flash_obs::tail_json(obs, 64),
            obs.metrics.snapshot_json(),
        )
    };
    RunRecord {
        schedule: s.clone(),
        violations,
        finished,
        end_time_ns: m.now().as_nanos(),
        restarts: m.ext().report.restarts,
        phase_hits,
        os_recovery_hits,
        verdict,
        detect_latency_ns,
        trace,
        trace_hash: obs.merged_hash(),
        trace_dropped: obs.dropped_total(),
        trace_tail_json,
        metrics_json,
        kv: None,
    }
}

// ----------------------------------------------------------------------
// Machine mode (Section 5.2 harness)
// ----------------------------------------------------------------------

fn run_machine_schedule(s: &Schedule) -> RunRecord {
    let mut params = MachineParams::tiny();
    params.n_nodes = s.n_nodes;
    params.magic.firewall_enabled = s.firewall_enabled;
    let layout = params.layout();
    let protected = params.protected_lines;
    let total_ops = s.total_ops;
    let mut m = build_machine(
        params,
        RecoveryConfig::default(),
        move |_| {
            Box::new(RandomFill::valid_system_range(
                total_ops, 0.5, layout, protected,
            ))
        },
        s.seed,
    );
    // Firewall policy for the stand-alone harness: each node's
    // MAGIC-protected tail pages are writable only by the node itself
    // (Hive installs the equivalent per-cell policy via `os::configure`).
    {
        let st = m.st_mut();
        let lpn = layout.lines_per_node();
        for i in 0..s.n_nodes {
            let first = LineAddr((i as u64 + 1) * lpn - protected).page();
            let last = LineAddr((i as u64 + 1) * lpn - 1).page();
            for p in first.0..=last.0 {
                st.nodes[i].firewall.restrict(
                    flash_coherence::PageAddr(p),
                    NodeSet::singleton(NodeId(i as u16)),
                );
            }
        }
    }
    m.set_event_budget(2_000_000_000);
    m.start();

    // Cache-fill prelude.
    let slice = SimDuration::from_micros(20);
    let mut guard = 0;
    loop {
        let horizon = m.now() + slice;
        let out = m.run_until(horizon);
        if m.st()
            .nodes
            .iter()
            .all(|n| n.workload.progress() >= s.fill_ops)
        {
            break;
        }
        guard += 1;
        if guard > 1_000_000 || out == RunOutcome::Drained {
            break;
        }
    }

    // Arm steady events; queue phase-entry events for slice-time arming.
    let steady_base = m.now();
    let mut armed: Vec<Armed> = Vec::new();
    let mut pending: Vec<(u8, u64, FaultSpec)> = Vec::new();
    let mut phase_hits = [0u64; 4];
    let mut detectable = false;
    for FaultEvent { at, fault } in &s.events {
        match *at {
            InjectAt::Steady { offset_ns } => {
                let at = steady_base + SimDuration::from_nanos(1 + offset_ns);
                inject(&mut m, at, fault, NodeId(0));
                detectable |= detectable_fault(fault);
                armed.push(Armed {
                    at,
                    fault: fault.clone(),
                });
            }
            InjectAt::PhaseEntry { phase, delay_ns } => {
                pending.push((phase, delay_ns, fault.clone()));
            }
            // No OS pass in machine mode: fires as a late steady fault.
            InjectAt::DuringOsRecovery => {
                let at = steady_base + SimDuration::from_micros(600);
                inject(&mut m, at, fault, NodeId(0));
                detectable |= detectable_fault(fault);
                armed.push(Armed {
                    at,
                    fault: fault.clone(),
                });
            }
        }
    }

    let horizon = m.now() + SimDuration::from_secs(20);
    let mut finished = false;
    loop {
        // Arm any phase-entry faults whose phase has now been entered.
        let entries = m.ext().phase_entries();
        let mut i = 0;
        while i < pending.len() {
            if entries.entered(pending[i].0).is_some() {
                let (phase, delay_ns, fault) = pending.remove(i);
                let at = m.now() + SimDuration::from_nanos(1 + delay_ns);
                phase_hits[phase as usize - 1] += 1;
                inject(&mut m, at, &fault, NodeId(0));
                detectable |= detectable_fault(&fault);
                armed.push(Armed { at, fault });
            } else {
                i += 1;
            }
        }
        if pending.is_empty() {
            let out = m.run_until(horizon);
            finished = out == RunOutcome::Drained;
            break;
        }
        let step = m.now() + SimDuration::from_micros(10);
        let out = m.run_until(step);
        if out == RunOutcome::Drained {
            finished = true;
            break;
        }
        if m.now() >= horizon {
            break;
        }
    }

    // The fired-fault list is the *armed* list: a drained run has fired
    // every event it queued, while never-armed phase events did not happen.
    let fired: Vec<FaultSpec> = armed.iter().map(|a| a.fault.clone()).collect();
    let first_inject = armed.iter().map(|a| a.at).min();
    finalize(
        &m,
        s,
        finished,
        detectable,
        phase_hits,
        0,
        Vec::new(),
        &fired,
        first_inject,
    )
}

// ----------------------------------------------------------------------
// Hive mode (Table 5.4 harness)
// ----------------------------------------------------------------------

fn campaign_hive_config() -> HiveConfig {
    HiveConfig {
        n_cells: 4,
        files_per_task: 2,
        blocks_per_file: 16,
        out_blocks: 8,
        compute_ns: 10_000,
        ..HiveConfig::default()
    }
}

fn run_hive_schedule(s: &Schedule) -> RunRecord {
    let hive = campaign_hive_config();
    let mut params = MachineParams::table_5_1();
    params.n_nodes = s.n_nodes;
    params.magic.firewall_enabled = s.firewall_enabled;
    let layout = CellLayout::contiguous(params.n_nodes, hive.n_cells);
    let server = layout.boot_node(0);

    let mut m: FcMachine = build_machine(
        params,
        RecoveryConfig::default(),
        |_| Box::new(Idle),
        s.seed,
    );
    let placement = os::configure(&mut m, &layout, &hive);
    let lines_per_node = m.st().layout.lines_per_node();
    let client_nodes: Vec<NodeId> = (1..hive.n_cells).map(|c| layout.boot_node(c)).collect();
    let kernel_line = |node: NodeId| os::own_region(node, lines_per_node, params.protected_lines).0;
    {
        let st = m.st_mut();
        let n_all = params.n_nodes;
        let peers_of = move |me: NodeId| -> Vec<u64> {
            (0..n_all)
                .map(|i| NodeId(i as u16))
                .filter(|&b| b != me)
                .map(kernel_line)
                .collect()
        };
        st.nodes[server.index()].workload =
            Box::new(ServerLoop::new(placement.server_data, 20_000).with_monitor(peers_of(server)));
        for &client in &client_nodes {
            let own = os::own_region(client, lines_per_node, params.protected_lines);
            let task = CompileTask::new(
                server,
                hive.files_per_task,
                hive.blocks_per_file,
                hive.out_blocks,
                hive.compute_ns,
                placement.server_data,
                own,
                hive.cross_writes.then_some(placement.scratch),
            )
            .with_monitor(peers_of(client));
            st.nodes[client.index()].workload = Box::new(task);
        }
    }
    m.set_event_budget(4_000_000_000);
    m.start();

    // Wild writes must land in a cell the victim does not belong to; aiming
    // at a fixed foreign boot node keeps the model deterministic.
    let wild_target = |victim: NodeId| {
        let c = layout.cell_of(victim);
        layout.boot_node(if c == 0 { 1 } else { 0 })
    };

    // Run until one compile passes the injection threshold.
    let inject_threshold = hive.ops_per_task() * 3 / 10;
    let mut guard = 0;
    loop {
        m.run_for(SimDuration::from_micros(50));
        let ready = client_nodes
            .iter()
            .any(|c| m.st().nodes[c.index()].workload.progress() >= inject_threshold);
        if ready || guard > 2_000_000 {
            break;
        }
        guard += 1;
    }

    // Arm events.
    let steady_base = m.now();
    let mut armed: Vec<Armed> = Vec::new();
    let mut pending: Vec<(u8, u64, FaultSpec)> = Vec::new();
    let mut os_events: Vec<FaultSpec> = Vec::new();
    let mut phase_hits = [0u64; 4];
    let mut detectable = false;
    for FaultEvent { at, fault } in &s.events {
        match *at {
            InjectAt::Steady { offset_ns } => {
                let at = steady_base + SimDuration::from_nanos(1 + offset_ns);
                let target = fault
                    .doomed_nodes()
                    .first()
                    .map_or(NodeId(0), |&v| wild_target(v));
                inject(&mut m, at, fault, target);
                detectable |= detectable_fault(fault);
                armed.push(Armed {
                    at,
                    fault: fault.clone(),
                });
            }
            InjectAt::PhaseEntry { phase, delay_ns } => {
                pending.push((phase, delay_ns, fault.clone()));
            }
            InjectAt::DuringOsRecovery => os_events.push(fault.clone()),
        }
    }

    // Main loop: drive to terminal compiles + completed recovery, arming
    // phase-entry faults between slices (mirrors `run_parallel_make`).
    let mut finished = false;
    let mut detect_wait = 0u32;
    let budget = 400_000; // x 50us = 20s of simulated time
    for _ in 0..budget {
        let entries = m.ext().phase_entries();
        let mut i = 0;
        while i < pending.len() {
            if entries.entered(pending[i].0).is_some() {
                let (phase, delay_ns, fault) = pending.remove(i);
                let at = m.now() + SimDuration::from_nanos(1 + delay_ns);
                phase_hits[phase as usize - 1] += 1;
                let target = fault
                    .doomed_nodes()
                    .first()
                    .map_or(NodeId(0), |&v| wild_target(v));
                inject(&mut m, at, &fault, target);
                detectable |= detectable_fault(&fault);
                armed.push(Armed { at, fault });
            } else {
                i += 1;
            }
        }
        let out = m.run_for(SimDuration::from_micros(50));
        let all_done = client_nodes.iter().all(|c| {
            let n = &m.st().nodes[c.index()];
            !n.is_alive() || matches!(n.proc, ProcState::Halted | ProcState::Dead)
        });
        let all_fired = armed.iter().all(|a| m.now() >= a.at);
        if all_done && !m.ext().recovery_active() && pending.is_empty() && all_fired {
            let fault_pending = detectable && !m.ext().report.completed();
            if fault_pending && detect_wait < 10_000 {
                detect_wait += 1;
                continue;
            }
            finished = true;
            break;
        }
        if out == RunOutcome::Drained {
            finished = true;
            break;
        }
    }

    // OS recovery pass, with optional faults injected in its window.
    let mut os_recovery_hits = 0u64;
    if m.ext().report.completed() || !os_events.is_empty() {
        for fault in &os_events {
            os_recovery_hits += 1;
            let prior_p4 = m.ext().report.phases.p4_done;
            let target = fault
                .doomed_nodes()
                .first()
                .map_or(NodeId(0), |&v| wild_target(v));
            let at = m.now() + SimDuration::from_nanos(1);
            inject(&mut m, at, fault, target);
            detectable |= detectable_fault(fault);
            // Let the new fault be detected and recovered before the OS
            // pass resumes (up to ~2 s of simulated time).
            for _ in 0..40_000 {
                m.run_for(SimDuration::from_micros(50));
                let done = !m.ext().recovery_active()
                    && (m.ext().report.phases.p4_done != prior_p4
                        || m.ext().report.machine_halted
                        || fault.doomed_nodes().is_empty());
                if done {
                    break;
                }
            }
        }
        os::os_recover(&mut m);
        // Settle any tasks the OS pass unblocked or terminated.
        for _ in 0..2_000 {
            let out = m.run_for(SimDuration::from_micros(50));
            let all_done = client_nodes.iter().all(|c| {
                let n = &m.st().nodes[c.index()];
                !n.is_alive() || matches!(n.proc, ProcState::Halted | ProcState::Dead)
            });
            if all_done || out == RunOutcome::Drained {
                break;
            }
        }
    }

    // Hive-level completeness: compiles with no dependency on a failed
    // cell must have completed.
    let mut extra = Vec::new();
    if finished && m.ext().report.completed() && !m.ext().report.machine_halted {
        let failed_cells = layout.failed_cells(&m.st().failed_nodes);
        let server_failed = failed_cells.contains(&0);
        for (i, &node) in client_nodes.iter().enumerate() {
            let cell = i + 1;
            let affected = server_failed || failed_cells.contains(&cell);
            if affected {
                continue;
            }
            match os::task_result(&m, node) {
                Some((TaskState::Completed, _)) => {}
                other => extra.push(Violation {
                    invariant: "hive-unaffected-completion",
                    details: format!(
                        "cell {cell} had no failed dependency but its compile ended as {other:?}"
                    ),
                }),
            }
        }
    }

    let mut fired: Vec<FaultSpec> = armed.iter().map(|a| a.fault.clone()).collect();
    if os_recovery_hits > 0 {
        fired.extend(os_events.iter().cloned());
    }
    let first_inject = armed.iter().map(|a| a.at).min();
    finalize(
        &m,
        s,
        finished,
        detectable,
        phase_hits,
        os_recovery_hits,
        extra,
        &fired,
        first_inject,
    )
}

// ----------------------------------------------------------------------
// KV serving mode (hive-kv harness)
// ----------------------------------------------------------------------

/// Executes a KV serving schedule: boot cells with replicated KV shards,
/// warm to the injection threshold, arm the schedule's faults, drive
/// through recovery and the replication-repair pass, and judge both the
/// generic invariant stack and the KV serving invariants (no data loss
/// while a replica survives; unaffected chunks keep their SLO).
fn run_kv_schedule(s: &Schedule) -> RunRecord {
    let kv = KvConfig::campaign();
    let mut params = MachineParams::table_5_1();
    params.n_nodes = s.n_nodes;
    params.magic.firewall_enabled = s.firewall_enabled;
    let layout = CellLayout::contiguous(params.n_nodes, kv.n_cells);
    let mut prep = prepare_kv_serving(params, &kv, RecoveryConfig::default(), s.seed);

    // Wild writes must land in a cell the victim does not belong to (same
    // policy as hive mode).
    let wild_target = |victim: NodeId| {
        let c = layout.cell_of(victim);
        layout.boot_node(if c == 0 { 1 } else { 0 })
    };

    // Warm until any shard passes the injection threshold.
    let inject_threshold = kv.requests_per_shard * 3 / 10;
    let mut guard = 0;
    loop {
        prep.machine_mut().run_for(SimDuration::from_micros(50));
        let ready = prep
            .shard_nodes()
            .iter()
            .any(|c| prep.machine().st().nodes[c.index()].workload.progress() >= inject_threshold);
        if ready || guard > 2_000_000 {
            break;
        }
        guard += 1;
    }

    // Arm events.
    let steady_base = prep.machine().now();
    let mut armed: Vec<Armed> = Vec::new();
    let mut pending: Vec<(u8, u64, FaultSpec)> = Vec::new();
    let mut os_events: Vec<FaultSpec> = Vec::new();
    let mut phase_hits = [0u64; 4];
    let mut detectable = false;
    for FaultEvent { at, fault } in &s.events {
        match *at {
            InjectAt::Steady { offset_ns } => {
                let at = steady_base + SimDuration::from_nanos(1 + offset_ns);
                let target = fault
                    .doomed_nodes()
                    .first()
                    .map_or(NodeId(0), |&v| wild_target(v));
                inject(prep.machine_mut(), at, fault, target);
                detectable |= detectable_fault(fault);
                armed.push(Armed {
                    at,
                    fault: fault.clone(),
                });
            }
            InjectAt::PhaseEntry { phase, delay_ns } => {
                pending.push((phase, delay_ns, fault.clone()));
            }
            InjectAt::DuringOsRecovery => os_events.push(fault.clone()),
        }
    }

    // Main loop: drive until every shard drains (or dies) and recovery is
    // idle, arming phase-entry faults between slices and running the
    // service-level repair pass at every recovery completion.
    let mut finished = false;
    let mut detect_wait = 0u32;
    let mut os_recovery_hits = 0u64;
    let budget = 400_000; // x 50us = 20s of simulated time
    for _ in 0..budget {
        let entries = prep.machine().ext().phase_entries();
        let mut i = 0;
        while i < pending.len() {
            if entries.entered(pending[i].0).is_some() {
                let (phase, delay_ns, fault) = pending.remove(i);
                let at = prep.machine().now() + SimDuration::from_nanos(1 + delay_ns);
                phase_hits[phase as usize - 1] += 1;
                let target = fault
                    .doomed_nodes()
                    .first()
                    .map_or(NodeId(0), |&v| wild_target(v));
                inject(prep.machine_mut(), at, &fault, target);
                detectable |= detectable_fault(&fault);
                armed.push(Armed { at, fault });
            } else {
                i += 1;
            }
        }
        let out = prep.machine_mut().run_for(SimDuration::from_micros(50));
        // At each recovery completion: OS page service + replica repair.
        // Faults armed "during OS recovery" fire in exactly that window.
        if prep.post_recovery_pass().is_some() {
            for fault in os_events.drain(..) {
                os_recovery_hits += 1;
                let at = prep.machine().now() + SimDuration::from_nanos(1);
                let target = fault
                    .doomed_nodes()
                    .first()
                    .map_or(NodeId(0), |&v| wild_target(v));
                inject(prep.machine_mut(), at, &fault, target);
                detectable |= detectable_fault(&fault);
                armed.push(Armed { at, fault });
            }
        }
        let all_fired = {
            let now = prep.machine().now();
            armed.iter().all(|a| now >= a.at)
        };
        if prep.shards_done()
            && !prep.machine().ext().recovery_active()
            && pending.is_empty()
            && os_events.is_empty()
            && all_fired
        {
            let fault_pending = detectable && !prep.machine().ext().report.completed();
            if fault_pending && detect_wait < 10_000 {
                detect_wait += 1;
                continue;
            }
            finished = true;
            break;
        }
        if out == RunOutcome::Drained {
            // A drained machine whose triggered recovery never completed is
            // a wedged fault cascade (recovery messages lost over dead
            // links), not a finished run — leave `finished` false so the
            // drain-dependent checks don't judge a machine that never came
            // back.
            let report = &prep.machine().ext().report;
            finished =
                report.machine_halted || report.phases.triggered_at.is_none() || report.completed();
            break;
        }
    }
    prep.post_recovery_pass();

    // Never-armed OS-recovery events (no recovery completed) did not fire.
    let fired: Vec<FaultSpec> = armed.iter().map(|a| a.fault.clone()).collect();
    let first_inject = armed.iter().map(|a| a.at).min();

    {
        let now = prep.machine().now();
        let failed_cells = layout.failed_cells(&prep.machine().st().failed_nodes);
        let st = prep.machine_mut().st_mut();
        for &cell in &failed_cells {
            st.obs.record(
                flash_obs::Domain::Hive,
                now,
                flash_obs::TraceEvent::HiveCell {
                    cell: cell as u16,
                    what: "cell_failed",
                    value: layout.members(cell).len() as u64,
                },
            );
        }
    }

    let outcome = prep.collect(finished, detectable);
    let extra: Vec<Violation> = outcome
        .checks
        .iter()
        .map(|c| Violation {
            invariant: c.name,
            details: c.details.clone(),
        })
        .collect();

    let mut record = finalize(
        prep.machine(),
        s,
        finished,
        detectable,
        phase_hits,
        os_recovery_hits,
        extra,
        &fired,
        first_inject,
    );
    record.kv = Some(outcome.stats);
    record
}

// ----------------------------------------------------------------------
// Parallel campaign driver
// ----------------------------------------------------------------------

/// Configuration of a randomized campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Master seed; every per-run seed derives deterministically from it.
    pub master_seed: u64,
    /// Number of runs.
    pub runs: u64,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Always `None` (the type has no other value), so this is not a
    /// setting. It remains only because the benchmark adapter
    /// (`perfbench/src/adapter.rs`) spells the field out.
    pub shard: Option<std::convert::Infallible>,
    /// Schedule-generator tunables.
    pub generator: GeneratorConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            master_seed: 1,
            runs: 200,
            workers: 4,
            shard: None,
            generator: GeneratorConfig::default(),
        }
    }
}

/// The outcome of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Per-run records, in run order (independent of worker count).
    pub records: Vec<RunRecord>,
    /// Campaign-wide count of faults fired during each recovery phase.
    pub phase_hits: [u64; 4],
    /// Campaign-wide count of faults injected during OS recovery.
    pub os_recovery_hits: u64,
    /// Host wall-clock seconds the campaign took.
    pub host_secs: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl CampaignReport {
    /// Records that violated at least one invariant.
    pub fn failures(&self) -> impl Iterator<Item = &RunRecord> + '_ {
        self.records.iter().filter(|r| !r.passed())
    }

    /// Total violations across the campaign.
    pub fn total_violations(&self) -> usize {
        self.records.iter().map(|r| r.violations.len()).sum()
    }
}

/// The deterministic seed of run `i` of a campaign (independent of worker
/// count and scheduling).
pub fn per_run_seed(master_seed: u64, i: u64) -> u64 {
    DetRng::new(master_seed ^ 0x0CA_2CA1_67E5)
        .fork(i)
        .next_u64()
}

/// Runs a randomized campaign, fanning runs across `workers` threads via a
/// shared work counter. Results are keyed by run index, so the report is
/// identical whatever the worker count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let start = std::time::Instant::now();
    let workers = cfg.workers.max(1);
    let next = AtomicU64::new(0);
    let slots: Mutex<Vec<Option<RunRecord>>> = Mutex::new((0..cfg.runs).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.runs {
                    break;
                }
                let seed = per_run_seed(cfg.master_seed, i);
                let schedule = generate(seed, &cfg.generator);
                let record = run_schedule(&schedule);
                slots.lock().expect("campaign result lock")[i as usize] = Some(record);
            });
        }
    });

    let records: Vec<RunRecord> = slots
        .into_inner()
        .expect("campaign result lock")
        .into_iter()
        .map(|r| r.expect("every run index filled"))
        .collect();
    let mut phase_hits = [0u64; 4];
    let mut os_recovery_hits = 0;
    for r in &records {
        for (total, hit) in phase_hits.iter_mut().zip(r.phase_hits) {
            *total += hit;
        }
        os_recovery_hits += r.os_recovery_hits;
    }
    CampaignReport {
        records,
        phase_hits,
        os_recovery_hits,
        host_secs: start.elapsed().as_secs_f64(),
        workers,
    }
}
