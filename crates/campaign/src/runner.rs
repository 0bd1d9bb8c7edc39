//! Schedule execution and the parallel campaign driver.
//!
//! [`run_schedule`] executes one [`Schedule`] deterministically on one of
//! the library harnesses — the Section 5.2 experiment
//! (`prepare_fault_experiment`), the Table 5.4 parallel make
//! (`prepare_parallel_make`) or KV serving (`prepare_kv_serving`) — through
//! the shared run lifecycle of `flash_core` (warm → arm → drive → judge).
//! What the campaign adds is its fault injector: it arms steady faults at
//! the injection point, phase-entry faults when the recovery extension
//! reports the phase entered, and OS-window faults at the harness's OS
//! recovery pass; it models the dying master's stray write (the wild write
//! the MAGIC firewall exists to block, Section 3.1); and it keeps the
//! fired-fault books the invariant stack judges the final state with.
//!
//! [`run_campaign`] fans runs across worker threads with deterministic
//! per-run seeds, so a campaign's outcome is independent of worker count
//! and every failure is replayable from its seed alone.

use crate::inject::Injector;
use crate::invariants::{self, GrayFacts, RunContext, Violation};
use crate::schedule::{generate, GeneratorConfig, Mode, Schedule};
use flash_coherence::{LineAddr, NodeSet, PageAddr};
use flash_core::{
    all_terminal, drive, prepare_fault_experiment, run_indexed, run_slices, run_to_quiescence,
    warm_until, ExperimentConfig, FcMachine, Harness, RecoveryConfig, RunEnd, DRIVE_SLICE,
    OS_WINDOW_RECOVERY, SETTLE,
};
use flash_hive::{os, prepare_parallel_make, CellLayout, HiveConfig, TaskState};
use flash_hivekv::{prepare_kv_serving, KvConfig, KvStats};
use flash_machine::{FaultSpec, MachineParams, PROTECTED_LINES};
use flash_net::NodeId;
use flash_sim::{DetRng, RunOutcome};

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
    /// How the run's drive ended.
    pub end: RunEnd,
    /// `end.finished()`. It remains because the benchmark adapter
    /// (`perfbench/src/workloads.rs`) reads it.
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

/// Executes one schedule and checks the invariant stack.
pub fn run_schedule(s: &Schedule) -> RunRecord {
    match s.mode {
        Mode::Machine => run_machine_schedule(s),
        Mode::Hive => run_hive_schedule(s),
        Mode::HiveKv => run_kv_schedule(s),
    }
}

fn finalize(
    m: &FcMachine,
    s: &Schedule,
    end: RunEnd,
    inj: &Injector,
    extra: Vec<Violation>,
) -> RunRecord {
    let fired: Vec<FaultSpec> = inj.armed.iter().map(|(_, f)| f.clone()).collect();
    let gray = GrayFacts::from_faults(&fired);
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
    let first_inject = inj.armed.iter().map(|&(at, _)| at).min();
    let detect_latency_ns = match (first_inject, triggered_at) {
        (Some(i), Some(t)) if t >= i => Some(t.since(i).as_nanos()),
        _ => None,
    };
    let ctx = RunContext {
        end,
        detectable_fault_fired: inj.detectable,
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
    // Flight-recorder mode: the event tail and metrics snapshot (every
    // layer's counters summed, plus the histograms) are only materialized
    // for failing runs (the post-mortem input).
    let (trace, trace_tail_json, metrics_json) = if violations.is_empty() {
        (String::new(), String::new(), String::new())
    } else {
        (
            obs.render(),
            flash_obs::tail_json(obs, 64),
            obs.metrics.snapshot_json(&m.st().counters_total()),
        )
    };
    RunRecord {
        schedule: s.clone(),
        violations,
        end,
        finished: end.finished(),
        end_time_ns: m.now().as_nanos(),
        restarts: m.ext().report.restarts,
        phase_hits: inj.phase_hits,
        os_recovery_hits: inj.os_recovery_hits,
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

/// The machine of a schedule: `base` sized and firewalled as `s` says.
fn schedule_params(base: MachineParams, s: &Schedule) -> MachineParams {
    let mut params = base;
    params.n_nodes = s.n_nodes;
    params.magic.firewall_enabled = s.firewall_enabled;
    params
}

/// Machine mode: the Section 5.2 experiment (`prepare_fault_experiment`,
/// arm, then `run_to_quiescence`, the drive of `finish_fault_experiment`),
/// judged by the invariant stack instead of the oracle report alone.
fn run_machine_schedule(s: &Schedule) -> RunRecord {
    let mut cfg = ExperimentConfig::new(schedule_params(MachineParams::tiny(), s), s.seed);
    cfg.fill_ops = s.fill_ops;
    cfg.total_ops = s.total_ops;
    cfg.write_fraction = 0.5;
    let mut m = prepare_fault_experiment(&cfg);
    // Each node's MAGIC-protected tail pages are writable only by the node
    // itself (Hive installs the equivalent per-cell policy via
    // `os::configure`). The fill never touches those pages, so installing
    // the policy after it leaves the trace as it was.
    let lpn = cfg.params.layout().lines_per_node();
    for (i, node) in m.st_mut().nodes.iter_mut().enumerate() {
        let first = LineAddr((i as u64 + 1) * lpn - PROTECTED_LINES).page();
        let last = LineAddr((i as u64 + 1) * lpn - 1).page();
        for p in first.0..=last.0 {
            node.firewall
                .restrict(PageAddr(p), NodeSet::singleton(NodeId(i as u16)));
        }
    }
    let mut inj = Injector::new(s, &mut m, None);
    let end = run_to_quiescence(&mut m, &mut inj);
    finalize(&m, s, end, &inj, Vec::new())
}

/// Warms a celled harness until any of `nodes` (one compile or shard each,
/// `ops` operations long) passes 30% of its operations, then arms `s`.
fn warm_and_arm(
    s: &Schedule,
    h: &mut impl Harness,
    nodes: &[NodeId],
    ops: u64,
    cells: &CellLayout,
) -> Injector {
    let threshold = ops * 3 / 10;
    warm_until(h.machine_mut(), DRIVE_SLICE, |m| {
        nodes
            .iter()
            .any(|n| m.st().nodes[n.index()].workload.progress() >= threshold)
    });
    Injector::new(s, h.machine_mut(), Some(cells.clone()))
}

/// The campaign's parallel make: four cells, short compiles.
fn campaign_hive_config() -> HiveConfig {
    HiveConfig {
        n_cells: 4,
        files_per_task: 2,
        blocks_per_file: 16,
        out_blocks: 8,
        compute_ns: 10_000,
    }
}

/// Hive mode: the Table 5.4 parallel make, injected once any compile
/// passes 30% of its operations, with an OS recovery pass (and its fault
/// window) after the drive and a completeness check on unaffected
/// compiles.
fn run_hive_schedule(s: &Schedule) -> RunRecord {
    let hive = campaign_hive_config();
    let params = schedule_params(MachineParams::table_5_1(), s);
    let mut prep = prepare_parallel_make(params, &hive, RecoveryConfig::default(), s.seed);
    let (clients, layout) = (prep.client_nodes().to_vec(), prep.layout().clone());
    let mut inj = warm_and_arm(s, &mut prep, &clients, hive.ops_per_task(), &layout);
    let end = drive(&mut prep, &mut inj);

    // OS recovery pass. Each OS-window fault gets to be detected and
    // recovered before the pass resumes.
    let m = prep.machine_mut();
    if m.ext().report.completed() || !inj.os.is_empty() {
        loop {
            let prior_p4 = m.ext().report.phases.p4_done;
            let Some(dooms) = inj.fire_os_event(m) else {
                break;
            };
            run_slices(m, DRIVE_SLICE, OS_WINDOW_RECOVERY, |m, _| {
                let report = &m.ext().report;
                !m.ext().recovery_active()
                    && (report.phases.p4_done != prior_p4 || report.machine_halted || !dooms)
            });
        }
        os::os_recover(m);
        // Settle any tasks the OS pass unblocked or terminated.
        run_slices(m, DRIVE_SLICE, SETTLE, |m, out| {
            all_terminal(m, &clients) || out == RunOutcome::Drained
        });
    }

    // Hive-level completeness: compiles with no dependency on a failed
    // cell must have completed.
    let mut extra = Vec::new();
    let report = &prep.machine().ext().report;
    if end.finished() && report.completed() && !report.machine_halted {
        for c in prep.compiles() {
            if !c.affected && c.state != TaskState::Completed {
                extra.push(Violation {
                    invariant: "hive-unaffected-completion",
                    details: format!(
                        "cell {} had no failed dependency but its compile ended {:?} after {} files",
                        c.cell, c.state, c.files_done
                    ),
                });
            }
        }
    }
    finalize(prep.machine(), s, end, &inj, extra)
}

/// KV serving mode: replicated KV shards under open-loop traffic, injected
/// once any shard resolves 30% of its requests, with OS-window faults
/// fired at each post-recovery repair pass; judged by the generic stack
/// plus the KV serving invariants (no data loss while a replica survives,
/// unaffected chunks keep their SLO).
fn run_kv_schedule(s: &Schedule) -> RunRecord {
    let kv = KvConfig::campaign();
    let params = schedule_params(MachineParams::table_5_1(), s);
    let mut prep = prepare_kv_serving(params, &kv, RecoveryConfig::default(), s.seed);
    let (shards, layout) = (prep.shard_nodes().to_vec(), prep.layout().clone());
    let mut inj = warm_and_arm(s, &mut prep, &shards, kv.requests_per_shard, &layout);
    let end = drive(&mut prep, &mut inj);
    let outcome = prep.collect(end.finished(), inj.detectable);
    let extra = outcome
        .checks
        .into_iter()
        .map(|c| Violation {
            invariant: c.name,
            details: c.details,
        })
        .collect();
    let mut record = finalize(prep.machine(), s, end, &inj, extra);
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

/// Runs a randomized campaign, fanning runs across `workers` threads.
/// Results are keyed by run index, so the report is identical whatever the
/// worker count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let start = std::time::Instant::now();
    let records = run_indexed(cfg.workers, cfg.runs as usize, |i| {
        run_schedule(&generate(
            per_run_seed(cfg.master_seed, i as u64),
            &cfg.generator,
        ))
    });
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
    }
}
