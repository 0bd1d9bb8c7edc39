//! The KV serving experiment harness: boot cells, install shards, drive
//! open-loop traffic through an optional fault, reconfigure replicas after
//! recovery, and account user-visible outcomes (goodput, latency
//! quantiles, error fractions, data loss).
//!
//! Mirrors the hive parallel-make harness ([`flash_hive::PreparedMake`]):
//! [`prepare_kv_serving`] boots, [`PreparedKv::warm_to_percent`] runs to a
//! checkpoint, [`PreparedKv::fork`] deep-copies, and
//! [`finish_kv_serving`] drives to the terminal state — forked runs hash
//! bit-identically to from-scratch runs with the same seed. The drive is
//! the shared [`flash_core::drive`] loop: [`PreparedKv`] is a
//! [`Harness`] whose after-slice hook is the post-recovery repair pass,
//! and [`PreparedKv::collect`] ends the run. The chaos campaign drives the
//! same harness with its own fault injector.

use crate::config::{KvConfig, LINES_PER_CHUNK, REPAIR_NS_PER_CHUNK, REPLICATION, SLO_CEILING_NS};
use crate::placement::{ChunkDirectory, RepairSummary};
use crate::shard::KvShard;
use flash_coherence::{LineAddr, NodeSet, LINES_PER_PAGE};
use flash_core::{
    all_terminal, build_machine, drive, total_progress, warm_until, FcMachine, Harness,
    RecoveryConfig, RecoveryReport, DRIVE_SLICE,
};
use flash_hive::{os, CellLayout};
use flash_machine::{FaultSpec, Idle, MachineParams, PROTECTED_LINES};
use flash_net::NodeId;
use flash_obs::{Domain, Hist, TraceEvent};
use flash_sim::{LatencyHistogram, SimDuration};

/// Aggregated user-visible serving statistics for one run.
#[derive(Clone, Debug, Default)]
pub struct KvStats {
    /// Requests admitted across all shards.
    pub arrivals: u64,
    /// Requests completed successfully.
    pub ok: u64,
    /// Requests that surfaced an error to the user.
    pub errors: u64,
    /// Budgeted requests never admitted or resolved because their shard's
    /// cell died (those clients see errors too).
    pub unserved: u64,
    /// PUTs acknowledged on every replica.
    pub acked_puts: u64,
    /// Chunks that lost their last data-holding replica.
    pub chunks_lost: u64,
    /// Replicas scheduled for re-replication after failures.
    pub rereplications: u64,
    /// Chunk primaries moved to a surviving replica.
    pub failovers: u64,
    /// Latency of successful requests (all chunks).
    pub lat_ok: LatencyHistogram,
    /// Latency of successful requests to never-affected chunks.
    pub lat_unaffected_ok: LatencyHistogram,
    /// Arrival-to-error latency of failed requests.
    pub lat_err: LatencyHistogram,
    /// Latency samples clamped to 0ns because completion preceded the
    /// recorded arrival — a scheduling bug, surfaced as the
    /// `kv-latency-sane` invariant rather than silently hidden.
    pub clamped_latency: u64,
    /// Simulated duration of the run.
    pub duration_ns: u64,
}

impl KvStats {
    /// Successful requests per simulated second.
    pub fn goodput_rps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.ok as f64 * 1e9 / self.duration_ns as f64
    }

    /// Fraction of the total request budget that surfaced as user-visible
    /// errors (failed requests plus requests stranded on dead shards).
    pub fn error_fraction(&self) -> f64 {
        let total = self.arrivals + self.unserved;
        if total == 0 {
            return 0.0;
        }
        (self.errors + self.unserved) as f64 / total as f64
    }
}

/// A violated KV serving invariant.
#[derive(Clone, Debug)]
pub struct KvCheck {
    /// Invariant name (stable, used as a campaign violation label).
    pub name: &'static str,
    /// Human-readable evidence.
    pub details: String,
}

/// The outcome of one KV serving run.
#[derive(Clone, Debug)]
pub struct KvOutcome {
    /// Aggregated serving statistics.
    pub stats: KvStats,
    /// Hardware recovery summary (empty phases when no fault fired).
    pub recovery: RecoveryReport,
    /// Modeled OS recovery time accumulated over recovery passes.
    pub os_time: SimDuration,
    /// Incoherent lines reinitialized by the OS page service.
    pub lines_reinitialized: u64,
    /// Whether the drive ended finished ([`flash_core::RunEnd::finished`]).
    pub finished: bool,
    /// FNV-1a hash of the merged structured trace (fork-determinism
    /// witness).
    pub trace_hash: u64,
    /// Violated serving invariants (empty on a clean run).
    pub checks: Vec<KvCheck>,
}

/// A booted (and optionally warmed) KV serving experiment.
///
/// Cloning is the checkpoint: warm one, [`PreparedKv::fork`] one copy per
/// fault, and drive each fork through [`finish_kv_serving`].
#[derive(Clone, Debug)]
pub struct PreparedKv {
    m: FcMachine,
    layout: CellLayout,
    shard_nodes: Vec<NodeId>,
    kv: KvConfig,
    directory: ChunkDirectory,
    last_recovery_completed: bool,
    os_time: SimDuration,
    lines_reinitialized: u64,
}

/// Boots the KV serving experiment: builds the machine, applies Hive cell
/// protection policies, opens the chunk regions for cross-cell
/// replication writes, installs one shard per cell and starts every
/// processor. No warm-up is run.
pub fn prepare_kv_serving(
    params: MachineParams,
    kv: &KvConfig,
    recovery: RecoveryConfig,
    seed: u64,
) -> PreparedKv {
    let layout = CellLayout::contiguous(params.n_nodes, kv.n_cells);
    let mut m: FcMachine = build_machine(params, recovery, |_| Box::new(Idle), seed);
    os::configure(&mut m, &layout);

    let lines_per_node = m.st().layout.lines_per_node();
    let chunk_region_lines = kv.chunks as u64 * LINES_PER_CHUNK;
    assert!(
        2 * LINES_PER_PAGE + chunk_region_lines <= lines_per_node - PROTECTED_LINES,
        "chunk region must fit below the protected tail"
    );
    // Chunk region: per cell, on the boot node, one page above the kernel
    // region polled by peers.
    let chunk_base: Vec<u64> = (0..kv.n_cells)
        .map(|c| layout.boot_node(c).index() as u64 * lines_per_node + 2 * LINES_PER_PAGE)
        .collect();

    let n_nodes = params.n_nodes;
    let shard_nodes: Vec<NodeId> = (0..kv.n_cells).map(|c| layout.boot_node(c)).collect();
    let directory = ChunkDirectory::new(kv.chunks, kv.n_cells, REPLICATION);
    let peers: Vec<Vec<u64>> = shard_nodes
        .iter()
        .map(|&node| os::peer_kernel_lines(&m, node))
        .collect();
    {
        let now = m.now();
        let st = m.st_mut();
        // Replication writes cross cell boundaries by design, so the chunk
        // pages are opened to every node — the KV trust model accepts
        // cross-cell writes to this one region, and the experiments
        // measure what that costs through faults.
        for (c, &base) in chunk_base.iter().enumerate() {
            let first = LineAddr(base).page();
            let last = LineAddr(base + chunk_region_lines - 1).page();
            for p in first.0..=last.0 {
                st.nodes[shard_nodes[c].index()]
                    .firewall
                    .restrict(flash_coherence::PageAddr(p), NodeSet::all_below(n_nodes));
            }
        }
        for (c, (&node, peers)) in shard_nodes.iter().zip(peers).enumerate() {
            let shard = KvShard::new(
                c as u16,
                kv,
                chunk_base.clone(),
                directory.placement.clone(),
            )
            .with_monitor(peers);
            st.nodes[node.index()].workload = Box::new(shard);
        }
        for c in 0..directory.placement.chunks() {
            st.obs.record(
                Domain::Hive,
                now,
                TraceEvent::KvChunk {
                    chunk: c as u16,
                    what: "placed",
                    value: directory.placement.primary(c).unwrap_or(0) as u64,
                },
            );
        }
    }
    m.set_event_budget(4_000_000_000);
    m.start();

    PreparedKv {
        m,
        layout,
        shard_nodes,
        kv: *kv,
        directory,
        last_recovery_completed: false,
        os_time: SimDuration::ZERO,
        lines_reinitialized: 0,
    }
}

impl PreparedKv {
    /// Runs until ~30% of the request budget is resolved (the default
    /// injection point).
    pub fn warm(&mut self) {
        self.warm_to_percent(30);
    }

    /// Runs until `pct`% of the total request budget is resolved, summed
    /// across shards. Idempotent once the threshold is reached.
    pub fn warm_to_percent(&mut self, pct: u32) {
        let threshold = self.kv.total_requests() * u64::from(pct) / 100;
        let shards = &self.shard_nodes;
        warm_until(&mut self.m, DRIVE_SLICE, |m| {
            total_progress(m, shards) >= threshold
        });
    }

    /// Deep-copies the warm experiment — one fork per fault.
    pub fn fork(&self) -> PreparedKv {
        self.clone()
    }

    /// The cell layout.
    pub fn layout(&self) -> &CellLayout {
        &self.layout
    }

    /// The boot node hosting each cell's shard.
    pub fn shard_nodes(&self) -> &[NodeId] {
        &self.shard_nodes
    }

    /// The service-level reaction to a completed hardware recovery, run
    /// once per recovery completion edge: reinitialize incoherent pages
    /// (the OS page service, before user serving resumes in earnest),
    /// reconfigure the replication directory for any newly failed cells,
    /// and install the new placement into surviving shards. Returns the
    /// repair summary when a pass ran.
    ///
    /// [`Harness::after_slice`] runs it after every drive slice.
    pub fn post_recovery_pass(&mut self) -> Option<RepairSummary> {
        let completed_now = self.m.ext().report.completed() && !self.m.ext().recovery_active();
        let rising = completed_now && !self.last_recovery_completed;
        self.last_recovery_completed = completed_now;
        if !rising {
            return None;
        }
        self.lines_reinitialized += os::os_recover(&mut self.m);
        let failed_cells = self.layout.failed_cells(&self.m.st().failed_nodes);
        let live_cells = self.kv.n_cells - failed_cells.len();
        self.os_time += os::os_recovery_time(live_cells);
        let summary = self.reconcile_directory();
        if !summary.reconfigured.is_empty() {
            let placement = self.directory.placement.clone();
            let st = self.m.st_mut();
            for &node in &self.shard_nodes {
                if !st.nodes[node.index()].is_alive() {
                    continue;
                }
                if let Some(any) = st.nodes[node.index()].workload.as_any_mut() {
                    if let Some(shard) = any.downcast_mut::<KvShard>() {
                        shard.install_placement(placement.clone());
                    }
                }
            }
        }
        Some(summary)
    }

    /// Reconciles the replication directory against the machine's
    /// failed-cell set and records each reconfigured (or lost) chunk. Runs
    /// in every repair pass and once more at the end of the run: a fault
    /// cascade can end the run with no live OS instance left to run a pass
    /// (machine halted, every cell dead, recovery still in flight), and
    /// the end-of-run accounting must still classify those chunks — data on
    /// an unrepaired dead cell is lost data, not a stale directory entry.
    fn reconcile_directory(&mut self) -> RepairSummary {
        let failed_cells = self.layout.failed_cells(&self.m.st().failed_nodes);
        let now_ns = self.m.now().as_nanos();
        let summary = self
            .directory
            .on_cells_failed(&failed_cells, now_ns, REPAIR_NS_PER_CHUNK);
        let now = self.m.now();
        let st = self.m.st_mut();
        for &c in &summary.reconfigured {
            let (what, value) = match self.directory.placement.primary(c) {
                Some(p) => ("reconfigured", p as u64),
                None => ("lost", 0),
            };
            st.obs.record(
                Domain::Hive,
                now,
                TraceEvent::KvChunk {
                    chunk: c as u16,
                    what,
                    value,
                },
            );
        }
        summary
    }

    /// Ends the run and collects its outcome: a last post-recovery pass,
    /// one `cell_failed` event per failed cell, the directory reconcile,
    /// aggregated shard statistics and per-shard resolution trace events,
    /// latency histograms folded into the machine metrics, and the serving
    /// invariants. Call once, after the drive.
    pub fn collect(&mut self, finished: bool, faulted: bool) -> KvOutcome {
        self.post_recovery_pass();
        os::record_failed_cells(&mut self.m, &self.layout);
        self.reconcile_directory();
        let mut stats = KvStats {
            chunks_lost: self.directory.chunks_lost,
            rereplications: self.directory.rereplications,
            failovers: self.directory.failovers,
            duration_ns: self.m.now().as_nanos(),
            ..KvStats::default()
        };
        let now = self.m.now();
        for &node in &self.shard_nodes.clone() {
            let st = self.m.st_mut();
            let alive = st.nodes[node.index()].is_alive();
            let Some(shard) = st.nodes[node.index()]
                .workload
                .as_any()
                .and_then(|a| a.downcast_ref::<KvShard>())
            else {
                continue;
            };
            let s = shard.stats.clone();
            stats.arrivals += s.arrivals;
            stats.ok += s.ok;
            stats.errors += s.errors;
            stats.acked_puts += s.acked_puts;
            stats.lat_ok.merge(&s.lat_ok);
            stats.lat_unaffected_ok.merge(&s.lat_unaffected_ok);
            stats.lat_err.merge(&s.lat_err);
            stats.clamped_latency += s.clamped_latency;
            if !alive {
                // Clients of a dead cell's shard: everything budgeted but
                // unresolved is a user-visible error.
                stats.unserved += self.kv.requests_per_shard.saturating_sub(s.resolved());
            }
            for (what, value) in [("resolved", s.resolved()), ("errors", s.errors)] {
                let ev = TraceEvent::KvRequest {
                    node: node.0,
                    what,
                    value,
                };
                st.obs.record(Domain::Hive, now, ev);
            }
        }
        let metrics = &mut self.m.st_mut().obs.metrics;
        metrics.merge_histogram(Hist::KvRequestNs, &stats.lat_ok);
        metrics.merge_histogram(Hist::KvRequestUnaffectedNs, &stats.lat_unaffected_ok);
        metrics.merge_histogram(Hist::KvRequestErrorNs, &stats.lat_err);
        let checks = self.kv_checks(finished, faulted, &stats);
        KvOutcome {
            stats,
            recovery: self.m.ext().report.clone(),
            os_time: self.os_time,
            lines_reinitialized: self.lines_reinitialized,
            finished,
            trace_hash: self.m.st().obs.merged_hash(),
            checks,
        }
    }

    /// Evaluates the serving invariants, returning the violated ones.
    ///
    /// * `kv-no-data-loss` — a chunk may only be lost when at least
    ///   `replication` cells failed (a single contained fault can never
    ///   lose replicated data), and every surviving chunk must still have
    ///   a data-holding replica on a live cell.
    /// * `kv-unaffected-slo` — on a finished run whose fault (if any) was
    ///   detected and recovered: every surviving shard drained its full
    ///   request budget, requests to never-affected chunks saw zero
    ///   errors, and their worst-case latency stayed under the SLO
    ///   ceiling.
    /// * `kv-latency-sane` — no latency sample was clamped to 0ns by a
    ///   completion that preceded its recorded arrival.
    pub fn kv_checks(&self, finished: bool, faulted: bool, stats: &KvStats) -> Vec<KvCheck> {
        let mut out = Vec::new();
        let failed_cells = self.layout.failed_cells(&self.m.st().failed_nodes);
        let now_ns = self.m.now().as_nanos();

        // Latency sanity: a completion earlier than its arrival means shard
        // scheduling went backwards; the histograms clamp the sample to 0ns
        // but the clamp count turns it into a campaign-visible violation.
        if stats.clamped_latency > 0 {
            out.push(KvCheck {
                name: "kv-latency-sane",
                details: format!(
                    "{} latency sample(s) clamped to 0ns (completion before arrival)",
                    stats.clamped_latency
                ),
            });
        }

        // Data loss accounting.
        if self.directory.chunks_lost > 0 && failed_cells.len() < REPLICATION {
            out.push(KvCheck {
                name: "kv-no-data-loss",
                details: format!(
                    "{} chunk(s) lost with only {} failed cell(s) (replication {})",
                    self.directory.chunks_lost,
                    failed_cells.len(),
                    REPLICATION
                ),
            });
        }
        for c in 0..self.directory.placement.chunks() {
            if self.directory.placement.is_lost(c) {
                continue;
            }
            let has_live_data = self
                .directory
                .data_holding(c, now_ns)
                .iter()
                .any(|&cell| !failed_cells.contains(&(cell as usize)));
            if !has_live_data {
                out.push(KvCheck {
                    name: "kv-no-data-loss",
                    details: format!(
                        "chunk {c} not marked lost but has no live data-holding replica \
                         (replicas {:?}, failed cells {:?})",
                        self.directory.placement.replicas[c as usize], failed_cells
                    ),
                });
            }
        }

        // SLO floor for traffic the fault should not touch. Only
        // meaningful when the run terminated and any fault was actually
        // recovered (an undetected latent fault is judged by the campaign
        // verdict logic, not here).
        let recovered = !faulted || self.m.ext().report.completed();
        if finished && recovered && !self.m.ext().recovery_active() {
            let st = self.m.st();
            for &node in &self.shard_nodes {
                if !st.nodes[node.index()].is_alive() {
                    continue;
                }
                let Some(shard) = st.nodes[node.index()]
                    .workload
                    .as_any()
                    .and_then(|a| a.downcast_ref::<KvShard>())
                else {
                    continue;
                };
                if shard.stats.resolved() < self.kv.requests_per_shard {
                    out.push(KvCheck {
                        name: "kv-unaffected-slo",
                        details: format!(
                            "live shard on node {} resolved only {}/{} requests",
                            node.0,
                            shard.stats.resolved(),
                            self.kv.requests_per_shard
                        ),
                    });
                }
                for c in 0..self.kv.chunks {
                    if self.directory.placement.affected[c as usize] {
                        continue;
                    }
                    let errs = shard.stats.chunk_errors[c as usize];
                    if errs > 0 {
                        out.push(KvCheck {
                            name: "kv-unaffected-slo",
                            details: format!(
                                "node {}: {errs} error(s) on unaffected chunk {c}",
                                node.0
                            ),
                        });
                    }
                }
            }
            let worst = stats.lat_unaffected_ok.quantile_upper_bound(1.0);
            if worst > SimDuration::from_nanos(SLO_CEILING_NS) {
                out.push(KvCheck {
                    name: "kv-unaffected-slo",
                    details: format!(
                        "worst unaffected-chunk latency {:.3} ms exceeds ceiling {:.3} ms",
                        worst.as_millis_f64(),
                        SLO_CEILING_NS as f64 / 1e6
                    ),
                });
            }
        }
        out
    }
}

/// Drives a booted (and, for fault runs, warmed) experiment to its
/// terminal state: optional fault injection, hardware recovery, the OS +
/// replication-repair pass, and outcome accounting.
pub fn finish_kv_serving(mut prep: PreparedKv, fault: Option<FaultSpec>) -> KvOutcome {
    let faulted = fault.is_some();
    if let Some(spec) = fault {
        let at = prep.m.now() + SimDuration::from_nanos(1);
        prep.m.schedule_fault(at, spec);
    }
    let finished = drive(&mut prep, &mut { faulted }).finished();
    prep.collect(finished, faulted)
}

impl Harness for PreparedKv {
    fn machine(&self) -> &FcMachine {
        &self.m
    }

    fn machine_mut(&mut self) -> &mut FcMachine {
        &mut self.m
    }

    /// Every shard halted after draining its budget, or died with its cell.
    fn workload_done(&self) -> bool {
        all_terminal(&self.m, &self.shard_nodes)
    }

    fn after_slice(&mut self) -> bool {
        self.post_recovery_pass().is_some()
    }
}

/// Runs one full KV serving experiment: boot, warm (for fault runs),
/// fault, recover, repair, account.
pub fn run_kv_serving(
    params: MachineParams,
    kv: &KvConfig,
    recovery: RecoveryConfig,
    fault: Option<FaultSpec>,
    seed: u64,
) -> KvOutcome {
    let mut prep = prepare_kv_serving(params, kv, recovery, seed);
    if fault.is_some() {
        prep.warm();
    }
    finish_kv_serving(prep, fault)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_kv() -> (MachineParams, KvConfig) {
        let mut params = MachineParams::table_5_1();
        params.n_nodes = 4;
        let kv = KvConfig {
            n_cells: 4,
            chunks: 8,
            requests_per_shard: 60,
            ..KvConfig::default()
        };
        (params, kv)
    }

    #[test]
    fn fault_free_serving_meets_the_slo() {
        let (params, kv) = small_kv();
        let out = run_kv_serving(params, &kv, RecoveryConfig::default(), None, 1);
        assert!(out.finished);
        assert_eq!(out.stats.arrivals, 240);
        assert_eq!(out.stats.ok, 240);
        assert_eq!(out.stats.errors, 0);
        assert_eq!(out.stats.unserved, 0);
        assert!(out.checks.is_empty(), "{:?}", out.checks);
        assert!(out.stats.goodput_rps() > 0.0);
        assert_eq!(out.stats.error_fraction(), 0.0);
        assert!(!out.recovery.completed());
        assert!(out.stats.acked_puts > 0, "some PUTs should have landed");
    }

    #[test]
    fn cell_failure_spares_unaffected_chunks_and_loses_no_data() {
        let (params, kv) = small_kv();
        let out = run_kv_serving(
            params,
            &kv,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(2))),
            7,
        );
        assert!(out.finished);
        assert!(out.recovery.completed(), "{:?}", out.recovery);
        assert!(out.checks.is_empty(), "{:?}", out.checks);
        assert_eq!(out.stats.chunks_lost, 0);
        assert!(out.stats.failovers > 0, "cell 2 primaries must move");
        assert!(out.stats.rereplications > 0);
        assert!(out.stats.unserved > 0, "cell 2's shard dies mid-run");
        assert!(out.stats.error_fraction() < 0.5);
        // The other shards drain fully.
        assert_eq!(out.stats.arrivals - out.stats.ok - out.stats.errors, 0);
    }

    #[test]
    fn serving_runs_are_deterministic() {
        let (params, kv) = small_kv();
        let a = run_kv_serving(
            params,
            &kv,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(1))),
            99,
        );
        let b = run_kv_serving(
            params,
            &kv,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(1))),
            99,
        );
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.stats.ok, b.stats.ok);
        assert_eq!(a.stats.errors, b.stats.errors);
    }

    #[test]
    fn forked_run_matches_scratch() {
        let (params, kv) = small_kv();
        let mut prep = prepare_kv_serving(params, &kv, RecoveryConfig::default(), 13);
        prep.warm();
        let forked = finish_kv_serving(prep.fork(), Some(FaultSpec::Node(NodeId(3))));

        let mut scratch_prep = prepare_kv_serving(params, &kv, RecoveryConfig::default(), 13);
        scratch_prep.warm();
        let scratch = finish_kv_serving(scratch_prep, Some(FaultSpec::Node(NodeId(3))));

        assert_eq!(forked.trace_hash, scratch.trace_hash);
        assert_eq!(forked.stats.ok, scratch.stats.ok);
        assert_eq!(forked.stats.errors, scratch.stats.errors);
    }
}
