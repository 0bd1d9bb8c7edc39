//! The end-to-end recovery experiments of Table 5.4 and Figure 5.7: a
//! parallel make running across Hive cells, a hardware fault injected
//! mid-run, hardware + OS recovery, and per-compile outcome accounting.

use crate::cells::CellLayout;
use crate::os::{self, HiveConfig};
use crate::task::{CompileTask, ServerLoop, TaskState};
use flash_core::{
    all_terminal, build_machine, drive, total_progress, warm_until, FcMachine, Harness,
    RecoveryConfig, RecoveryReport, DRIVE_SLICE,
};
use flash_machine::{FaultSpec, Idle, MachineParams};
use flash_net::NodeId;
use flash_sim::SimDuration;

/// The outcome of one compile in an end-to-end run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOutcome {
    /// The cell that ran the compile.
    pub cell: usize,
    /// Final task state.
    pub state: TaskState,
    /// Files completed.
    pub files_done: u32,
    /// Whether the compile had an essential dependency on a failed cell
    /// (its own cell or the file-server cell lost hardware).
    pub affected: bool,
}

/// The outcome of one end-to-end experiment run.
#[derive(Clone, Debug)]
pub struct EndToEndOutcome {
    /// Per-compile results (one per non-server cell).
    pub compiles: Vec<CompileOutcome>,
    /// Hardware recovery summary (empty `phases` when no fault fired).
    pub recovery: RecoveryReport,
    /// Modeled OS recovery time (scales with live cells, Section 4.6).
    pub os_time: SimDuration,
    /// Incoherent lines reinitialized by the OS page service.
    pub lines_reinitialized: u64,
    /// Whether the drive ended finished ([`flash_core::RunEnd::finished`]).
    pub finished: bool,
    /// FNV-1a hash of the merged structured trace at the end of the run
    /// ([`flash_obs::Recorder::merged_hash`]): the fork-determinism witness
    /// for end-to-end runs forked from a warm [`PreparedMake`].
    pub trace_hash: u64,
}

impl EndToEndOutcome {
    /// Compiles unaffected by the fault.
    pub fn unaffected(&self) -> impl Iterator<Item = &CompileOutcome> + '_ {
        self.compiles.iter().filter(|c| !c.affected)
    }

    /// The Table 5.4 success criterion: every compile not affected by the
    /// fault finished correctly.
    pub fn unaffected_all_completed(&self) -> bool {
        self.unaffected().all(|c| c.state == TaskState::Completed)
    }

    /// Duration user processes stayed suspended: hardware recovery plus OS
    /// recovery (the quantity of Figure 5.7).
    pub fn suspension_time(&self) -> Option<SimDuration> {
        Some(self.recovery.phases.total()? + self.os_time)
    }
}

/// Runs one end-to-end experiment: boot `cfg.n_cells` cells (cell 0 is the
/// file server), start one compile per client cell, optionally inject
/// `fault` mid-run, recover, run OS recovery, and account per-compile
/// outcomes.
pub fn run_parallel_make(
    params: MachineParams,
    hive: &HiveConfig,
    recovery: RecoveryConfig,
    fault: Option<FaultSpec>,
    seed: u64,
) -> EndToEndOutcome {
    let mut prep = prepare_parallel_make(params, hive, recovery, seed);
    if fault.is_some() {
        prep.warm();
    }
    finish_parallel_make(prep, fault)
}

/// A booted (and optionally warmed) parallel-make experiment: the machine
/// with server and compile workloads installed and started, plus the cell
/// layout needed to account outcomes.
///
/// Cloning a `PreparedMake` is the end-to-end checkpoint: warm one with
/// [`PreparedMake::warm`], then [`PreparedMake::fork`] one copy per fault —
/// each fork, driven through [`finish_parallel_make`], produces a trace
/// hash bit-identical to a from-scratch run with the same seed.
#[derive(Clone, Debug)]
pub struct PreparedMake {
    m: FcMachine,
    layout: CellLayout,
    client_nodes: Vec<NodeId>,
    hive: HiveConfig,
}

impl PreparedMake {
    /// Runs the machine until the make is ~30% done —
    /// [`run_parallel_make`]'s injection point. Idempotent once the
    /// threshold is reached.
    pub fn warm(&mut self) {
        self.warm_to_percent(30);
    }

    /// Runs the machine until the make is `pct`% done — mean compile
    /// progress across client cells (summed operations against the summed
    /// budget, so one fast or slow client does not skew the injection
    /// point). The paper injects faults at random times while the benchmark
    /// runs; sweeps stratify that over several progress points,
    /// checkpointing at each rung of the ladder (a deeper rung shares a
    /// longer prelude across its forks). Idempotent once the threshold is
    /// reached, so warming a machine rung by rung leaves it in exactly the
    /// state a single `warm_to_percent` call would have.
    pub fn warm_to_percent(&mut self, pct: u32) {
        let total_budget = self.hive.ops_per_task() * self.client_nodes.len() as u64;
        let inject_threshold = total_budget * u64::from(pct) / 100;
        let clients = &self.client_nodes;
        warm_until(&mut self.m, DRIVE_SLICE, |m| {
            total_progress(m, clients) >= inject_threshold
        });
    }

    /// Deep-copies the warm experiment — one fork per fault to amortize the
    /// boot + warm-up prelude across a sweep.
    pub fn fork(&self) -> PreparedMake {
        self.clone()
    }

    /// The cell layout (cell 0 is the file server).
    pub fn layout(&self) -> &CellLayout {
        &self.layout
    }

    /// The boot node of each client cell, in cell order: one compile each.
    pub fn client_nodes(&self) -> &[NodeId] {
        &self.client_nodes
    }

    /// Each compile's state so far, and whether it depends on a failed
    /// cell (its own or the file server's).
    pub fn compiles(&self) -> Vec<CompileOutcome> {
        let failed_cells = self.layout.failed_cells(&self.m.st().failed_nodes);
        let server_failed = failed_cells.contains(&0);
        self.client_nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                let cell = i + 1;
                let (state, files_done) =
                    os::task_result(&self.m, node).unwrap_or((TaskState::Running, 0));
                CompileOutcome {
                    cell,
                    state,
                    files_done,
                    affected: server_failed || failed_cells.contains(&cell),
                }
            })
            .collect()
    }
}

impl Harness for PreparedMake {
    fn machine(&self) -> &FcMachine {
        &self.m
    }

    fn machine_mut(&mut self) -> &mut FcMachine {
        &mut self.m
    }

    /// Every compile halted or died; the server loop never halts.
    fn workload_done(&self) -> bool {
        all_terminal(&self.m, &self.client_nodes)
    }
}

/// Boots the parallel-make experiment: builds the machine, computes
/// placement, installs the server and compile workloads and starts every
/// processor. No warm-up is run — call [`PreparedMake::warm`] before
/// injecting a fault (matching [`run_parallel_make`]'s behavior).
pub fn prepare_parallel_make(
    params: MachineParams,
    hive: &HiveConfig,
    recovery: RecoveryConfig,
    seed: u64,
) -> PreparedMake {
    let layout = CellLayout::contiguous(params.n_nodes, hive.n_cells);
    let server = layout.boot_node(0);

    // Build with idle workloads; real workloads are installed after
    // placement is computed (they need the shared-region addresses).
    let mut m: FcMachine = build_machine(params, recovery, |_| Box::new(Idle), seed);
    let placement = os::configure(&mut m, &layout);

    let lines_per_node = m.st().layout.lines_per_node();
    let client_nodes: Vec<NodeId> = (1..hive.n_cells).map(|c| layout.boot_node(c)).collect();
    // Every kernel polls its peers' kernel lines. The server's background
    // activity also dirties the shared file data, creating cross-cell
    // recall traffic.
    let server_loop = ServerLoop::new(placement.server_data, 20_000)
        .with_monitor(os::peer_kernel_lines(&m, server));
    m.st_mut().nodes[server.index()].workload = Box::new(server_loop);
    for &client in &client_nodes {
        let own = os::own_region(client, lines_per_node);
        let task = CompileTask::new(
            server,
            hive.files_per_task,
            hive.blocks_per_file,
            hive.out_blocks,
            hive.compute_ns,
            placement.server_data,
            own,
        )
        .with_monitor(os::peer_kernel_lines(&m, client));
        m.st_mut().nodes[client.index()].workload = Box::new(task);
    }
    m.set_event_budget(4_000_000_000);
    m.start();

    PreparedMake {
        m,
        layout,
        client_nodes,
        hive: *hive,
    }
}

/// Drives a booted (and, for fault runs, warmed) experiment to its terminal
/// state: optional fault injection, hardware recovery, OS recovery and
/// per-compile outcome accounting.
pub fn finish_parallel_make(mut prep: PreparedMake, fault: Option<FaultSpec>) -> EndToEndOutcome {
    let faulted = fault.is_some();
    if let Some(spec) = fault {
        let at = prep.m.now() + SimDuration::from_nanos(1);
        prep.m.schedule_fault(at, spec);
    }

    // Run until every compile reaches a terminal state and, after a fault,
    // until the background kernel monitoring detected it and recovery
    // completed (see `drive` for the limits).
    let finished = drive(&mut prep, &mut { faulted }).finished();

    // OS recovery (Section 4.6): page reinitialization + modeled cost.
    let failed_cells = os::record_failed_cells(&mut prep.m, &prep.layout);
    let (lines_reinitialized, os_time) = if faulted {
        let live_cells = prep.hive.n_cells - failed_cells.len();
        (
            os::os_recover(&mut prep.m),
            os::os_recovery_time(live_cells),
        )
    } else {
        (0, SimDuration::ZERO)
    };
    EndToEndOutcome {
        compiles: prep.compiles(),
        recovery: prep.m.ext().report.clone(),
        os_time,
        lines_reinitialized,
        finished,
        trace_hash: prep.m.st().obs.merged_hash(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hive() -> (MachineParams, HiveConfig) {
        let mut params = MachineParams::table_5_1();
        params.n_nodes = 4;
        let hive = HiveConfig {
            n_cells: 4,
            files_per_task: 2,
            blocks_per_file: 16,
            out_blocks: 8,
            compute_ns: 10_000,
        };
        (params, hive)
    }

    #[test]
    fn fault_free_make_completes_everything() {
        let (params, hive) = small_hive();
        let out = run_parallel_make(params, &hive, RecoveryConfig::default(), None, 1);
        assert!(out.finished);
        assert_eq!(out.compiles.len(), 3);
        for c in &out.compiles {
            assert_eq!(c.state, TaskState::Completed, "{c:?}");
            assert!(!c.affected);
        }
        assert!(out.unaffected_all_completed());
        assert!(!out.recovery.completed(), "no recovery without a fault");
        assert_eq!(out.os_time, SimDuration::ZERO);
    }

    #[test]
    fn client_cell_failure_spares_other_compiles() {
        let (params, hive) = small_hive();
        // Kill cell 2's node (a client).
        let out = run_parallel_make(
            params,
            &hive,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(2))),
            2,
        );
        assert!(out.finished);
        assert!(out.recovery.completed(), "{:?}", out.recovery);
        let affected: Vec<usize> = out
            .compiles
            .iter()
            .filter(|c| c.affected)
            .map(|c| c.cell)
            .collect();
        assert_eq!(affected, vec![2]);
        assert!(out.unaffected_all_completed(), "{:?}", out.compiles);
        assert!(out.suspension_time().is_some());
    }

    #[test]
    fn server_cell_failure_affects_all_compiles() {
        let (params, hive) = small_hive();
        let out = run_parallel_make(
            params,
            &hive,
            RecoveryConfig::default(),
            Some(FaultSpec::Node(NodeId(0))),
            3,
        );
        assert!(out.finished);
        assert!(out.compiles.iter().all(|c| c.affected));
        // Vacuously true: there are no unaffected compiles.
        assert!(out.unaffected_all_completed());
    }
}
