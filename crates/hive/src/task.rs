//! The parallel-make workload model (paper, Section 5.1).
//!
//! The end-to-end experiments run a parallel make that compiles one file per
//! cell, with one cell acting as the file server; the Hive file system
//! transfers file data across cell boundaries through shared memory, so the
//! benchmark "generates a large amount of coherence traffic". Each
//! [`CompileTask`] models one compile:
//!
//! 1. RPC to the file server to open the source file (an uncached operation
//!    with exactly-once semantics);
//! 2. read the file's blocks from server-homed shared-memory pages;
//! 3. compute;
//! 4. write the output to pages of its own cell;
//! 5. RPC to the server to close/commit; repeat per file.
//!
//! A bus error at any point (incoherent line, dead home, unresolved RPC)
//! marks the task *failed*; Hive's OS recovery then decides whether the
//! failure was expected (a dependency on a failed cell) or not.

use flash_coherence::LineAddr;
use flash_machine::{OpResult, ProcOp, Workload};
use flash_net::NodeId;
use flash_sim::{DetRng, SimTime};

/// Completion state of a compile task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Still executing.
    Running,
    /// All files compiled successfully.
    Completed,
    /// Terminated by a bus error (details in `first_error`).
    Failed,
}

/// Client-side accounting of the exactly-once Hive RPC protocol (Section
/// 3.3): every RPC the task issues is tracked through its outcome, so a
/// campaign invariant can check that recovery neither lost nor duplicated
/// a logical RPC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpcAudit {
    /// RPC operations issued, *including* retransmissions of attempts cut
    /// by a recovery.
    pub attempts: u64,
    /// RPC operations that completed successfully — exactly one per
    /// logical RPC under exactly-once semantics.
    pub completed: u64,
    /// Attempts whose outcome was unresolved across a recovery (each is
    /// followed by exactly one retransmission).
    pub unresolved: u64,
    /// Logical RPCs a fully-completed task performs (open + close per
    /// file).
    pub expected: u64,
}

impl RpcAudit {
    /// The accounting identity at quiescence: every attempt either
    /// completed or was cut by recovery and retransmitted. Mid-run (or
    /// when the issuing processor died) one attempt may still be in
    /// flight.
    pub fn balanced(&self, in_flight_slack: u64) -> bool {
        self.attempts >= self.completed + self.unresolved
            && self.attempts - (self.completed + self.unresolved) <= in_flight_slack
    }
}

/// One modeled compile job. See the module docs.
#[derive(Clone, Debug)]
pub struct CompileTask {
    server: NodeId,
    files_total: u32,
    blocks_per_file: u32,
    out_blocks: u32,
    compute_ns: u64,
    /// Server-homed lines holding file data (read-shared across cells).
    server_data: (u64, u64),
    /// Lines owned by this task's cell (written privately).
    own_data: (u64, u64),
    /// Kernel lines of peer cells, polled periodically: Hive cells read
    /// each other's kernel structures (read-only), which both models that
    /// traffic and provides fault-detection references. Bus errors on
    /// monitor reads are handled by the kernel and do not kill the task.
    monitor: Vec<u64>,
    // progress
    file_idx: u32,
    step: Step,
    state: TaskState,
    ops_done: u64,
    first_error: Option<flash_magic::BusError>,
    last_was_monitor: bool,
    last_was_rpc: bool,
    rpc_retry_pending: bool,
    ops_issued: u64,
    rpc: RpcAudit,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Open,
    Read(u32),
    Compute,
    Write(u32),
    Close,
}

impl CompileTask {
    /// Creates a compile task.
    ///
    /// # Panics
    ///
    /// Panics if either line range is empty.
    pub fn new(
        server: NodeId,
        files_total: u32,
        blocks_per_file: u32,
        out_blocks: u32,
        compute_ns: u64,
        server_data: (u64, u64),
        own_data: (u64, u64),
    ) -> Self {
        assert!(server_data.0 < server_data.1 && own_data.0 < own_data.1);
        CompileTask {
            server,
            files_total,
            blocks_per_file,
            out_blocks,
            compute_ns,
            server_data,
            own_data,
            monitor: Vec::new(),
            file_idx: 0,
            step: Step::Open,
            state: TaskState::Running,
            ops_done: 0,
            first_error: None,
            last_was_monitor: false,
            last_was_rpc: false,
            rpc_retry_pending: false,
            ops_issued: 0,
            rpc: RpcAudit {
                expected: 2 * files_total as u64,
                ..RpcAudit::default()
            },
        }
    }

    /// Installs the peer-cell kernel lines polled between task operations.
    pub fn with_monitor(mut self, peer_kernel_lines: Vec<u64>) -> Self {
        self.monitor = peer_kernel_lines;
        self
    }

    /// The task's completion state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Files fully compiled.
    pub fn files_done(&self) -> u32 {
        self.file_idx
    }

    /// The first bus error that killed the task, if any.
    pub fn first_error(&self) -> Option<flash_magic::BusError> {
        self.first_error
    }

    /// The exactly-once RPC accounting for this task.
    pub fn rpc_audit(&self) -> RpcAudit {
        self.rpc
    }

    fn pick(&self, range: (u64, u64), rng: &mut DetRng) -> LineAddr {
        LineAddr(rng.range_inclusive(range.0, range.1 - 1))
    }
}

impl Workload for CompileTask {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn progress(&self) -> u64 {
        self.ops_done
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn next_op(&mut self, _node: NodeId, _now: SimTime, rng: &mut DetRng) -> ProcOp {
        // An RPC whose outcome was unresolved across a recovery is
        // retransmitted by the end-to-end Hive RPC protocol (Section 3.3;
        // sequence numbers at the server deduplicate re-executions). This
        // covers the final close too: a task is only allowed to halt once
        // its last RPC is acknowledged.
        if self.rpc_retry_pending && self.state != TaskState::Failed {
            self.ops_issued += 1;
            self.rpc_retry_pending = false;
            self.last_was_monitor = false;
            self.last_was_rpc = true;
            self.rpc.attempts += 1;
            return ProcOp::UncachedRead { dev: self.server };
        }
        if self.state != TaskState::Running {
            return ProcOp::Halt;
        }
        self.ops_issued += 1;
        // Every 16th operation is an inter-cell kernel monitor read.
        if !self.monitor.is_empty() && self.ops_issued.is_multiple_of(16) {
            self.last_was_monitor = true;
            self.last_was_rpc = false;
            return ProcOp::Read(LineAddr(line_pick(&self.monitor, rng)));
        }
        self.last_was_monitor = false;
        self.last_was_rpc = matches!(self.step, Step::Open | Step::Close);
        if self.last_was_rpc {
            self.rpc.attempts += 1;
        }
        match self.step {
            Step::Open => {
                self.step = Step::Read(0);
                ProcOp::UncachedRead { dev: self.server }
            }
            Step::Read(i) => {
                self.step = if i + 1 < self.blocks_per_file {
                    Step::Read(i + 1)
                } else {
                    Step::Compute
                };
                ProcOp::Read(self.pick(self.server_data, rng))
            }
            Step::Compute => {
                self.step = Step::Write(0);
                ProcOp::Compute(self.compute_ns)
            }
            Step::Write(i) => {
                self.step = if i + 1 < self.out_blocks {
                    Step::Write(i + 1)
                } else {
                    Step::Close
                };
                ProcOp::Write(self.pick(self.own_data, rng))
            }
            Step::Close => {
                self.step = Step::Open;
                self.file_idx += 1;
                if self.file_idx >= self.files_total {
                    self.state = TaskState::Completed;
                    // The close RPC of the final file still executes.
                }
                ProcOp::UncachedRead { dev: self.server }
            }
        }
    }

    fn on_result(&mut self, _node: NodeId, _now: SimTime, result: OpResult) {
        self.ops_done += 1;
        match result {
            OpResult::Ok(_) => {
                if self.last_was_rpc {
                    self.rpc.completed += 1;
                }
            }
            OpResult::BusError(err) => {
                if self.last_was_monitor {
                    // Kernel-handled: reading a failed cell's structures
                    // after recovery raises a bus error the kernel absorbs.
                    return;
                }
                if self.last_was_rpc
                    && matches!(err, flash_magic::BusError::UncachedUnresolved)
                    && self.state != TaskState::Failed
                {
                    // The RPC's fate is unknown after recovery: the
                    // end-to-end protocol retransmits it.
                    self.rpc.unresolved += 1;
                    self.rpc_retry_pending = true;
                    return;
                }
                if self.first_error.is_none() {
                    self.first_error = Some(err);
                }
                self.state = TaskState::Failed;
            }
        }
    }
}

/// Picks a uniformly random element of a nonempty slice.
fn line_pick(lines: &[u64], rng: &mut DetRng) -> u64 {
    *rng.choose(lines).expect("nonempty")
}

/// The file-server workload: services RPCs passively (uncached reads hit
/// its I/O device) while keeping its kernel structures warm with local
/// stores and monitoring peer cells like any Hive kernel.
#[derive(Clone, Debug)]
pub struct ServerLoop {
    own_data: (u64, u64),
    period_ns: u64,
    monitor: Vec<u64>,
}

impl ServerLoop {
    /// Creates the server workload touching its own lines every `period_ns`.
    pub fn new(own_data: (u64, u64), period_ns: u64) -> Self {
        ServerLoop {
            own_data,
            period_ns,
            monitor: Vec::new(),
        }
    }

    /// Installs the peer-cell kernel lines polled between operations.
    pub fn with_monitor(mut self, peer_kernel_lines: Vec<u64>) -> Self {
        self.monitor = peer_kernel_lines;
        self
    }
}

impl Workload for ServerLoop {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn next_op(&mut self, _node: NodeId, _now: SimTime, rng: &mut DetRng) -> ProcOp {
        if !self.monitor.is_empty() && rng.chance(0.1) {
            let line = *rng.choose(&self.monitor).expect("nonempty");
            return ProcOp::Read(LineAddr(line));
        }
        if rng.chance(0.5) {
            ProcOp::Write(LineAddr(
                rng.range_inclusive(self.own_data.0, self.own_data.1 - 1),
            ))
        } else {
            ProcOp::Compute(self.period_ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_magic::BusError;

    fn task() -> CompileTask {
        CompileTask::new(NodeId(0), 2, 3, 2, 1_000, (0, 10), (100, 110))
    }

    #[test]
    fn task_walks_through_stages() {
        let mut t = task();
        let mut rng = DetRng::new(1);
        let me = NodeId(1);
        // File 1: open, 3 reads, compute, 2 writes, close.
        assert!(matches!(
            t.next_op(me, SimTime::ZERO, &mut rng),
            ProcOp::UncachedRead { .. }
        ));
        for _ in 0..3 {
            match t.next_op(me, SimTime::ZERO, &mut rng) {
                ProcOp::Read(l) => assert!(l.0 < 10),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(
            t.next_op(me, SimTime::ZERO, &mut rng),
            ProcOp::Compute(1_000)
        ));
        for _ in 0..2 {
            match t.next_op(me, SimTime::ZERO, &mut rng) {
                ProcOp::Write(l) => assert!((100..110).contains(&l.0)),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(
            t.next_op(me, SimTime::ZERO, &mut rng),
            ProcOp::UncachedRead { .. }
        ));
        assert_eq!(t.files_done(), 1);
        assert_eq!(t.state(), TaskState::Running);
        // File 2 runs to completion.
        let mut guard = 0;
        while t.state() == TaskState::Running {
            let _ = t.next_op(me, SimTime::ZERO, &mut rng);
            guard += 1;
            assert!(guard < 100);
        }
        assert_eq!(t.state(), TaskState::Completed);
        assert_eq!(t.files_done(), 2);
        assert_eq!(t.next_op(me, SimTime::ZERO, &mut rng), ProcOp::Halt);
    }

    #[test]
    fn bus_error_kills_task() {
        let mut t = task();
        let mut rng = DetRng::new(2);
        let me = NodeId(1);
        let _ = t.next_op(me, SimTime::ZERO, &mut rng);
        t.on_result(me, SimTime::ZERO, OpResult::Ok(None));
        t.on_result(me, SimTime::ZERO, OpResult::BusError(BusError::Incoherent));
        assert_eq!(t.state(), TaskState::Failed);
        assert_eq!(t.first_error(), Some(BusError::Incoherent));
        assert_eq!(t.next_op(me, SimTime::ZERO, &mut rng), ProcOp::Halt);
        assert_eq!(t.progress(), 2);
    }

    #[test]
    fn server_loop_alternates() {
        let mut s = ServerLoop::new((0, 4), 500);
        let mut rng = DetRng::new(3);
        let mut writes = 0;
        let mut computes = 0;
        for _ in 0..100 {
            match s.next_op(NodeId(0), SimTime::ZERO, &mut rng) {
                ProcOp::Write(l) => {
                    assert!(l.0 < 4);
                    writes += 1;
                }
                ProcOp::Compute(ns) => {
                    assert_eq!(ns, 500);
                    computes += 1;
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(writes > 20 && computes > 20);
    }
}
