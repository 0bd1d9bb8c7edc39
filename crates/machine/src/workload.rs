//! Processor workloads: the operation streams driven through the machine.

use flash_coherence::LineAddr;
use flash_magic::BusError;
use flash_net::NodeId;
use flash_sim::{DetRng, SimTime};

/// One processor operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcOp {
    /// Cacheable load.
    Read(LineAddr),
    /// Cacheable store.
    Write(LineAddr),
    /// An incorrectly speculated store (paper, Section 3.3): the processor
    /// fetches the line exclusive but never commits data, and discards any
    /// resulting fault. A node failure can destroy data cached exclusive
    /// this way — which is what the firewall contains.
    SpeculativeWrite(LineAddr),
    /// Spin the CPU for the given number of nanoseconds.
    Compute(u64),
    /// Uncached read of an I/O device register on `dev`.
    UncachedRead {
        /// The device's node.
        dev: NodeId,
    },
    /// Uncached write to an I/O device register on `dev`.
    UncachedWrite {
        /// The device's node.
        dev: NodeId,
        /// Value to write.
        value: u64,
    },
    /// No more work.
    Halt,
}

/// How an operation finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// Completed normally. For uncached reads, carries the value read.
    Ok(Option<u64>),
    /// Terminated with a bus error.
    BusError(BusError),
}

/// A source of processor operations. Implementations must be deterministic
/// given the per-node RNG handed to [`Workload::next_op`].
///
/// Workloads must be cloneable ([`Workload::clone_box`]) so the machine can
/// be checkpointed: a checkpoint snapshots every workload's cursor (ops
/// remaining, results observed, internal counters) alongside the rest of the
/// machine, and a forked run resumes from exactly that cursor.
pub trait Workload: std::fmt::Debug {
    /// Produces the next operation for `node`, issued at simulated time
    /// `now`. Open-loop workloads (request generators with a fixed arrival
    /// schedule) compare `now` against their next arrival; others ignore it.
    fn next_op(&mut self, node: NodeId, now: SimTime, rng: &mut DetRng) -> ProcOp;

    /// Deep-copies the workload, cursor included (checkpoint support).
    fn clone_box(&self) -> Box<dyn Workload>;

    /// Observes the completion (or bus-erroring) of the previous operation
    /// at simulated time `now`. Latency-measuring workloads compute
    /// `now - scheduled_arrival` per request.
    fn on_result(&mut self, _node: NodeId, _now: SimTime, _result: OpResult) {}

    /// A monotone progress counter (completed operations); experiment
    /// harnesses poll this to decide when to inject faults.
    fn progress(&self) -> u64 {
        0
    }

    /// Downcasting hook so experiment harnesses can inspect concrete
    /// workload state after a run.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable downcasting hook so experiment harnesses can update
    /// concrete workload state mid-run (e.g. installing a new replica
    /// placement into a serving workload after recovery).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

impl Clone for Box<dyn Workload> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The cache-fill workload of the validation experiments (paper, Section
/// 5.2): every processor issues reads and writes to lines "chosen at random
/// from the range of valid system addresses", randomly shared or exclusive,
/// until it has filled a target number of cache lines; then it halts.
#[derive(Clone, Debug)]
pub struct RandomFill {
    ops_left: u64,
    write_fraction: f64,
    addr_lo: u64,
    addr_hi: u64,
    /// When set to `(lines_per_node, protected)`, addresses whose
    /// within-node index falls in the protected tail are re-drawn — the
    /// paper's "valid system addresses" exclude the MAGIC region.
    avoid_tail: Option<(u64, u64)>,
    /// Fraction of operations issued as incorrectly speculated writes to
    /// uniformly random addresses (models the R10000's wrong-path stores,
    /// Section 3.3).
    speculative_fraction: f64,
    bus_errors: u64,
    completed: u64,
}

impl RandomFill {
    /// Creates a fill of `ops` operations over global lines
    /// `[addr_lo, addr_hi)` with the given write fraction.
    ///
    /// # Panics
    ///
    /// Panics if the address range is empty or the fraction not in `[0,1]`.
    pub fn new(ops: u64, write_fraction: f64, addr_lo: u64, addr_hi: u64) -> Self {
        assert!(addr_lo < addr_hi, "empty address range");
        assert!((0.0..=1.0).contains(&write_fraction));
        RandomFill {
            ops_left: ops,
            write_fraction,
            addr_lo,
            addr_hi,
            avoid_tail: None,
            speculative_fraction: 0.0,
            bus_errors: 0,
            completed: 0,
        }
    }

    /// Enables incorrectly speculated writes at the given rate.
    pub fn with_speculation(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.speculative_fraction = fraction;
        self
    }

    /// Creates a fill over all valid system addresses of a machine:
    /// everything except the per-node MAGIC-protected tail.
    pub fn valid_system_range(
        ops: u64,
        write_fraction: f64,
        layout: flash_coherence::MemLayout,
        protected_lines: u64,
    ) -> Self {
        let mut w = RandomFill::new(ops, write_fraction, 0, layout.total_lines());
        w.avoid_tail = Some((layout.lines_per_node(), protected_lines));
        w
    }

    /// Operations completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Bus errors observed so far.
    pub fn bus_errors(&self) -> u64 {
        self.bus_errors
    }
}

impl Workload for RandomFill {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn progress(&self) -> u64 {
        self.completed
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn next_op(&mut self, _node: NodeId, _now: SimTime, rng: &mut DetRng) -> ProcOp {
        if self.ops_left == 0 {
            return ProcOp::Halt;
        }
        self.ops_left -= 1;
        if self.speculative_fraction > 0.0 && rng.chance(self.speculative_fraction) {
            // Wrong-path store to a fully arbitrary address — speculation
            // does not respect the valid-range discipline.
            let cand = rng.range_inclusive(self.addr_lo, self.addr_hi - 1);
            return ProcOp::SpeculativeWrite(LineAddr(cand));
        }
        let line = loop {
            let cand = rng.range_inclusive(self.addr_lo, self.addr_hi - 1);
            match self.avoid_tail {
                Some((lpn, protected)) if cand % lpn >= lpn - protected => continue,
                _ => break LineAddr(cand),
            }
        };
        if rng.chance(self.write_fraction) {
            ProcOp::Write(line)
        } else {
            ProcOp::Read(line)
        }
    }

    fn on_result(&mut self, _node: NodeId, _now: SimTime, result: OpResult) {
        self.completed += 1;
        if matches!(result, OpResult::BusError(_)) {
            self.bus_errors += 1;
        }
    }
}

/// A fixed, scripted operation sequence (used by tests and by the Hive task
/// model).
#[derive(Clone, Debug)]
pub struct Script {
    ops: std::collections::VecDeque<ProcOp>,
    results: Vec<OpResult>,
}

impl Script {
    /// Creates a script from a list of operations.
    pub fn new(ops: impl IntoIterator<Item = ProcOp>) -> Self {
        Script {
            ops: ops.into_iter().collect(),
            results: Vec::new(),
        }
    }

    /// Results observed so far, in completion order.
    pub fn results(&self) -> &[OpResult] {
        &self.results
    }

    /// Whether every scripted op has been issued.
    pub fn is_drained(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Workload for Script {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn progress(&self) -> u64 {
        self.results.len() as u64
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn next_op(&mut self, _node: NodeId, _now: SimTime, _rng: &mut DetRng) -> ProcOp {
        self.ops.pop_front().unwrap_or(ProcOp::Halt)
    }

    fn on_result(&mut self, _node: NodeId, _now: SimTime, result: OpResult) {
        self.results.push(result);
    }
}

/// An idle workload: the processor halts immediately.
#[derive(Clone, Copy, Debug, Default)]
pub struct Idle;

impl Workload for Idle {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(*self)
    }

    fn next_op(&mut self, _node: NodeId, _now: SimTime, _rng: &mut DetRng) -> ProcOp {
        ProcOp::Halt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_fill_respects_range_and_count() {
        let mut w = RandomFill::new(100, 0.5, 10, 20);
        let mut rng = DetRng::new(1);
        let mut reads = 0;
        let mut writes = 0;
        for _ in 0..100 {
            match w.next_op(NodeId(0), SimTime::ZERO, &mut rng) {
                ProcOp::Read(l) => {
                    assert!((10..20).contains(&l.0));
                    reads += 1;
                }
                ProcOp::Write(l) => {
                    assert!((10..20).contains(&l.0));
                    writes += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(reads + writes, 100);
        assert!(writes > 20 && reads > 20, "roughly mixed");
        assert_eq!(w.next_op(NodeId(0), SimTime::ZERO, &mut rng), ProcOp::Halt);
    }

    #[test]
    fn random_fill_counts_results() {
        let mut w = RandomFill::new(1, 0.0, 0, 1);
        w.on_result(NodeId(0), SimTime::ZERO, OpResult::Ok(None));
        w.on_result(
            NodeId(0),
            SimTime::ZERO,
            OpResult::BusError(BusError::DeadHome),
        );
        assert_eq!(w.completed(), 2);
        assert_eq!(w.bus_errors(), 1);
    }

    #[test]
    fn script_plays_in_order_then_halts() {
        let mut s = Script::new([ProcOp::Read(LineAddr(1)), ProcOp::Compute(50)]);
        let mut rng = DetRng::new(0);
        assert_eq!(
            s.next_op(NodeId(0), SimTime::ZERO, &mut rng),
            ProcOp::Read(LineAddr(1))
        );
        assert!(!s.is_drained());
        assert_eq!(
            s.next_op(NodeId(0), SimTime::ZERO, &mut rng),
            ProcOp::Compute(50)
        );
        assert!(s.is_drained());
        assert_eq!(s.next_op(NodeId(0), SimTime::ZERO, &mut rng), ProcOp::Halt);
        s.on_result(NodeId(0), SimTime::ZERO, OpResult::Ok(None));
        assert_eq!(s.results().len(), 1);
    }

    #[test]
    fn idle_halts() {
        assert_eq!(
            Idle.next_op(NodeId(0), SimTime::ZERO, &mut DetRng::new(0)),
            ProcOp::Halt
        );
    }
}
