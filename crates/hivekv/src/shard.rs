//! The per-cell KV serving shard: an open-loop request generator and
//! server, implemented as a processor [`Workload`].
//!
//! Each cell's boot node runs one shard. Clients are modeled as a fixed
//! arrival schedule: the next arrival time is drawn from the seeded RNG
//! *when the previous one is admitted*, so the schedule is a deterministic
//! function of the seed and does not shift when service slows down — if
//! the machine suspends for recovery, arrivals pile up and the measured
//! latency (completion minus scheduled arrival) shows the queueing delay a
//! user would see.
//!
//! A GET issues `READS_PER_GET` coherent reads against the primary
//! replica's chunk lines; a PUT writes one line on every replica (pending
//! copies included) and acks only when all writes complete. A request
//! touching a lost chunk fails immediately; a bus error on any request op
//! fails that request but the shard keeps serving (errors are
//! user-visible, not shard-fatal). Reads that trip over a
//! post-recovery incoherent line are retried after a short page-service
//! delay (the OS reinitializes incoherent pages at recovery completion;
//! the retry models the KV server refetching through the page service).

use crate::config::{KvConfig, GET_FRACTION, KEYS, LINES_PER_CHUNK, READS_PER_GET, ZIPF_THETA};
use crate::placement::ChunkPlacement;
use crate::zipf::{scramble_rank, ZipfSampler};
use flash_coherence::LineAddr;
use flash_machine::{OpResult, ProcOp, Workload};
use flash_magic::BusError;
use flash_net::NodeId;
use flash_sim::{DetRng, LatencyHistogram, SimDuration, SimTime};

/// Base delay before retrying a read that hit an incoherent line, modeling
/// the OS page service reinitializing the page (paper, Section 4.6).
const INCOHERENT_RETRY_NS: u64 = 100_000;
/// Retries per request before the incoherent access surfaces to the user.
/// Lines held exclusive by a node that dies stay incoherent until the OS
/// pass at recovery completion, so the retry budget (with the exponential
/// backoff below) must span protocol recovery at Table 5-1 scale (~0.5 s
/// at 8 nodes) even when a multi-fault cascade restarts recovery several
/// times back to back: 12.7 ms of doubling steps plus 248 x 12.8 ms capped
/// steps covers ~3.2 s, within the SLO ceiling.
const INCOHERENT_RETRIES: u32 = 256;
/// Backoff doubles per retry up to this shift (100 us << 7 = 12.8 ms), so
/// the overshoot past recovery completion stays small relative to the
/// recovery pause itself.
const INCOHERENT_BACKOFF_MAX_SHIFT: u32 = 7;

/// What kind of operation the shard issued last (routes `on_result`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Issued {
    /// Nothing outstanding.
    None,
    /// A kernel-monitoring read of a peer node (errors absorbed).
    Monitor,
    /// An idle spin until the next scheduled arrival.
    Wait,
    /// An op belonging to the active request.
    Request,
}

/// Which user-level operation a request performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReqKind {
    Get,
    Put,
}

/// An in-flight request: its remaining ops and accounting identity.
#[derive(Clone, Debug)]
struct ActiveReq {
    arrival_ns: u64,
    chunk: u32,
    kind: ReqKind,
    ops: Vec<ProcOp>,
    next: usize,
    retries: u32,
}

/// Per-shard serving statistics.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Requests admitted from the arrival schedule.
    pub arrivals: u64,
    /// Requests completed successfully.
    pub ok: u64,
    /// Requests that surfaced an error to the user.
    pub errors: u64,
    /// PUTs acknowledged on every replica.
    pub acked_puts: u64,
    /// Errors on requests to chunks with no surviving replica.
    pub lost_chunk_errors: u64,
    /// Per-chunk user-visible errors.
    pub chunk_errors: Vec<u64>,
    /// Latency of successful requests.
    pub lat_ok: LatencyHistogram,
    /// Latency of successful requests to never-affected chunks.
    pub lat_unaffected_ok: LatencyHistogram,
    /// Latency from arrival to error for failed requests.
    pub lat_err: LatencyHistogram,
    /// Latency samples whose completion time preceded the recorded arrival
    /// (clamped to 0ns). Always 0 in a healthy run: a nonzero count means
    /// the shard's scheduling went backwards in time, which previously was
    /// silently hidden by the clamp.
    pub clamped_latency: u64,
}

impl ShardStats {
    fn new(chunks: u32) -> Self {
        ShardStats {
            arrivals: 0,
            ok: 0,
            errors: 0,
            acked_puts: 0,
            lost_chunk_errors: 0,
            chunk_errors: vec![0; chunks as usize],
            lat_ok: LatencyHistogram::new(),
            lat_unaffected_ok: LatencyHistogram::new(),
            lat_err: LatencyHistogram::new(),
            clamped_latency: 0,
        }
    }

    /// Latency from `arrival_ns` to `now_ns`, counting (and debug-asserting
    /// against) samples where completion precedes arrival instead of letting
    /// `saturating_sub` silently record 0ns.
    fn latency_since(&mut self, now_ns: u64, arrival_ns: u64) -> SimDuration {
        debug_assert!(
            now_ns >= arrival_ns,
            "request completed at {now_ns}ns before its arrival at {arrival_ns}ns"
        );
        if now_ns < arrival_ns {
            self.clamped_latency += 1;
        }
        SimDuration::from_nanos(now_ns.saturating_sub(arrival_ns))
    }

    /// Requests resolved either way.
    pub fn resolved(&self) -> u64 {
        self.ok + self.errors
    }
}

/// One cell's KV serving shard (a [`Workload`] installed on the cell's
/// boot node).
#[derive(Clone, Debug)]
pub struct KvShard {
    cell: u16,
    chunks: u32,
    /// Per cell: first line of the chunk region on that cell's boot node.
    chunk_base: Vec<u64>,
    mean_gap_ns: u64,
    budget: u64,
    zipf: ZipfSampler,
    /// Peer kernel lines polled while idle (background monitoring).
    monitor: Vec<u64>,
    placement: ChunkPlacement,
    next_arrival_ns: Option<u64>,
    active: Option<ActiveReq>,
    issued: Issued,
    idle_ticks: u64,
    /// Serving statistics (read by the harness through `as_any`).
    pub stats: ShardStats,
}

impl KvShard {
    /// Creates a shard for `cell` with the given placement view.
    pub fn new(cell: u16, cfg: &KvConfig, chunk_base: Vec<u64>, placement: ChunkPlacement) -> Self {
        assert_eq!(chunk_base.len(), cfg.n_cells);
        assert_eq!(placement.chunks(), cfg.chunks);
        KvShard {
            cell,
            chunks: cfg.chunks,
            chunk_base,
            mean_gap_ns: cfg.mean_interarrival_ns(),
            budget: cfg.requests_per_shard,
            zipf: ZipfSampler::new(KEYS, ZIPF_THETA),
            monitor: Vec::new(),
            placement,
            next_arrival_ns: None,
            active: None,
            issued: Issued::None,
            idle_ticks: 0,
            stats: ShardStats::new(cfg.chunks),
        }
    }

    /// Adds peer kernel lines to poll while idle.
    pub fn with_monitor(mut self, lines: Vec<u64>) -> Self {
        self.monitor = lines;
        self
    }

    /// The shard's cell.
    pub fn cell(&self) -> u16 {
        self.cell
    }

    /// Installs a reconfigured placement (after recovery + directory
    /// repair). The active request, if any, keeps its already-computed op
    /// targets — exactly like a server that looked up the old placement
    /// before the epoch bumped.
    pub fn install_placement(&mut self, p: ChunkPlacement) {
        assert_eq!(p.chunks(), self.chunks);
        self.placement = p;
    }

    /// The shard's current placement view.
    pub fn placement(&self) -> &ChunkPlacement {
        &self.placement
    }

    /// Whether every budgeted request has been resolved.
    pub fn drained(&self) -> bool {
        self.stats.resolved() >= self.budget
    }

    fn gap(&self, rng: &mut DetRng) -> u64 {
        rng.range_inclusive(
            self.mean_gap_ns / 2,
            self.mean_gap_ns + self.mean_gap_ns / 2,
        )
    }

    fn line_of(&self, cell: u16, chunk: u32, off: u64) -> LineAddr {
        LineAddr(
            self.chunk_base[cell as usize] + chunk as u64 * LINES_PER_CHUNK + off % LINES_PER_CHUNK,
        )
    }

    /// Builds the op sequence for a request, or `None` if the chunk is
    /// lost.
    fn build_ops(&self, chunk: u32, key: u64, is_get: bool) -> Option<(ReqKind, Vec<ProcOp>)> {
        let reps = &self.placement.replicas[chunk as usize];
        let off = key >> 32;
        if is_get {
            let primary = *reps.first()?;
            let ops = (0..READS_PER_GET)
                .map(|i| ProcOp::Read(self.line_of(primary, chunk, off + i)))
                .collect();
            Some((ReqKind::Get, ops))
        } else {
            if reps.is_empty() {
                return None;
            }
            let ops = reps
                .iter()
                .map(|&cell| ProcOp::Write(self.line_of(cell, chunk, off)))
                .collect();
            Some((ReqKind::Put, ops))
        }
    }

    fn step(&mut self, now_ns: u64, rng: &mut DetRng) -> ProcOp {
        loop {
            if let Some(req) = &self.active {
                self.issued = Issued::Request;
                return req.ops[req.next];
            }
            if self.stats.arrivals >= self.budget {
                return ProcOp::Halt;
            }
            let arrival = match self.next_arrival_ns {
                Some(t) => t,
                None => {
                    let t = now_ns + self.gap(rng);
                    self.next_arrival_ns = Some(t);
                    t
                }
            };
            if arrival > now_ns {
                // Idle until the next client request; poll a peer kernel
                // line now and then (cells monitor each other's kernels,
                // which is also what detects failures while traffic is
                // quiet).
                self.idle_ticks += 1;
                if !self.monitor.is_empty() && self.idle_ticks.is_multiple_of(16) {
                    let i = (self.idle_ticks / 16) as usize % self.monitor.len();
                    self.issued = Issued::Monitor;
                    return ProcOp::Read(LineAddr(self.monitor[i]));
                }
                self.issued = Issued::Wait;
                return ProcOp::Compute(arrival - now_ns);
            }
            // Admit the arrival and schedule the next one (open loop: the
            // schedule never waits for service).
            self.next_arrival_ns = Some(arrival + self.gap(rng));
            let key = scramble_rank(self.zipf.sample(rng));
            let chunk = (key % self.chunks as u64) as u32;
            let is_get = rng.chance(GET_FRACTION);
            self.stats.arrivals += 1;
            match self.build_ops(chunk, key, is_get) {
                Some((kind, ops)) => {
                    self.active = Some(ActiveReq {
                        arrival_ns: arrival,
                        chunk,
                        kind,
                        ops,
                        next: 0,
                        retries: 0,
                    });
                }
                None => {
                    // The chunk has no surviving replica: fail fast.
                    self.stats.errors += 1;
                    self.stats.lost_chunk_errors += 1;
                    self.stats.chunk_errors[chunk as usize] += 1;
                    let lat = self.stats.latency_since(now_ns, arrival);
                    self.stats.lat_err.record(lat);
                }
            }
        }
    }

    fn finish_request(&mut self, now_ns: u64, ok: bool) {
        let req = self.active.take().expect("active request");
        let lat = self.stats.latency_since(now_ns, req.arrival_ns);
        if ok {
            self.stats.ok += 1;
            self.stats.lat_ok.record(lat);
            if !self.placement.affected[req.chunk as usize] {
                self.stats.lat_unaffected_ok.record(lat);
            }
            if req.kind == ReqKind::Put {
                self.stats.acked_puts += 1;
            }
        } else {
            self.stats.errors += 1;
            self.stats.chunk_errors[req.chunk as usize] += 1;
            self.stats.lat_err.record(lat);
        }
    }
}

impl Workload for KvShard {
    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn next_op(&mut self, _node: NodeId, now: SimTime, rng: &mut DetRng) -> ProcOp {
        self.step(now.as_nanos(), rng)
    }

    fn on_result(&mut self, _node: NodeId, now: SimTime, result: OpResult) {
        let now_ns = now.as_nanos();
        match std::mem::replace(&mut self.issued, Issued::None) {
            Issued::None => {}
            Issued::Monitor | Issued::Wait => {
                // Monitoring reads of failed peers bus-error; the kernel
                // absorbs those (the trigger fires at the MAGIC level).
            }
            Issued::Request => match result {
                OpResult::Ok(_) => {
                    let req = self.active.as_mut().expect("active request");
                    req.next += 1;
                    if req.next == req.ops.len() {
                        self.finish_request(now_ns, true);
                    }
                }
                OpResult::BusError(BusError::Incoherent) => {
                    let req = self.active.as_mut().expect("active request");
                    if req.retries < INCOHERENT_RETRIES {
                        // Back off and refetch through the OS page
                        // service, which reinitializes incoherent pages
                        // right after recovery.
                        let shift = req.retries.min(INCOHERENT_BACKOFF_MAX_SHIFT);
                        req.retries += 1;
                        req.ops
                            .insert(req.next, ProcOp::Compute(INCOHERENT_RETRY_NS << shift));
                    } else {
                        self.finish_request(now_ns, false);
                    }
                }
                OpResult::BusError(_) => {
                    self.finish_request(now_ns, false);
                }
            },
        }
    }

    fn progress(&self) -> u64 {
        self.stats.resolved()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shard() -> KvShard {
        let cfg = KvConfig {
            n_cells: 4,
            chunks: 8,
            requests_per_shard: 20,
            ..KvConfig::default()
        };
        let base: Vec<u64> = (0..4).map(|c| c as u64 * 10_000 + 64).collect();
        let placement = ChunkPlacement::initial(8, 4, 2);
        KvShard::new(0, &cfg, base, placement)
    }

    /// Drives the shard as the machine would: strict next_op/on_result
    /// alternation, advancing a fake clock past Compute spins.
    fn drive(shard: &mut KvShard, rng: &mut DetRng, max_ops: u32) -> u64 {
        let mut now = 0u64;
        for _ in 0..max_ops {
            match shard.next_op(NodeId(0), SimTime::from_nanos(now), rng) {
                ProcOp::Halt => return now,
                ProcOp::Compute(ns) => {
                    shard.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(None));
                    now += ns;
                }
                ProcOp::Read(_) | ProcOp::Write(_) => {
                    now += 1_000; // fake service time
                    shard.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(Some(0)));
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        now
    }

    #[test]
    fn serves_the_full_budget_and_halts() {
        let mut s = test_shard();
        let mut rng = DetRng::new(11);
        drive(&mut s, &mut rng, 10_000);
        assert_eq!(s.stats.arrivals, 20);
        assert_eq!(s.stats.ok, 20);
        assert_eq!(s.stats.errors, 0);
        assert!(s.drained());
        assert_eq!(s.stats.lat_ok.total(), 20);
        assert!(s.stats.acked_puts <= 20);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let mut a = test_shard();
        let mut b = test_shard();
        drive(&mut a, &mut DetRng::new(5), 10_000);
        drive(&mut b, &mut DetRng::new(5), 10_000);
        assert_eq!(a.stats.ok, b.stats.ok);
        assert_eq!(a.stats.acked_puts, b.stats.acked_puts);
        assert_eq!(a.stats.lat_ok, b.stats.lat_ok);
    }

    #[test]
    fn requests_to_lost_chunks_fail_fast() {
        let mut s = test_shard();
        // Lose every chunk: all requests must fail without issuing ops.
        let mut p = s.placement().clone();
        for r in &mut p.replicas {
            r.clear();
        }
        for a in &mut p.affected {
            *a = true;
        }
        s.install_placement(p);
        let mut rng = DetRng::new(9);
        let mut now = 0u64;
        for _ in 0..10_000 {
            match s.next_op(NodeId(0), SimTime::from_nanos(now), &mut rng) {
                ProcOp::Halt => break,
                ProcOp::Compute(ns) => {
                    s.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(None));
                    now += ns;
                }
                other => panic!("lost chunks must not issue memory ops, got {other:?}"),
            }
        }
        assert_eq!(s.stats.errors, 20);
        assert_eq!(s.stats.lost_chunk_errors, 20);
        assert_eq!(s.stats.ok, 0);
    }

    #[test]
    fn bus_error_fails_one_request_but_serving_continues() {
        let mut s = test_shard();
        let mut rng = DetRng::new(3);
        let mut now = 0u64;
        let mut first_memop_seen = false;
        for _ in 0..10_000 {
            match s.next_op(NodeId(0), SimTime::from_nanos(now), &mut rng) {
                ProcOp::Halt => break,
                ProcOp::Compute(ns) => {
                    s.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(None));
                    now += ns;
                }
                ProcOp::Read(_) | ProcOp::Write(_) => {
                    now += 1_000;
                    let result = if !first_memop_seen {
                        first_memop_seen = true;
                        OpResult::BusError(BusError::DeadHome)
                    } else {
                        OpResult::Ok(Some(0))
                    };
                    s.on_result(NodeId(0), SimTime::from_nanos(now), result);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(s.stats.errors, 1);
        assert_eq!(s.stats.ok, 19);
        assert_eq!(s.stats.lat_err.total(), 1);
    }

    #[test]
    fn incoherent_reads_are_retried_through_the_page_service() {
        let mut s = test_shard();
        let mut rng = DetRng::new(3);
        let mut now = 0u64;
        let mut incoherent_budget = 1;
        for _ in 0..10_000 {
            match s.next_op(NodeId(0), SimTime::from_nanos(now), &mut rng) {
                ProcOp::Halt => break,
                ProcOp::Compute(ns) => {
                    s.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(None));
                    now += ns;
                }
                ProcOp::Read(_) | ProcOp::Write(_) => {
                    now += 1_000;
                    let result = if incoherent_budget > 0 {
                        incoherent_budget -= 1;
                        OpResult::BusError(BusError::Incoherent)
                    } else {
                        OpResult::Ok(Some(0))
                    };
                    s.on_result(NodeId(0), SimTime::from_nanos(now), result);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // The transient incoherent access never surfaced to the user.
        assert_eq!(s.stats.errors, 0);
        assert_eq!(s.stats.ok, 20);
    }

    #[test]
    fn open_loop_latency_includes_queueing_backlog() {
        let mut s = test_shard();
        let mut rng = DetRng::new(17);
        // Admit the first request, then stall service for 1 ms before
        // completing it: the recorded latency must reflect the stall.
        let mut now = 0u64;
        loop {
            match s.next_op(NodeId(0), SimTime::from_nanos(now), &mut rng) {
                ProcOp::Compute(ns) => {
                    s.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(None));
                    now += ns;
                }
                ProcOp::Read(_) | ProcOp::Write(_) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        now += 1_000_000; // recovery-like stall
        s.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(Some(0)));
        // Finish the request's remaining ops promptly.
        while s.active.is_some() {
            match s.next_op(NodeId(0), SimTime::from_nanos(now), &mut rng) {
                ProcOp::Read(_) | ProcOp::Write(_) => {
                    now += 1_000;
                    s.on_result(NodeId(0), SimTime::from_nanos(now), OpResult::Ok(Some(0)));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let resolved = s.stats.resolved();
        assert_eq!(resolved, 1);
        assert!(
            s.stats.lat_ok.quantile_upper_bound(1.0) >= SimDuration::from_nanos(1_000_000),
            "stall must show up in user latency"
        );
    }
}
