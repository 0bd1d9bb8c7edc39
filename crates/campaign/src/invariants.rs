//! The invariant stack: machine-level safety properties checked after every
//! campaign run.
//!
//! Each check inspects the final machine state (and the oracle) and reports
//! zero or more [`Violation`]s. The stack deliberately over-approximates
//! what the paper's Table 5.3 validation checks: besides oracle-bounded
//! incoherence and silent corruption it also verifies the recovered
//! interconnect (connectivity + deadlock freedom), the directory (no dirty
//! ownership stranded on failed nodes), version monotonicity against the
//! oracle, Hive's exactly-once RPC accounting, and the internal consistency
//! of the recovery report.

use flash_core::FcMachine;
use flash_core::RecMsg;
use flash_hive::{CompileTask, TaskState};
use flash_machine::{FaultSpec, MachineState, ValidationReport};
use flash_net::{NodeId, RouterId, UGraph};

/// One invariant violation found by the stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (used by triage and the JSON dump).
    pub invariant: &'static str,
    /// Human-readable description of the violation.
    pub details: String,
}

impl Violation {
    fn new(invariant: &'static str, details: impl Into<String>) -> Self {
        Violation {
            invariant,
            details: details.into(),
        }
    }
}

/// What gray faults actually *fired* during a run, distilled from the armed
/// fault list (never-armed phase events are excluded — they did not happen).
/// The gray-specific invariants key off these facts so they only apply to
/// runs whose failure mix makes their guarantee unconditional.
#[derive(Clone, Debug, Default)]
pub struct GrayFacts {
    /// Nodes hit by a `FailSlow` fault.
    pub fail_slow: Vec<NodeId>,
    /// Nodes hit by a `DegradedMemory` fault.
    pub degraded: Vec<NodeId>,
    /// Number of `LossyLink` faults.
    pub lossy_links: usize,
    /// Whether a fail-stop `Link` fault fired (can legitimately strand
    /// traffic until recovery reroutes, so it weakens gray liveness claims).
    pub link_faults: bool,
    /// Whether any fired fault doomed at least one node.
    pub doomed_any: bool,
}

impl GrayFacts {
    /// Distills the facts from the list of faults that fired.
    pub fn from_faults(faults: &[FaultSpec]) -> GrayFacts {
        fn walk(f: &FaultSpec, g: &mut GrayFacts) {
            match f {
                FaultSpec::FailSlow(n, _) => g.fail_slow.push(*n),
                FaultSpec::DegradedMemory(n, _, _) => g.degraded.push(*n),
                FaultSpec::LossyLink(..) => g.lossy_links += 1,
                FaultSpec::Link(..) => g.link_faults = true,
                FaultSpec::Multi(list) => {
                    for m in list {
                        walk(m, g);
                    }
                }
                _ => {}
            }
        }
        let mut g = GrayFacts::default();
        for f in faults {
            walk(f, &mut g);
            g.doomed_any |= !f.doomed_nodes().is_empty();
        }
        g
    }

    /// Whether any gray fault fired at all.
    pub fn any(&self) -> bool {
        !self.fail_slow.is_empty() || !self.degraded.is_empty() || self.lossy_links > 0
    }
}

/// Facts about the run the invariant stack needs to decide which checks
/// apply.
#[derive(Clone, Debug)]
pub struct RunContext {
    /// Whether the run drained within its simulated-time budget.
    pub finished: bool,
    /// Whether a node-dooming fault fired. Detection is then guaranteed —
    /// by live traffic, a fail-fast assertion, or the machine's heartbeat
    /// audit — so recovery *must* have triggered.
    pub detectable_fault_fired: bool,
    /// Whether the schedule targeted the Hive end-to-end harness.
    pub hive: bool,
    /// Per-processor operation count a finished machine-mode run implies
    /// (the fail-slow progress floor); `0` disables the floor.
    pub required_progress: u64,
    /// The gray faults that fired.
    pub gray: GrayFacts,
}

/// Runs the full invariant stack against the machine's final state.
pub fn check_all(m: &FcMachine, ctx: &RunContext) -> Vec<Violation> {
    let mut v = Vec::new();
    let validation = m.st().validate();
    check_oracle(&validation, &mut v);
    check_report(m, ctx, &mut v);
    let recovered = m.ext().report.completed() && !m.ext().report.machine_halted;
    if recovered {
        check_routing(m.st(), &mut v);
        if ctx.finished {
            check_ownership(m.st(), &mut v);
        }
    }
    if ctx.finished {
        check_versions(m.st(), &mut v);
    }
    if ctx.hive {
        check_rpc(m, ctx, &mut v);
    }
    check_gray(m, ctx, &validation, &mut v);
    v
}

/// Gray-failure guarantees. Each sub-check only applies when the fired
/// fault mix leaves the guarantee unconditional (no doomed nodes, no other
/// gray class muddying the waters), so a violation is a genuine bug:
///
/// * **fail-slow progress floor** — a slow-but-correct node must still
///   complete its workload in a finished run, and a pure fail-slow run must
///   not fail to finish;
/// * **degraded-memory no-wrong-data** — extra latency and transient NAKs
///   must never surface as incoherent or corrupted lines;
/// * **lossy-link liveness** — dropped packets must end in eventual
///   completion (timeout/NAK retry delivers) or eventual detection.
fn check_gray(
    m: &FcMachine,
    ctx: &RunContext,
    validation: &ValidationReport,
    out: &mut Vec<Violation>,
) {
    let g = &ctx.gray;
    if !g.any() {
        return;
    }
    let st = m.st();
    let report = &m.ext().report;
    let halted = report.machine_halted;
    let pure = !g.doomed_any && g.lossy_links == 0 && !g.link_faults;

    if !g.fail_slow.is_empty() {
        if ctx.finished && !halted && ctx.required_progress > 0 {
            for &n in &g.fail_slow {
                let node = &st.nodes[n.index()];
                if st.failed_nodes.contains(n) || !node.is_alive() {
                    continue;
                }
                let progress = node.workload.progress();
                if progress < ctx.required_progress {
                    out.push(Violation::new(
                        "failslow-progress-floor",
                        format!(
                            "fail-slow node {:?} finished at {progress}/{} ops",
                            n, ctx.required_progress
                        ),
                    ));
                }
            }
        }
        if pure
            && g.degraded.is_empty()
            && !ctx.finished
            && !halted
            && report.phases.triggered_at.is_none()
        {
            out.push(Violation::new(
                "failslow-progress-floor",
                "a pure fail-slow run neither finished nor triggered recovery".to_string(),
            ));
        }
    }

    let wrong_data = validation.marked_incoherent > 0 || !validation.corrupted.is_empty();
    if !g.degraded.is_empty() && pure && ctx.finished && !halted && wrong_data {
        out.push(Violation::new(
            "degraded-no-wrong-data",
            format!(
                "degraded memory surfaced as wrong data: {} incoherent, {} corrupted",
                validation.marked_incoherent,
                validation.corrupted.len()
            ),
        ));
    }

    if g.lossy_links > 0 && !ctx.finished && !halted && report.phases.triggered_at.is_none() {
        out.push(Violation::new(
            "lossy-liveness",
            "lossy link dropped packets and the run neither completed nor detected anything"
                .to_string(),
        ));
    }
}

/// Oracle-bounded incoherence and no silent corruption (the Table 5.3
/// checks, split into two invariants for triage). A failure the full drop
/// log may explain is flagged as such as well.
fn check_oracle(report: &ValidationReport, out: &mut Vec<Violation>) {
    if report.inconclusive() {
        out.push(Violation::new(
            "oracle-inconclusive",
            format!(
                "{} coherence drops past the drop log: the failing lines may have been lost in transit",
                report.unlogged_drops
            ),
        ));
    }
    if !report.overmarked.is_empty() {
        out.push(Violation::new(
            "oracle-incoherence",
            format!(
                "{} lines over-marked incoherent (first: {:?})",
                report.overmarked.len(),
                &report.overmarked[..report.overmarked.len().min(4)]
            ),
        ));
    }
    if !report.corrupted.is_empty() {
        out.push(Violation::new(
            "oracle-corruption",
            format!(
                "{} lines silently corrupted (first: {:?})",
                report.corrupted.len(),
                &report.corrupted[..report.corrupted.len().min(4)]
            ),
        ));
    }
}

/// Builds the graph of live routers and live links.
fn live_graph(st: &MachineState<RecMsg>) -> (UGraph, Vec<bool>) {
    let design = st.fabric.design_graph();
    let n = design.len();
    let alive: Vec<bool> = (0..n)
        .map(|r| st.fabric.router_alive(RouterId(r as u16)))
        .collect();
    let mut live = UGraph::new(n);
    for a in 0..n as u16 {
        for &b in design.neighbors(a) {
            if a < b
                && alive[a as usize]
                && alive[b as usize]
                && st.fabric.link_alive_between(RouterId(a), RouterId(b))
            {
                live.add_edge(a, b);
            }
        }
    }
    (live, alive)
}

/// Survivor routing: within the largest surviving component, every pair of
/// live nodes must have a route, and the installed up*/down* tables must be
/// free of channel-dependency cycles (deadlock freedom, Section 4.4).
fn check_routing(st: &MachineState<RecMsg>, out: &mut Vec<Violation>) {
    let (live, alive) = live_graph(st);
    let survivors: Vec<u16> = (0..st.num_nodes() as u16)
        .filter(|&i| !st.failed_nodes.contains(NodeId(i)) && alive[i as usize])
        .collect();
    if survivors.is_empty() {
        return;
    }
    // Largest connected component of the live graph, by member count.
    let mut best: Vec<u16> = Vec::new();
    let mut seen = vec![false; live.len()];
    for &s in &survivors {
        if seen[s as usize] {
            continue;
        }
        let dist = live.bfs_distances(s, &alive);
        let comp: Vec<u16> = survivors
            .iter()
            .copied()
            .filter(|&t| dist[t as usize] != u32::MAX)
            .collect();
        for &t in &comp {
            seen[t as usize] = true;
        }
        if comp.len() > best.len() {
            best = comp;
        }
    }
    let tables = st.fabric.tables();
    for &a in &best {
        for &b in &best {
            if a != b && tables.route_length(RouterId(a), RouterId(b)).is_none() {
                out.push(Violation::new(
                    "routing-connectivity",
                    format!("no route between surviving nodes {a} and {b}"),
                ));
            }
        }
    }
    if !flash_net::channel_dependencies_acyclic(tables, st.fabric.design_graph(), &alive) {
        out.push(Violation::new(
            "routing-acyclicity",
            "recovered routing tables contain a channel-dependency cycle".to_string(),
        ));
    }
}

/// No stranded dirty ownership: after a completed recovery and a drained
/// run, no live directory entry may still name a failed node as exclusive
/// owner, and no entry may remain locked.
fn check_ownership(st: &MachineState<RecMsg>, out: &mut Vec<Violation>) {
    for node in &st.nodes {
        if st.failed_nodes.contains(node.id) {
            continue;
        }
        for (line, state) in node.dir.iter_states() {
            if let flash_coherence::DirState::Exclusive(owner) = state {
                if st.failed_nodes.contains(owner) {
                    out.push(Violation::new(
                        "stranded-ownership",
                        format!("line {line:?} still owned exclusively by failed node {owner:?}"),
                    ));
                }
            } else if state.is_locked() {
                let sharers = node.dir.sharers(line);
                out.push(Violation::new(
                    "stranded-ownership",
                    format!(
                        "line {line:?} still locked at quiescence: {state:?}, sharers {sharers:?}"
                    ),
                ));
            }
        }
    }
}

/// Version monotonicity: no memory image or cached copy may hold a version
/// *newer* than the oracle's expected version — a version from the future
/// means a write reached the line outside the coherence protocol (e.g. a
/// wild write the firewall should have blocked).
fn check_versions(st: &MachineState<RecMsg>, out: &mut Vec<Violation>) {
    for node in &st.nodes {
        if st.failed_nodes.contains(node.id) {
            continue;
        }
        for (line, mem) in node.dir.iter_versions() {
            let expected = st.oracle.expected_version(line);
            if mem > expected {
                out.push(Violation::new(
                    "version-monotonicity",
                    format!(
                        "line {line:?} memory at {mem:?}, ahead of oracle {expected:?} \
                         (write outside the coherence protocol)"
                    ),
                ));
            }
        }
        for l in node.cache.iter() {
            let expected = st.oracle.expected_version(l.addr);
            if l.version > expected {
                out.push(Violation::new(
                    "version-monotonicity",
                    format!(
                        "node {:?} caches line {:?} at {:?}, ahead of oracle {expected:?}",
                        node.id, l.addr, l.version
                    ),
                ));
            }
        }
    }
}

/// Exactly-once RPC accounting (hive mode): every surviving compile task's
/// audit must balance, and completed tasks must have exactly the expected
/// number of acknowledged RPCs — no lost and no duplicated open/close.
fn check_rpc(m: &FcMachine, ctx: &RunContext, out: &mut Vec<Violation>) {
    let st = m.st();
    for node in &st.nodes {
        if st.failed_nodes.contains(node.id) {
            continue;
        }
        let Some(task) = node
            .workload
            .as_any()
            .and_then(|a| a.downcast_ref::<CompileTask>())
        else {
            continue;
        };
        let audit = task.rpc_audit();
        let slack = u64::from(!ctx.finished);
        if !audit.balanced(slack) {
            out.push(Violation::new(
                "rpc-exactly-once",
                format!("node {:?}: unbalanced RPC audit {audit:?}", node.id),
            ));
        }
        if task.state() == TaskState::Completed && audit.completed != audit.expected {
            out.push(Violation::new(
                "rpc-exactly-once",
                format!(
                    "node {:?}: completed task acknowledged {} RPCs, expected {}",
                    node.id, audit.completed, audit.expected
                ),
            ));
        }
    }
}

/// Recovery-report completeness: a detectable fault must have triggered
/// recovery; a triggered recovery on a drained, non-halted machine must
/// have completed; a completed report must be internally consistent
/// (ordered phase times, a resumed survivor, a complete trigger wave).
fn check_report(m: &FcMachine, ctx: &RunContext, out: &mut Vec<Violation>) {
    let report = &m.ext().report;
    if !ctx.finished || report.machine_halted {
        return;
    }
    if ctx.detectable_fault_fired && report.phases.triggered_at.is_none() {
        out.push(Violation::new(
            "report-completeness",
            "a node-dooming fault fired under live traffic but recovery never triggered"
                .to_string(),
        ));
        return;
    }
    if report.phases.triggered_at.is_some() && !report.completed() {
        out.push(Violation::new(
            "report-completeness",
            format!(
                "recovery triggered but did not complete: {:?} (restarts={})",
                report.phases, report.restarts
            ),
        ));
        return;
    }
    if report.completed() {
        let p = &report.phases;
        let seq = [p.triggered_at, p.p1_done, p.p2_done, p.p3_done, p.p4_done];
        if seq.windows(2).any(|w| w[0] > w[1]) {
            out.push(Violation::new(
                "report-completeness",
                format!("phase completion times out of order: {p:?}"),
            ));
        }
        if report.nodes_resumed == 0 {
            out.push(Violation::new(
                "report-completeness",
                "recovery completed but no node resumed".to_string(),
            ));
        }
        if report.wave_complete_at.is_none() {
            out.push(Violation::new(
                "report-completeness",
                "recovery completed without a complete trigger wave".to_string(),
            ));
        }
        if report.p4_started_at.is_none()
            || report.p4_started_at > p.p4_done
            || report.flush_done_at.is_none() && !m.ext().cfg.reliable_interconnect
        {
            out.push(Violation::new(
                "report-completeness",
                format!(
                    "inconsistent P4 accounting: started={:?} flush_done={:?} done={:?}",
                    report.p4_started_at, report.flush_done_at, p.p4_done
                ),
            ));
        }
    }
}
