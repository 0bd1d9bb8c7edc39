//! The three workloads. Each runs untraced, measuring the end-to-end
//! metrics, or traced, alternating an untraced reference repetition
//! through the library's one-call entry point with a traced repetition
//! that records spans and the per-layer metrics.

use crate::adapter::{self, SweepRunOut};
use crate::probes;
use crate::report::{unit_of, Metrics, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{digest, median, per_index_median, tail_or_max};
use flash_core::{ExperimentOutcome, PhaseTimes};
use flash_sim::LatencyHistogram;
use std::time::Instant;

/// What one benchmark run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    /// Runs that failed: `!passed()`, an invariant violation or not
    /// finished (the numerator of `fail_frac`).
    pub failed_runs: u64,
    /// Whether a failed run is what the workload searches for rather than
    /// a failed operation: the chaos campaign exists to find invariant
    /// violations, while the sweep and the cycle must always pass.
    findings: bool,
    pub checks: Vec<(String, bool)>,
    /// Human-readable lines, one per metric, by name with unit.
    pub lines: Vec<String>,
    pub spans: Option<Spans>,
}

impl Outcome {
    fn new(trace: bool) -> Self {
        Outcome {
            metrics: Metrics::new(if trace { PER_LAYER } else { END_TO_END }),
            attempted: 0,
            failed_runs: 0,
            findings: false,
            checks: Vec::new(),
            lines: Vec::new(),
            spans: None,
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Failed operations: the failed runs, unless they are findings.
    pub fn failed(&self) -> u64 {
        if self.findings {
            0
        } else {
            self.failed_runs
        }
    }

    /// Sets a catalogued metric and prints it.
    fn put(&mut self, name: &'static str, value: f64, note: &str) {
        self.metrics.set(name, value);
        self.show(name, &format!("{value:.6}"), unit_of(name), note);
    }

    /// Prints a metric that is not in this run's catalogue.
    fn show(&mut self, name: &str, value: &str, unit: &str, note: &str) {
        self.lines
            .push(format!("{name:<30} {value:>18} {unit:<8} {note}"));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    fn count_runs(&mut self, passed: impl Iterator<Item = bool>) {
        for p in passed {
            self.attempted += 1;
            self.failed_runs += u64::from(!p);
        }
    }

    fn show_fail_frac(&mut self) {
        let frac = self.failed_runs as f64 / self.attempted.max(1) as f64;
        let note = format!("{}/{} runs failed", self.failed_runs, self.attempted);
        self.show("fail_frac", &format!("{frac}"), "ratio", &note);
    }

    fn show_digest(&mut self, digests: &[u64]) {
        let same = digests.windows(2).all(|w| w[0] == w[1]);
        self.check("every repetition simulates the same runs", same);
        let d = format!("{:#018x}", digests.first().copied().unwrap_or(0));
        self.show("sim_digest", &d, "hash", "trace hashes folded in run order");
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Host seconds `f` takes, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `rep` once, then again while one more repetition of median length
/// still fits in `seconds`.
fn repeat(seconds: f64, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut took = Vec::new();
    loop {
        took.push(timed(&mut rep).1);
        if start.elapsed().as_secs_f64() + median(&took) > seconds {
            break;
        }
    }
}

/// The resident-set high-water mark of this process, from `/proc`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics every workload shares. `run_ms` holds each
/// repetition's per-run host times, in run order; a run's time is its
/// median over the repetitions, so the percentiles range over distinct
/// runs.
fn put_end_to_end(o: &mut Outcome, setup: &[f64], walls: &[f64], run_ms: &[Vec<f64>]) {
    let run_ms = per_index_median(run_ms);
    let runs_per_rep = run_ms.len();
    o.put(
        "setup_s",
        median(setup),
        &format!("median of {}", setup.len()),
    );
    let wall = median(walls);
    o.put(
        "wall_s",
        wall,
        &format!("median of {} repetitions", walls.len()),
    );
    o.put(
        "runs_per_s",
        runs_per_rep as f64 / wall,
        &format!("{runs_per_rep} runs per repetition"),
    );
    o.put(
        "run_ms_p50",
        median(&run_ms),
        &format!("n={runs_per_rep} runs"),
    );
    let (tail, note) = tail_or_max(&run_ms);
    o.show("run_ms_tail", &format!("{tail:.6}"), "ms", &note);
    let rss = peak_rss_mb();
    o.check("VmHWM is readable", rss.is_some());
    o.put("peak_rss_mb", rss.unwrap_or(0.0), "VmHWM of this process");
}

/// Simulated per-phase durations (P1..P4) of a completed recovery, in ms.
fn phase_ms(p: &PhaseTimes) -> Option<[f64; 4]> {
    let bounds = [
        p.triggered_at?,
        p.p1_done?,
        p.p2_done?,
        p.p3_done?,
        p.p4_done?,
    ];
    Some(std::array::from_fn(|i| {
        bounds[i + 1].since(bounds[i]).as_millis_f64()
    }))
}

/// Mean trigger-to-P4 simulated time over the runs whose recovery
/// completed, and the mean of each phase.
fn sim_recovery<'a>(outcomes: impl Iterator<Item = &'a ExperimentOutcome>) -> (f64, [f64; 4]) {
    let phases: Vec<[f64; 4]> = outcomes
        .filter_map(|o| phase_ms(&o.recovery.phases))
        .collect();
    let n = phases.len().max(1) as f64;
    let mean: [f64; 4] = std::array::from_fn(|i| phases.iter().map(|p| p[i]).sum::<f64>() / n);
    (mean.iter().sum(), mean)
}

/// The per-layer simulated recovery metrics shared by the two fault
/// workloads.
fn put_sim_recovery(o: &mut Outcome, outcomes: &[&ExperimentOutcome]) {
    let (total, phases) = sim_recovery(outcomes.iter().copied());
    for (name, v) in [
        "core.sim_ms.p1",
        "core.sim_ms.p2",
        "core.sim_ms.p3",
        "core.sim_ms.p4",
    ]
    .into_iter()
    .zip(phases)
    {
        o.put(name, v, "mean over runs");
    }
    o.put("sim_recovery_ms", total, "mean trigger to P4");
    let sum = |f: fn(&ExperimentOutcome) -> u64| outcomes.iter().map(|x| f(x)).sum::<u64>() as f64;
    o.put(
        "core.restarts",
        sum(|x| u64::from(x.recovery.restarts)),
        "summed over runs",
    );
    o.put(
        "machine.bus_errors",
        sum(|x| x.bus_errors),
        "summed over runs",
    );
    o.put(
        "obs.trace_dropped",
        sum(|x| x.trace_dropped),
        "summed over runs",
    );
}

fn put_probes(o: &mut Outcome) {
    o.put(
        "sim.queue_near_ns",
        probes::queue_ns(64),
        "per push or pop, deltas <= 64 ns",
    );
    o.put(
        "sim.queue_far_ns",
        probes::queue_ns(1_000_000),
        "per push or pop, deltas <= 1 ms",
    );
    o.put(
        "net.hop_ns",
        probes::hop_ns(),
        "per fabric event, 4x4 mesh, table-routed",
    );
}

fn put_overhead(o: &mut Outcome, reference: &[f64], traced: &[f64]) {
    let note = format!("traced over untraced wall, n={}", traced.len());
    o.put(
        "obs.tracing_overhead",
        median(traced) / median(reference),
        &note,
    );
}

fn check_hashes(o: &mut Outcome, what: &str, reference: &[u64], traced: &[u64]) {
    let what = format!("{what}: traced per-run trace hashes match the untraced run");
    let ok = reference == traced;
    match o.checks.iter_mut().find(|(w, _)| *w == what) {
        Some((_, all_ok)) => *all_ok &= ok,
        None => o.check(what, ok),
    }
}

// ---------------------------------------------------------------------
// validation_sweep
// ---------------------------------------------------------------------

/// Runs of the sweep in `(kind, run)` order, fill events summed over
/// groups, and the groups' span logs.
fn sweep_flatten(groups: Vec<adapter::GroupOut>) -> (Vec<SweepRunOut>, u64, Vec<Spans>) {
    let fill_events = groups.iter().map(|g| g.fill_events).sum();
    let mut runs = Vec::new();
    let mut logs = Vec::new();
    for g in groups {
        runs.extend(g.runs);
        logs.push(g.spans);
    }
    runs.sort_by_key(|r| r.index);
    (runs, fill_events, logs)
}

pub fn validation_sweep(a: &Args) -> Outcome {
    let mut o = Outcome::new(a.trace);
    let mut digests = Vec::new();
    let mut last: Vec<SweepRunOut> = Vec::new();
    if !a.trace {
        let setup: Vec<f64> = (0..SETUPS)
            .map(|_| timed(|| adapter::sweep_prelude(a.seed)).1)
            .collect();
        let off = Spans::new(Instant::now(), false);
        let (mut walls, mut run_ms) = (Vec::new(), Vec::new());
        repeat(a.seconds, || {
            let (groups, wall) = timed(|| adapter::sweep_groups(a.seed, &off));
            walls.push(wall);
            let (runs, _, _) = sweep_flatten(groups);
            run_ms.push(runs.iter().map(|r| r.host_ms).collect());
            o.count_runs(runs.iter().map(|r| r.outcome.passed()));
            digests.push(digest(
                &runs
                    .iter()
                    .map(|r| r.outcome.trace_hash)
                    .collect::<Vec<_>>(),
            ));
            last = runs;
        });
        put_end_to_end(&mut o, &setup, &walls, &run_ms);
        o.show_fail_frac();
        for r in last.iter().filter(|r| !r.outcome.passed()) {
            let x = &r.outcome;
            let note = format!(
                "run {}: finished={} recovered={} {}",
                r.index,
                x.finished,
                x.recovery.completed(),
                x.validation
            );
            o.show("failed_run", "-", "", &note);
        }
        let (total, _) = sim_recovery(last.iter().map(|r| &r.outcome));
        o.show(
            "sim_recovery_ms",
            &format!("{total:.6}"),
            "sim_ms",
            "mean trigger to P4",
        );
    } else {
        put_probes(&mut o);
        let epoch = Instant::now();
        let mut all = Spans::new(epoch, true);
        let (mut ref_walls, mut walls, mut idle) = (Vec::new(), Vec::new(), Vec::new());
        let mut fill = (0u64, 0.0f64);
        let workers = adapter::sweep_config().workers as f64;
        repeat(a.seconds, || {
            let (reference, w) = timed(|| adapter::sweep_reference(a.seed));
            ref_walls.push(w);
            let (groups, wall) = timed(|| adapter::sweep_groups(a.seed, &Spans::new(epoch, true)));
            walls.push(wall);
            let (runs, fill_events, logs) = sweep_flatten(groups);
            let ref_hashes: Vec<u64> = reference.iter().map(|r| r.trace_hash).collect();
            let hashes: Vec<u64> = runs.iter().map(|r| r.outcome.trace_hash).collect();
            check_hashes(&mut o, "validation_sweep", &ref_hashes, &hashes);
            o.count_runs(runs.iter().map(|r| r.outcome.passed()));
            digests.push(digest(&hashes));
            let mut busy = 0.0;
            for log in logs {
                busy += log.total_s("sweep.group");
                fill.1 += log.total_s("core.prepare_fault_experiment");
                all.absorb(log);
            }
            fill.0 += fill_events;
            idle.push(workers * wall - busy);
            last = runs;
        });
        let med = |name| median(&all.durations_ms(name));
        o.put(
            "core.prepare_ms",
            med("core.prepare_fault_experiment"),
            "median per group",
        );
        o.put(
            "machine.checkpoint_ms",
            med("machine.checkpoint"),
            "median per group",
        );
        o.put("machine.fork_ms", med("machine.fork"), "median per run");
        o.put(
            "core.finish_ms",
            med("core.finish_fault_experiment"),
            "median per run",
        );
        o.put(
            "machine.fill_ns_per_event",
            fill.1 * 1e9 / fill.0 as f64,
            "prepare host time per fill event",
        );
        let busy = all.total_s("sweep.group");
        let prelude =
            all.total_s("core.prepare_fault_experiment") + all.total_s("machine.checkpoint");
        o.put("sweep.prelude_share", prelude / busy, "of worker-busy time");
        o.put(
            "sweep.fork_share",
            all.total_s("machine.fork") / busy,
            "of worker-busy time",
        );
        o.put(
            "sweep.tail_idle_s",
            median(&idle),
            "workers x wall - busy, median",
        );
        let outcomes: Vec<&ExperimentOutcome> = last.iter().map(|r| &r.outcome).collect();
        put_sim_recovery(&mut o, &outcomes);
        put_overhead(&mut o, &ref_walls, &walls);
        o.spans = Some(all);
    }
    o.show_digest(&digests);
    o
}

// ---------------------------------------------------------------------
// recovery_128
// ---------------------------------------------------------------------

/// The default seed's known result: the merged-trace hash and the
/// simulated trigger-to-P4 time.
const RECOVERY_128_SEED7: (u64, &str) = (0xcdd4_d882_0665_78e2, "161.887");

/// The recovery phases host time is bucketed into, as metric names.
const HOST_PHASES: [&str; 6] = [
    "core.host_s.detect",
    "core.host_s.p1",
    "core.host_s.p2",
    "core.host_s.p3",
    "core.host_s.p4",
    "core.host_s.drain",
];

/// Splits the host time of one slice of simulated time `[t0, t1]` across
/// the [`HOST_PHASES`] (detect, P1-P4, drain), in proportion to the
/// simulated time each phase covers within the slice. A phase ends at its
/// completion time in `phases`; one not yet reached has not ended. A slice
/// that advances no simulated time goes wholly to the phase it sits in.
pub fn bucket(t0: u64, t1: u64, host_ns: f64, phases: &PhaseTimes) -> [f64; 6] {
    let ends = [
        phases.triggered_at,
        phases.p1_done,
        phases.p2_done,
        phases.p3_done,
        phases.p4_done,
    ];
    let mut edges = [u64::MAX; 5];
    let mut floor = 0;
    for (edge, end) in edges.iter_mut().zip(ends) {
        match end {
            Some(t) => {
                floor = t.as_nanos().max(floor);
                *edge = floor;
            }
            None => break,
        }
    }
    let lo = |i: usize| if i == 0 { 0 } else { edges[i - 1] };
    let hi = |i: usize| if i == 5 { u64::MAX } else { edges[i] };
    let mut out = [0.0; 6];
    if t1 <= t0 {
        let i = (0..6).find(|&i| t0 < hi(i)).unwrap_or(5);
        out[i] = host_ns;
        return out;
    }
    let span = (t1 - t0) as f64;
    for (i, slot) in out.iter_mut().enumerate() {
        let overlap = hi(i).min(t1).saturating_sub(lo(i).max(t0));
        *slot = host_ns * overlap as f64 / span;
    }
    out
}

pub fn recovery_128(a: &Args) -> Outcome {
    let mut o = Outcome::new(a.trace);
    let mut digests = Vec::new();
    let mut setup = Vec::new();
    let mut last: Option<ExperimentOutcome> = None;
    if !a.trace {
        let (mut walls, mut run_ms) = (Vec::new(), Vec::new());
        repeat(a.seconds, || {
            let (m, s) = timed(|| adapter::recovery_prepare(a.seed));
            setup.push(s);
            let (out, wall) = timed(|| adapter::recovery_finish(m));
            walls.push(wall);
            run_ms.push(vec![wall * 1e3]);
            o.count_runs(std::iter::once(out.passed()));
            digests.push(digest(&[out.trace_hash]));
            last = Some(out);
        });
        while setup.len() < SETUPS {
            setup.push(timed(|| adapter::recovery_prepare(a.seed)).1);
        }
        put_end_to_end(&mut o, &setup, &walls, &run_ms);
        o.show_fail_frac();
    } else {
        put_probes(&mut o);
        let epoch = Instant::now();
        let mut all = Spans::new(epoch, true);
        let (mut ref_walls, mut walls) = (Vec::new(), Vec::new());
        let mut host = [0.0f64; 6];
        let mut counts = adapter::MachineCounts::default();
        let (mut prepare_s, mut sliced_s) = (0.0, 0.0);
        let (mut fill_events, mut post_events) = (0u64, 0u64);
        let mut gaps = Vec::new();
        repeat(a.seconds, || {
            let m = adapter::recovery_prepare(a.seed);
            let (reference, w) = timed(|| adapter::recovery_finish(m));
            ref_walls.push(w);

            let cycle = all.open("recovery.cycle", None, 0);
            let m = all.time("core.prepare_fault_experiment", cycle, 0, || {
                adapter::recovery_prepare(a.seed)
            });
            let events_before = m.events_processed();
            let finish = all.open("core.finish", cycle, 0);
            let t = Instant::now();
            let mut slices = [0.0f64; 6];
            let (out, c) = adapter::recovery_sliced(m, &mut all, finish, |t0, t1, ns, p| {
                for (s, b) in slices.iter_mut().zip(bucket(t0, t1, ns, p)) {
                    *s += b;
                }
            });
            walls.push(t.elapsed().as_secs_f64());
            all.close(finish);
            all.close(cycle);
            let last_s = |name| all.durations_ms(name).last().copied().unwrap_or(0.0) / 1e3;
            let sliced: f64 = slices.iter().sum::<f64>() / 1e9;
            let attributed = sliced + last_s("machine.schedule_fault") + last_s("machine.validate");
            gaps.push(last_s("core.finish") - attributed);
            for (h, s) in host.iter_mut().zip(slices) {
                *h += s / 1e9;
            }
            prepare_s += last_s("core.prepare_fault_experiment");
            fill_events += events_before;
            post_events += c.events - events_before;
            sliced_s += sliced;
            counts = c;
            check_hashes(
                &mut o,
                "recovery_128",
                &[reference.trace_hash],
                &[out.trace_hash],
            );
            o.count_runs(std::iter::once(out.passed()));
            digests.push(digest(&[out.trace_hash]));
            last = Some(out);
        });
        let cycles = walls.len() as f64;
        for (name, h) in HOST_PHASES.into_iter().zip(host) {
            o.put(name, h / cycles, "host time in the phase, mean per cycle");
        }
        let gap = gaps.iter().map(|g| g.abs()).fold(0.0, f64::max);
        let note = "finish not covered by a slice, schedule or validate; worst cycle";
        o.show("core.host_s.unattributed", &format!("{gap:.6}"), "s", note);
        o.check(
            "recovery_128: phase buckets cover the traced finish within 1%",
            gaps.iter().zip(&walls).all(|(g, w)| g.abs() <= 0.01 * w),
        );
        o.put(
            "sim.events",
            counts.events as f64,
            "engine events, fill and finish",
        );
        o.put(
            "sim.ns_per_event",
            sliced_s * 1e9 / post_events as f64,
            "host ns per post-fault event",
        );
        o.put("net.packets_sent", counts.packets_sent as f64, "");
        o.put("net.links_crossed", counts.links_crossed as f64, "");
        o.put(
            "net.inject_full_ratio",
            counts.inject_full as f64 / counts.packets_sent.max(1) as f64,
            &format!(
                "{} full of {} sent",
                counts.inject_full, counts.packets_sent
            ),
        );
        o.put("magic.services", counts.magic_services as f64, "");
        o.put(
            "magic.busy_ms_sim",
            counts.magic_busy_ns as f64 / 1e6,
            "controller busy, all nodes",
        );
        o.put(
            "coherence.naks_sent",
            counts.naks_sent as f64,
            "all directories",
        );
        o.put(
            "machine.fill_ns_per_event",
            prepare_s * 1e9 / fill_events as f64,
            "prepare host time per fill event",
        );
        o.put(
            "machine.validate_ms",
            median(&all.durations_ms("machine.validate")),
            "median per cycle",
        );
        o.put(
            "core.prepare_ms",
            median(&all.durations_ms("core.prepare_fault_experiment")),
            "median per cycle",
        );
        o.put(
            "core.finish_ms",
            median(&all.durations_ms("core.finish")),
            "median per cycle",
        );
        let outcome = last.as_ref().expect("at least one cycle ran");
        put_sim_recovery(&mut o, &[outcome]);
        put_overhead(&mut o, &ref_walls, &walls);
        o.spans = Some(all);
    }
    if let Some(out) = &last {
        let total = out
            .recovery
            .phases
            .total()
            .map_or(0.0, |d| d.as_millis_f64());
        if a.seed == 7 {
            let (hash, ms) = RECOVERY_128_SEED7;
            o.check(
                format!("recovery_128 seed 7: hash {hash:#018x} and {ms} ms simulated"),
                out.trace_hash == hash && format!("{total:.3}") == ms,
            );
        }
        if !a.trace {
            o.show(
                "sim_recovery_ms",
                &format!("{total:.6}"),
                "sim_ms",
                "trigger to P4",
            );
        }
    }
    o.show_digest(&digests);
    o
}

// ---------------------------------------------------------------------
// chaos_campaign
// ---------------------------------------------------------------------

/// Campaign harness modes, as the run-time metrics name them.
fn mode_name(m: flash_campaign::Mode) -> &'static str {
    match m {
        flash_campaign::Mode::Machine => "machine",
        flash_campaign::Mode::Hive => "hive",
        flash_campaign::Mode::HiveKv => "kv",
    }
}

/// Simulated KV service levels over a campaign's KV runs: goodput (ok
/// requests per simulated second) and the p99 latency bucket edge.
fn kv_service(records: &[flash_campaign::RunRecord]) -> Option<(f64, f64, usize)> {
    let kv: Vec<_> = records.iter().filter_map(|r| r.kv.as_ref()).collect();
    if kv.is_empty() {
        return None;
    }
    let ok: u64 = kv.iter().map(|s| s.ok).sum();
    let ns: u64 = kv.iter().map(|s| s.duration_ns).sum();
    let mut lat = LatencyHistogram::new();
    for s in &kv {
        lat.merge(&s.lat_ok);
    }
    let p99 = lat.quantile_upper_bound(0.99).as_millis_f64();
    Some((ok as f64 * 1e9 / ns.max(1) as f64, p99, kv.len()))
}

pub fn chaos_campaign(a: &Args) -> Outcome {
    let mut o = Outcome::new(a.trace);
    o.findings = true;
    let mut digests = Vec::new();
    let mut last = Vec::new();
    let runs = adapter::CAMPAIGN_RUNS;
    if !a.trace {
        let setup: Vec<f64> = (0..SETUPS)
            .map(|_| timed(|| adapter::campaign_run(&adapter::campaign_schedule(a.seed, 0))).1)
            .collect();
        let (mut walls, mut run_ms) = (Vec::new(), Vec::new());
        repeat(a.seconds, || {
            let mut ms = Vec::new();
            let (records, wall) = timed(|| {
                (0..runs)
                    .map(|i| {
                        let (r, s) =
                            timed(|| adapter::campaign_run(&adapter::campaign_schedule(a.seed, i)));
                        ms.push(s * 1e3);
                        r
                    })
                    .collect::<Vec<_>>()
            });
            walls.push(wall);
            run_ms.push(ms);
            o.count_runs(records.iter().map(|r| r.passed() && r.finished));
            digests.push(digest(
                &records.iter().map(|r| r.trace_hash).collect::<Vec<_>>(),
            ));
            last = records;
        });
        for (i, r) in last
            .iter()
            .enumerate()
            .filter(|(_, r)| !(r.passed() && r.finished))
        {
            let note = format!(
                "run {i} seed {} {:?}: finished={} violations={:?} ({:.0} ms)",
                r.schedule.seed, r.schedule.mode, r.finished, r.violations, run_ms[0][i]
            );
            o.show("failed_run", "-", "", &note);
        }
        put_end_to_end(&mut o, &setup, &walls, &run_ms);
        o.show_fail_frac();
        if let Some((goodput, p99, n)) = kv_service(&last) {
            o.show(
                "kv_goodput_rps",
                &format!("{goodput:.6}"),
                "1/sim_s",
                &format!("over {n} KV runs"),
            );
            o.show(
                "kv_p99_ms",
                &format!("{p99:.6}"),
                "sim_ms",
                "upper edge of the p99 power-of-two bucket",
            );
        }
    } else {
        put_probes(&mut o);
        let epoch = Instant::now();
        let mut all = Spans::new(epoch, true);
        let (mut ref_walls, mut walls) = (Vec::new(), Vec::new());
        let mut by_mode: Vec<(&'static str, f64)> = Vec::new();
        repeat(a.seconds, || {
            let (reference, w) = timed(|| adapter::campaign_reference(a.seed));
            ref_walls.push(w);
            let t = Instant::now();
            let mut records = Vec::new();
            for i in 0..runs {
                let run = all.open("campaign.run", None, i);
                let s = all.time("campaign.generate", run, i, || {
                    adapter::campaign_schedule(a.seed, i)
                });
                let id = all.open("campaign.run_schedule", run, i);
                let r = adapter::campaign_run(&s);
                all.close(id);
                all.close(run);
                let ms = all.all()[id.expect("tracing is on")].dur_ns() as f64 / 1e6;
                by_mode.push((mode_name(s.mode), ms));
                records.push(r);
            }
            walls.push(t.elapsed().as_secs_f64());
            let ref_hashes: Vec<u64> = reference.iter().map(|r| r.trace_hash).collect();
            let hashes: Vec<u64> = records.iter().map(|r| r.trace_hash).collect();
            check_hashes(&mut o, "chaos_campaign", &ref_hashes, &hashes);
            o.count_runs(records.iter().map(|r| r.passed() && r.finished));
            digests.push(digest(&hashes));
            last = records;
        });
        let gen_us: Vec<f64> = all
            .durations_ms("campaign.generate")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        o.put("campaign.generate_us", median(&gen_us), "median per run");
        for (mode, p50, tail) in [
            (
                "machine",
                "campaign.run_ms.machine.p50",
                "campaign.run_ms.machine.tail",
            ),
            (
                "hive",
                "campaign.run_ms.hive.p50",
                "campaign.run_ms.hive.tail",
            ),
            ("kv", "campaign.run_ms.kv.p50", "campaign.run_ms.kv.tail"),
        ] {
            let ms: Vec<f64> = by_mode
                .iter()
                .filter(|(m, _)| *m == mode)
                .map(|&(_, v)| v)
                .collect();
            o.put(p50, median(&ms), &format!("n={}", ms.len()));
            let (t, note) = tail_or_max(&ms);
            o.put(tail, t, &note);
        }
        let restarts: u64 = last.iter().map(|r| u64::from(r.restarts)).sum();
        o.put(
            "campaign.restarts_per_run",
            restarts as f64 / last.len() as f64,
            "",
        );
        o.put("core.restarts", restarts as f64, "summed over runs");
        let violations: usize = last.iter().map(|r| r.violations.len()).sum();
        o.put("campaign.violations", violations as f64, "");
        o.put(
            "obs.trace_dropped",
            last.iter().map(|r| r.trace_dropped).sum::<u64>() as f64,
            "summed over runs",
        );
        if let Some((goodput, p99, n)) = kv_service(&last) {
            o.put("kv_goodput_rps", goodput, &format!("over {n} KV runs"));
            o.put(
                "kv_p99_ms",
                p99,
                "upper edge of the p99 power-of-two bucket",
            );
        }
        put_overhead(&mut o, &ref_walls, &walls);
        o.spans = Some(all);
    }
    o.show_digest(&digests);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::SimTime;

    fn phases(ends: [Option<u64>; 5]) -> PhaseTimes {
        let t = |i: usize| ends[i].map(SimTime::from_nanos);
        PhaseTimes {
            triggered_at: t(0),
            p1_done: t(1),
            p2_done: t(2),
            p3_done: t(3),
            p4_done: t(4),
        }
    }

    #[test]
    fn slice_host_time_splits_by_simulated_overlap() {
        let p = phases([Some(100), Some(150), Some(400), Some(500), Some(600)]);
        // [0, 200]: 100 ns detect, 50 ns P1, 50 ns P2.
        assert_eq!(
            bucket(0, 200, 2000.0, &p),
            [1000.0, 500.0, 500.0, 0.0, 0.0, 0.0]
        );
        // Entirely after P4: drain.
        assert_eq!(bucket(700, 900, 42.0, &p), [0.0, 0.0, 0.0, 0.0, 0.0, 42.0]);
        // Spanning every boundary, the buckets sum to the slice's host time.
        let b = bucket(50, 650, 600.0, &p);
        assert_eq!(b, [50.0, 50.0, 250.0, 100.0, 100.0, 50.0]);
    }

    #[test]
    fn unreached_phases_have_not_ended() {
        // Triggered, P1 still running: everything after the trigger is P1.
        let p = phases([Some(100), None, None, None, None]);
        assert_eq!(
            bucket(0, 300, 300.0, &p),
            [100.0, 200.0, 0.0, 0.0, 0.0, 0.0]
        );
        // No trigger yet: detection.
        let none = phases([None; 5]);
        assert_eq!(bucket(0, 300, 7.0, &none), [7.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_slice_goes_to_the_phase_it_sits_in() {
        let p = phases([Some(100), Some(150), Some(400), Some(500), Some(600)]);
        assert_eq!(bucket(420, 420, 9.0, &p), [0.0, 0.0, 0.0, 9.0, 0.0, 0.0]);
        assert_eq!(bucket(600, 600, 9.0, &p), [0.0, 0.0, 0.0, 0.0, 0.0, 9.0]);
    }

    #[test]
    fn phase_durations_are_differences_of_completion_times() {
        let p = phases([
            Some(1_000_000),
            Some(3_000_000),
            Some(7_000_000),
            Some(8_000_000),
            Some(10_000_000),
        ]);
        assert_eq!(phase_ms(&p), Some([2.0, 4.0, 1.0, 2.0]));
        assert_eq!(phase_ms(&phases([Some(1), None, None, None, None])), None);
    }
}
