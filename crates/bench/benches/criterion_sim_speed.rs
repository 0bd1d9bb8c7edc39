//! **Host-side simulator throughput.**
//!
//! Not a paper result: wall-clock benchmarks of the simulator itself, so
//! regressions in the reproduction's performance are visible. The suite
//! covers the three layers of the event hot path:
//!
//! * `queue_push_pop/*` — the [`flash_sim::EventQueue`] alone, under the
//!   near-horizon pattern typical of a running machine (small deltas, bursts
//!   of same-instant events) and under a far-horizon pattern (large deltas
//!   that exercise the overflow path);
//! * `fabric_hop/*` — a standalone [`flash_net::Fabric`] pushed through a
//!   sustained ping-of-packets workload, table-routed and source-routed;
//! * `normal_mode_*` / `full_fault_recovery_cycle/*` — the full machine in
//!   normal operation and across one complete fault-recovery cycle.
//!
//! Every case reports events/sec and ns/event derived from the best run.
//! The machine cases also print their overflow share: the fraction of
//! event pushes that missed the queue's near-horizon ring and went to its
//! overflow heap.
//!
//! Uses a self-contained min-of-N timing harness (the workspace carries no
//! external benchmarking dependency); `FLASH_RUNS` scales the sample count.
//!
//! Environment knobs:
//!
//! * `FLASH_RUNS=N` — samples per case (default 10; CI quick mode uses 3);
//! * `FLASH_BENCH_JSON=path` — additionally write the results as JSON;
//! * `FLASH_BENCH_CHECK=path` — compare the run against a committed
//!   `BENCH_sim_speed.json` baseline and exit non-zero if any shared case
//!   regressed by more than 20% in events/sec.

use flash_bench::runs_from_env;
use flash_core::{build_machine, ExperimentConfig, RecoveryConfig};
use flash_machine::{FaultSpec, MachineParams, RandomFill};
use flash_net::{DeliveryNote, Fabric, Lane, Mesh2D, NetEv, NetParams, NodeId, Packet, RouterId};
use flash_sim::{DetRng, Engine, RunOutcome, Scheduler, SimDuration, SimTime, World};
use std::time::Instant;

/// Events "processed" per queue-microbench op: one push plus one pop.
const QUEUE_OPS: u64 = 200_000;

/// Drives the event queue the way a running machine does: a fixed population
/// of pending events, each pop scheduling a successor a short delta ahead,
/// with periodic same-instant bursts. Returns the number of push+pop events.
fn queue_churn(max_delta: u64) -> u64 {
    let mut q = flash_sim::EventQueue::new();
    let mut rng = DetRng::new(0xBEEF);
    for i in 0..64u64 {
        q.push(SimTime::from_nanos(i), i);
    }
    let mut ops = 0u64;
    while ops < QUEUE_OPS {
        let (t, ev) = q.pop().expect("queue population never drains");
        ops += 2;
        let delta = 1 + rng.below(max_delta);
        q.push(t + SimDuration::from_nanos(delta), ev);
        if ev % 17 == 0 {
            // A burst of same-instant events, as a node fanning out
            // zero-delay follow-ups does.
            for k in 0..4 {
                q.push(t + SimDuration::from_nanos(delta), 1000 + k);
                ops += 1;
            }
            for _ in 0..4 {
                q.pop();
                ops += 1;
            }
        }
    }
    ops
}

/// A minimal world that owns a fabric and keeps `in_flight` packets moving
/// from node 0 to the far corner of a mesh, re-injecting on every delivery.
struct FabricWorld {
    fab: Fabric<u64>,
    source_hops: Option<Vec<RouterId>>,
    delivered: u64,
    target: u64,
    out: Vec<(SimDuration, NetEv)>,
    notes: Vec<DeliveryNote>,
    // The tracing-disabled path: the committed events/sec floors assume
    // observability costs nothing when off.
    obs: flash_obs::Recorder,
}

impl FabricWorld {
    fn make_packet(&self) -> Packet<u64> {
        let dst = NodeId(15);
        match &self.source_hops {
            None => Packet::table_routed(NodeId(0), dst, Lane::Request, 9, self.delivered),
            Some(hops) => Packet::source_routed(
                NodeId(0),
                dst,
                hops.clone(),
                Lane::Recovery0,
                9,
                self.delivered,
            ),
        }
    }

    /// Injects one packet from node 0, collecting kick-off events into `evs`.
    fn inject(&mut self, now: SimTime, evs: &mut Vec<(SimDuration, NetEv)>) {
        let pkt = self.make_packet();
        let _ = self.fab.try_send(NodeId(0), pkt, now, evs, &mut self.obs);
    }
}

impl World for FabricWorld {
    type Ev = NetEv;
    fn dispatch(&mut self, ev: NetEv, sched: &mut Scheduler<'_, NetEv>) {
        let mut out = std::mem::take(&mut self.out);
        let mut notes = std::mem::take(&mut self.notes);
        out.clear();
        notes.clear();
        self.fab
            .handle(ev, sched.now(), &mut out, &mut notes, &mut self.obs);
        for (d, e) in out.drain(..) {
            sched.after(d, e);
        }
        self.out = out;
        for note in notes.drain(..) {
            let _ = self.fab.pop_input(note.node, note.lane);
            self.delivered += 1;
            if self.delivered >= self.target {
                sched.request_stop();
            } else {
                let mut evs = std::mem::take(&mut self.out);
                self.inject(sched.now(), &mut evs);
                for (d, e) in evs.drain(..) {
                    sched.after(d, e);
                }
                self.out = evs;
            }
        }
        self.notes = notes;
    }
}

/// Runs `deliveries` packets across a 4x4 mesh; returns engine events.
fn fabric_events(source_routed: bool, deliveries: u64) -> u64 {
    let fab: Fabric<u64> = Fabric::new(&Mesh2D::new(4, 4), NetParams::default());
    // Node i attaches to router i; walk row 0 then column 3 to reach n15.
    let source_hops = source_routed.then(|| {
        [1u16, 2, 3, 7, 11, 15]
            .iter()
            .map(|&r| RouterId(r))
            .collect()
    });
    let mut world = FabricWorld {
        fab,
        source_hops,
        delivered: 0,
        target: deliveries,
        out: Vec::new(),
        notes: Vec::new(),
        obs: flash_obs::Recorder::disabled(),
    };
    let mut engine: Engine<NetEv> = Engine::new();
    let mut evs = Vec::new();
    for _ in 0..4 {
        world.inject(SimTime::ZERO, &mut evs);
    }
    for (d, e) in evs {
        engine.schedule_at(SimTime::ZERO + d, e);
    }
    let outcome = engine.run(&mut world, SimTime::MAX);
    assert!(
        outcome == RunOutcome::Stopped || outcome == RunOutcome::Drained,
        "fabric bench ended unexpectedly: {outcome:?}"
    );
    assert!(world.delivered >= deliveries);
    engine.events_processed()
}

/// Engine events processed and overflow-heap pushes of one machine case.
type MachineRun = (u64, u64);

fn normal_mode_events(firewall: bool) -> MachineRun {
    let mut params = MachineParams::table_5_1();
    params.magic.firewall_enabled = firewall;
    let layout = params.layout();
    let prot = params.protected_lines;
    let mut m = build_machine(
        params,
        RecoveryConfig::default(),
        move |_| Box::new(RandomFill::valid_system_range(2_000, 0.5, layout, prot)),
        5,
    );
    m.start();
    assert_eq!(m.run_until(SimTime::MAX), RunOutcome::Drained);
    (m.events_processed(), m.overflow_pushed())
}

/// One full fault-recovery cycle (the Section 5.2 methodology inlined so the
/// engine's event count is observable).
fn recovery_cycle_events() -> MachineRun {
    let cfg = {
        let mut c = ExperimentConfig::new(MachineParams::table_5_1(), 9);
        c.fill_ops = 500;
        c.total_ops = 1_500;
        c
    };
    let layout = cfg.params.layout();
    let protected = cfg.params.protected_lines;
    let (total_ops, write_fraction) = (cfg.total_ops, cfg.write_fraction);
    let mut m = build_machine(
        cfg.params,
        cfg.recovery,
        move |_| {
            Box::new(RandomFill::valid_system_range(
                total_ops,
                write_fraction,
                layout,
                protected,
            ))
        },
        cfg.seed,
    );
    m.set_event_budget(2_000_000_000);
    m.start();
    let slice = SimDuration::from_micros(20);
    loop {
        let outcome = m.run_for(slice);
        let filled = m
            .st()
            .nodes
            .iter()
            .all(|n| n.workload.progress() >= cfg.fill_ops);
        if filled || outcome == RunOutcome::Drained {
            break;
        }
    }
    let inject_at = m.now() + SimDuration::from_nanos(1);
    m.schedule_fault(inject_at, FaultSpec::Node(NodeId(3)));
    let outcome = m.run_until(m.now() + SimDuration::from_secs(20));
    assert_eq!(outcome, RunOutcome::Drained, "recovery cycle did not drain");
    assert!(m.st().validate().passed(), "oracle validation failed");
    (m.events_processed(), m.overflow_pushed())
}

/// One measured benchmark case.
struct Case {
    name: String,
    events: u64,
    best: f64,
    median: f64,
    worst: f64,
}

impl Case {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.best.max(1e-9)
    }
    fn ns_per_event(&self) -> f64 {
        self.best.max(1e-9) * 1e9 / self.events.max(1) as f64
    }
}

/// Times `f` over `samples` runs; reports best / median / worst host time
/// plus events/sec and ns/event derived from the best run.
fn bench<F: FnMut() -> u64>(name: &str, samples: u64, mut f: F) -> Case {
    let mut times: Vec<(f64, u64)> = Vec::new();
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let events = f();
        times.push((t.elapsed().as_secs_f64(), events));
    }
    times.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (best, events) = times[0];
    let case = Case {
        name: name.to_string(),
        events,
        best,
        median: times[times.len() / 2].0,
        worst: times[times.len() - 1].0,
    };
    println!(
        "{name:<44} best {best:>9.4}s  median {median:>9.4}s  worst {worst:>9.4}s  \
         ({eps:.0} events/s, {nspe:.1} ns/event)",
        best = case.best,
        median = case.median,
        worst = case.worst,
        eps = case.events_per_sec(),
        nspe = case.ns_per_event(),
    );
    case
}

/// Benches a machine case, then prints its overflow share. The run drains
/// its queue, so every pushed event was processed and the events processed
/// count the pushes.
fn bench_machine(name: &str, samples: u64, mut f: impl FnMut() -> MachineRun) -> Case {
    let mut overflow = 0;
    let case = bench(name, samples, || {
        let (events, pushed) = f();
        overflow = pushed;
        events
    });
    println!(
        "  overflow share {:.4} ({overflow} of {} pushes)",
        overflow as f64 / case.events.max(1) as f64,
        case.events,
    );
    case
}

/// Writes the results as JSON (no external deps; one case object per line so
/// the regression checker can parse the file line-wise).
fn emit_json(path: &str, samples: u64, cases: &[Case]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"flash-bench/sim-speed/v1\",\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"best_s\": {:.6}, \
             \"median_s\": {:.6}, \"worst_s\": {:.6}, \"events_per_sec\": {:.0}, \
             \"ns_per_event\": {:.2}}}{}\n",
            c.name,
            c.events,
            c.best,
            c.median,
            c.worst,
            c.events_per_sec(),
            c.ns_per_event(),
            sep,
        ));
    }
    s.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("results written to {path}");
    }
}

/// Parses `"name": "x"` / `"events_per_sec": N` pairs from a baseline file.
/// The last occurrence of each name wins, so a file with both `before` and
/// `after` sections checks against the `after` (current) numbers.
///
/// A case line may carry an explicit `"floor_events_per_sec"` which takes
/// precedence as the reference: committed measurements are quiet-host bests,
/// while CI runners vary widely in absolute speed, so the committed floor is
/// derated to what any healthy run should clear.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for line in text.lines() {
        let Some(name) = extract_str(line, "\"name\":") else {
            continue;
        };
        let Some(eps) = extract_num(line, "\"floor_events_per_sec\":")
            .or_else(|| extract_num(line, "\"events_per_sec\":"))
        else {
            continue;
        };
        if let Some(slot) = out.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = eps;
        } else {
            out.push((name, eps));
        }
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(rest[start..end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let rest = line[line.find(key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares the run against a committed baseline; returns the number of
/// cases that regressed more than 20% in events/sec.
fn check_against_baseline(path: &str, cases: &[Case]) -> usize {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            return 1;
        }
    };
    let baseline = parse_baseline(&text);
    let mut regressions = 0;
    for c in cases {
        let Some((_, base_eps)) = baseline.iter().find(|(n, _)| *n == c.name) else {
            println!("check {:<41} no baseline entry, skipped", c.name);
            continue;
        };
        let eps = c.events_per_sec();
        let ratio = eps / base_eps.max(1e-9);
        let verdict = if ratio < 0.8 {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check {name:<41} {eps:.0} vs baseline {base_eps:.0} events/s ({ratio:.2}x) {verdict}",
            name = c.name,
        );
    }
    regressions
}

fn main() {
    let samples = runs_from_env(10);
    println!("simulator host-side throughput ({samples} samples per case)");
    let mut cases = Vec::new();
    cases.push(bench("queue_push_pop/near_horizon_200k", samples, || {
        queue_churn(64)
    }));
    cases.push(bench("queue_push_pop/far_horizon_200k", samples, || {
        queue_churn(1_000_000)
    }));
    cases.push(bench("fabric_hop/mesh4x4_table", samples, || {
        fabric_events(false, 20_000)
    }));
    cases.push(bench("fabric_hop/mesh4x4_source", samples, || {
        fabric_events(true, 20_000)
    }));
    for firewall in [false, true] {
        cases.push(bench_machine(
            &format!("normal_mode_16k_ops/firewall={firewall}"),
            samples,
            || normal_mode_events(firewall),
        ));
    }
    cases.push(bench_machine(
        "full_fault_recovery_cycle/node_failure_8",
        samples,
        recovery_cycle_events,
    ));

    if let Ok(path) = std::env::var("FLASH_BENCH_JSON") {
        emit_json(&path, samples, &cases);
    }
    if let Ok(path) = std::env::var("FLASH_BENCH_CHECK") {
        let regressions = check_against_baseline(&path, &cases);
        if regressions > 0 {
            eprintln!("{regressions} case(s) regressed >20% vs {path}");
            std::process::exit(1);
        }
        println!("regression check passed (>20% tolerance) vs {path}");
    }
}
