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
//! * `directory_handle/*` — one home's [`flash_coherence::Directory`]
//!   alone on a 128-node machine, fed the messages of three protocol paths
//!   (an event there is one handled message);
//! * `normal_mode_*` / `full_fault_recovery_cycle/*` — the full machine in
//!   normal operation and across one complete fault-recovery cycle.
//!
//! Every case reports events/sec and ns/event derived from the best run.
//! The machine cases also print their overflow share: the fraction of
//! event pushes that missed the queue's near-horizon ring and went to its
//! overflow heap.
//!
//! Uses a self-contained min-of-N timing harness (the workspace carries no
//! external benchmarking dependency). The rows land in
//! `target/bench-results/sim_speed.json` like every other target's.
//!
//! Environment knobs:
//!
//! * `FLASH_RUNS=N` — samples per case (default 10; CI uses 7);
//! * `FLASH_BENCH_CHECK=path` — exit 1 unless every case's events/sec
//!   reaches its `floor` in a committed sheet such as
//!   `BENCH_sim_speed.json` ([`flash_bench::ResultSheet::check_floors`]).

use flash_bench::{runs_from_env, ResultSheet};
use flash_coherence::{CohMsg, Directory, LineAddr, MemLayout};
use flash_core::{build_machine, prepare_fault_experiment, ExperimentConfig, RecoveryConfig};
use flash_machine::{FaultSpec, MachineParams, RandomFill};
use flash_net::{DeliveryNote, Fabric, Lane, Mesh2D, NetEv, NetParams, NodeId, Packet, RouterId};
use flash_sim::{DetRng, Engine, RunOutcome, Scheduler, SimDuration, SimTime, World};
use std::hint::black_box;
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

/// Lines homed on the directory the `directory_handle/*` cases drive.
const DIR_LINES: u64 = 1024;

/// Messages each `directory_handle/*` case hands its directory.
const DIR_MSGS: u64 = 200_000;

/// Node 0's directory on a 128-node machine.
fn directory_128() -> Directory {
    Directory::new(NodeId(0), MemLayout::new(128, DIR_LINES))
}

/// Read misses that join shared lines: each pass over the lines adds one
/// more reader to every line, so after the first pass every Get joins a
/// shared line and its sharer set grows across the node ids. Returns the
/// messages handled.
fn dir_get_joins_shared() -> u64 {
    let mut d = directory_128();
    for k in 0..DIR_MSGS {
        let line = LineAddr(k % DIR_LINES);
        let from = NodeId((k / DIR_LINES % 128) as u16);
        let out = d.handle(from, CohMsg::Get { line });
        debug_assert!(matches!(out[..], [(to, CohMsg::Data { .. })] if to == from));
        black_box(out);
    }
    DIR_MSGS
}

/// Write misses that invalidate `n` sharers, each timed with the round it
/// starts: `n` Gets share the line, the GetX sends `n` invalidations, `n`
/// InvalAcks grant it, and the owner's writeback returns it to uncached.
/// With five sharers the fourth Get spills the set, the GetX keeps it
/// spilled and the third InvalAck moves it back inline. Returns the
/// messages handled.
fn dir_getx_invalidates(n: u16) -> u64 {
    let mut d = directory_128();
    let per_round = 2 * u64::from(n) + 2;
    let rounds = DIR_MSGS / per_round;
    for k in 0..rounds {
        let line = LineAddr(k % DIR_LINES);
        let first = (k % u64::from(128 - n)) as u16;
        let sharers = (first..first + n).map(NodeId);
        let writer = NodeId(first + n);
        for s in sharers.clone() {
            black_box(d.handle(s, CohMsg::Get { line }));
        }
        let invals = d.handle(writer, CohMsg::GetX { line });
        assert_eq!(invals.len(), usize::from(n), "every sharer invalidated");
        black_box(invals);
        for s in sharers {
            black_box(d.handle(s, CohMsg::InvalAck { line }));
        }
        let version = d.mem_version(line).next();
        let put = CohMsg::Put {
            line,
            version,
            keep_shared: false,
        };
        black_box(d.handle(writer, put));
    }
    rounds * per_round
}

/// Engine events processed and overflow-heap pushes of one machine case.
type MachineRun = (u64, u64);

/// A named case and the run it times.
type Case<T> = (&'static str, fn() -> T);

fn normal_mode_events(firewall: bool) -> MachineRun {
    let mut params = MachineParams::table_5_1();
    params.magic.firewall_enabled = firewall;
    let layout = params.layout();
    let mut m = build_machine(
        params,
        RecoveryConfig::default(),
        move |_| Box::new(RandomFill::valid_system_range(2_000, 0.5, layout)),
        5,
    );
    m.start();
    assert_eq!(m.run_until(SimTime::MAX), RunOutcome::Drained);
    (m.events_processed(), m.overflow_pushed())
}

/// One full fault-recovery cycle: the Section 5.2 fill, then the fault and
/// the drain run here so the engine's event count is observable.
fn recovery_cycle_events() -> MachineRun {
    let mut cfg = ExperimentConfig::new(MachineParams::table_5_1(), 9);
    cfg.fill_ops = 500;
    cfg.total_ops = 1_500;
    let mut m = prepare_fault_experiment(&cfg);
    let inject_at = m.now() + SimDuration::from_nanos(1);
    m.schedule_fault(inject_at, FaultSpec::Node(NodeId(3)));
    let outcome = m.run_until(m.now() + SimDuration::from_secs(20));
    assert_eq!(outcome, RunOutcome::Drained, "recovery cycle did not drain");
    assert!(m.st().validate().passed(), "oracle validation failed");
    (m.events_processed(), m.overflow_pushed())
}

/// Times `f` over `samples` runs, prints the case and appends it to
/// `sheet`: host times of the best, median and worst sample, and
/// events/sec and ns/event derived from the best. Returns the best run's
/// event count.
fn bench<F: FnMut() -> u64>(sheet: &mut ResultSheet, name: &str, samples: u64, mut f: F) -> u64 {
    let mut times: Vec<(f64, u64)> = Vec::new();
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let events = f();
        times.push((t.elapsed().as_secs_f64(), events));
    }
    times.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (best, events) = times[0];
    let median = times[times.len() / 2].0;
    let worst = times[times.len() - 1].0;
    let eps = events as f64 / best.max(1e-9);
    let nspe = best.max(1e-9) * 1e9 / events.max(1) as f64;
    println!(
        "{name:<44} best {best:>9.4}s  median {median:>9.4}s  worst {worst:>9.4}s  \
         ({eps:.0} events/s, {nspe:.1} ns/event)"
    );
    sheet.push(name, &[events as f64, best, median, worst, eps, nspe]);
    events
}

/// Benches a machine case, then prints its overflow share. The run drains
/// its queue, so every pushed event was processed and the events processed
/// count the pushes.
fn bench_machine(sheet: &mut ResultSheet, name: &str, samples: u64, f: fn() -> MachineRun) {
    let mut overflow = 0;
    let events = bench(sheet, name, samples, || {
        let (events, pushed) = f();
        overflow = pushed;
        events
    });
    println!(
        "  overflow share {:.4} ({overflow} of {events} pushes)",
        overflow as f64 / events.max(1) as f64,
    );
}

fn main() {
    let samples = runs_from_env(10);
    println!("simulator host-side throughput ({samples} samples per case)");
    let columns = [
        "events",
        "best_s",
        "median_s",
        "worst_s",
        "events_per_sec",
        "ns_per_event",
    ];
    let reproduces = "host-side simulator throughput (not a paper result)";
    let mut sheet = ResultSheet::new("sim_speed", reproduces, &columns);
    let cases: [Case<u64>; 7] = [
        ("queue_push_pop/near_horizon_200k", || queue_churn(64)),
        ("queue_push_pop/far_horizon_200k", || queue_churn(1_000_000)),
        ("fabric_hop/mesh4x4_table", || fabric_events(false, 20_000)),
        ("fabric_hop/mesh4x4_source", || fabric_events(true, 20_000)),
        (
            "directory_handle/get_joins_shared_128",
            dir_get_joins_shared,
        ),
        ("directory_handle/getx_invalidates_two_128", || {
            dir_getx_invalidates(2)
        }),
        ("directory_handle/getx_invalidates_five_128", || {
            dir_getx_invalidates(5)
        }),
    ];
    for (name, f) in cases {
        bench(&mut sheet, name, samples, f);
    }
    let machine_cases: [Case<MachineRun>; 3] = [
        ("normal_mode_16k_ops/firewall=false", || {
            normal_mode_events(false)
        }),
        ("normal_mode_16k_ops/firewall=true", || {
            normal_mode_events(true)
        }),
        (
            "full_fault_recovery_cycle/node_failure_8",
            recovery_cycle_events,
        ),
    ];
    for (name, f) in machine_cases {
        bench_machine(&mut sheet, name, samples, f);
    }
    sheet.write();
    sheet.check_floors("events_per_sec");
}
