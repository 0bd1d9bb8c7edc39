//! Layer microprobes: the event queue's push/pop at a near and a far
//! horizon, and one fabric hop on a table-routed 4x4 mesh, each through the
//! layer's public API and reported as the median of several samples.

use crate::stats::median;
use flash_net::{DeliveryNote, Fabric, Lane, Mesh2D, NetEv, NetParams, NodeId, Packet};
use flash_sim::{DetRng, Engine, EventQueue, RunOutcome, Scheduler, SimDuration, SimTime, World};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 7;

/// Queue operations (pushes plus pops) per queue sample.
const QUEUE_OPS: u64 = 400_000;

/// Packets delivered per fabric sample.
const DELIVERIES: u64 = 20_000;

/// Host ns per queue operation with successors scheduled up to
/// `max_delta` ns ahead: 64 ns stays inside the near-horizon structure,
/// 1 ms lands in the far-horizon overflow.
pub fn queue_ns(max_delta: u64) -> f64 {
    sample(|| queue_churn(max_delta))
}

/// Host ns per engine event of a fabric moving packets corner to corner.
pub fn hop_ns() -> f64 {
    sample(|| fabric_events(DELIVERIES))
}

fn sample(mut f: impl FnMut() -> u64) -> f64 {
    let per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let ops = black_box(f());
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&per_op)
}

/// A fixed population of 64 pending events; each pop schedules its
/// successor up to `max_delta` ahead, with a burst of four same-instant
/// events every 17th event, as a node fanning out follow-ups does.
fn queue_churn(max_delta: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = DetRng::new(0xBEEF);
    for i in 0..64u64 {
        q.push(SimTime::from_nanos(i), i);
    }
    let mut ops = 0;
    while ops < QUEUE_OPS {
        let (t, ev) = q.pop().expect("the population never drains");
        let next = t + SimDuration::from_nanos(1 + rng.below(max_delta));
        q.push(next, black_box(ev));
        ops += 2;
        if ev % 17 == 0 {
            for k in 0..4 {
                q.push(next, 1_000 + k);
            }
            for _ in 0..4 {
                black_box(q.pop());
            }
            ops += 8;
        }
    }
    ops
}

/// Keeps four packets in flight from node 0 to node 15, injecting a new
/// one on every delivery.
struct HopWorld {
    fab: Fabric<u64>,
    delivered: u64,
    target: u64,
    out: Vec<(SimDuration, NetEv)>,
    notes: Vec<DeliveryNote>,
    obs: flash_obs::Recorder,
}

impl HopWorld {
    fn inject(&mut self, now: SimTime) {
        let pkt = Packet::table_routed(NodeId(0), NodeId(15), Lane::Request, 9, self.delivered);
        self.fab
            .try_send(NodeId(0), pkt, now, &mut self.out, &mut self.obs)
            .expect("the injection queue has room for four packets");
    }
}

impl World for HopWorld {
    type Ev = NetEv;

    fn dispatch(&mut self, ev: NetEv, sched: &mut Scheduler<'_, NetEv>) {
        self.fab.handle(
            ev,
            sched.now(),
            &mut self.out,
            &mut self.notes,
            &mut self.obs,
        );
        let notes = std::mem::take(&mut self.notes);
        for note in &notes {
            self.fab.pop_input(note.node, note.lane);
            self.delivered += 1;
            if self.delivered >= self.target {
                sched.request_stop();
            } else {
                self.inject(sched.now());
            }
        }
        self.notes = notes;
        self.notes.clear();
        for (d, e) in self.out.drain(..) {
            sched.after(d, e);
        }
    }
}

fn fabric_events(deliveries: u64) -> u64 {
    let mut world = HopWorld {
        fab: Fabric::new(&Mesh2D::new(4, 4), NetParams::default()),
        delivered: 0,
        target: deliveries,
        out: Vec::new(),
        notes: Vec::new(),
        obs: flash_obs::Recorder::disabled(),
    };
    let mut engine: Engine<NetEv> = Engine::new();
    for _ in 0..4 {
        world.inject(SimTime::ZERO);
    }
    for (d, e) in world.out.drain(..) {
        engine.schedule_at(SimTime::ZERO + d, e);
    }
    let outcome = engine.run(&mut world, SimTime::MAX);
    assert_eq!(
        outcome,
        RunOutcome::Stopped,
        "the hop probe must stop itself"
    );
    engine.events_processed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_do_the_work_they_count() {
        assert!(queue_churn(64) >= QUEUE_OPS);
        assert!(fabric_events(100) > 100, "each delivery takes several hops");
        assert!(queue_ns(64) > 0.0 && hop_ns() > 0.0);
    }
}
