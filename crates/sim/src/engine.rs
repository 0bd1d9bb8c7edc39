//! The simulation engine: an event loop over an [`EventQueue`].
//!
//! The engine is generic over the event type `E` and a *world* — the mutable
//! simulation state that knows how to dispatch each event. Subsystems
//! (interconnect, node controllers, recovery controllers) hand new events to
//! the [`Scheduler`] passed into [`World::dispatch`].

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Simulation state that can dispatch events of type `Ev`.
///
/// Implementors are the top-level machine models; each event delivered by the
/// engine is handed to [`World::dispatch`] together with a [`Scheduler`] used
/// to schedule follow-up events.
pub trait World {
    /// The event type driving this world.
    type Ev;

    /// Handles one event occurring at time `sched.now()`.
    fn dispatch(&mut self, ev: Self::Ev, sched: &mut Scheduler<'_, Self::Ev>);
}

/// Interface handed to [`World::dispatch`] for scheduling follow-up events.
#[allow(missing_debug_implementations)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
    clamped: &'a mut u64,
}

impl<E> Scheduler<'_, E> {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// A time preceding the current instant is clamped to `now` (the event
    /// still runs, after everything already queued for this instant) and
    /// counted in [`Engine::clamped_schedules`]; behaviour is identical in
    /// debug and release builds.
    pub fn at(&mut self, at: SimTime, ev: E) {
        if at < self.now {
            *self.clamped += 1;
        }
        self.queue.push(at.max(self.now), ev);
    }

    /// Schedules `ev` to occur `delay` after the current time.
    pub fn after(&mut self, delay: SimDuration, ev: E) {
        self.queue.push(self.now + delay, ev);
    }

    /// Schedules `ev` at the current time (processed after all events already
    /// queued for this instant, preserving FIFO order).
    pub fn immediately(&mut self, ev: E) {
        self.queue.push(self.now, ev);
    }

    /// Asks the engine to stop after the current event completes.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// Why a call to [`Engine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time horizon passed; undelivered future events remain queued.
    HorizonReached,
    /// The event budget was exhausted (likely livelock); events remain queued.
    BudgetExhausted,
    /// The world requested a stop via [`Scheduler::request_stop`].
    Stopped,
}

/// A discrete-event simulation engine.
///
/// # Examples
///
/// ```
/// use flash_sim::{Engine, World, Scheduler, SimTime, SimDuration, RunOutcome};
///
/// struct Counter(u32);
/// impl World for Counter {
///     type Ev = ();
///     fn dispatch(&mut self, _ev: (), sched: &mut Scheduler<'_, ()>) {
///         self.0 += 1;
///         if self.0 < 5 {
///             sched.after(SimDuration::from_nanos(10), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::ZERO, ());
/// let mut world = Counter(0);
/// let outcome = engine.run(&mut world, SimTime::MAX);
/// assert_eq!(outcome, RunOutcome::Drained);
/// assert_eq!(world.0, 5);
/// assert_eq!(engine.now(), SimTime::from_nanos(40));
/// ```
///
/// Cloning an `Engine` (for checkpoint/fork) snapshots the event queue,
/// the clock and every counter; running a clone against a cloned world is
/// bit-identical to running the original.
#[derive(Clone)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    budget: u64,
    clamped: u64,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an effectively unlimited event
    /// budget.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            budget: u64::MAX,
            clamped: 0,
        }
    }

    /// Sets the maximum number of events to process across all `run` calls;
    /// exceeding it makes `run` return [`RunOutcome::BudgetExhausted`]. Acts
    /// as a livelock guard for fault experiments.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// The current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of [`Scheduler::at`] calls whose timestamp preceded the
    /// current instant and was clamped to it.
    pub fn clamped_schedules(&self) -> u64 {
        self.clamped
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event at an absolute time (which may be in the past only
    /// before the first `run` call).
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        self.queue.push(at, ev);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, ev: E) {
        self.queue.push(self.now + delay, ev);
    }

    /// Runs until the queue drains, `horizon` is passed, the event budget is
    /// exhausted, or the world requests a stop.
    ///
    /// Events with timestamps `<= horizon` are delivered; the first event
    /// beyond the horizon stays queued and the engine's clock advances to
    /// `horizon`.
    pub fn run<W: World<Ev = E>>(&mut self, world: &mut W, horizon: SimTime) -> RunOutcome {
        let mut stop = false;
        loop {
            let Some(next) = self.queue.peek_time() else {
                return RunOutcome::Drained;
            };
            if next > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            if self.processed >= self.budget {
                return RunOutcome::BudgetExhausted;
            }
            let (t, ev) = self.queue.pop().expect("peeked entry vanished");
            debug_assert!(t >= self.now, "event queue went backwards");
            self.now = t;
            self.processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                stop_requested: &mut stop,
                clamped: &mut self.clamped,
            };
            world.dispatch(ev, &mut sched);
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }

    /// Like [`Engine::run`], but after delivering an event at time `t` it
    /// drains every other event scheduled for exactly `t` — including
    /// zero-delay follow-ups queued during the batch — without re-entering
    /// the peek/compare scheduling loop per event.
    ///
    /// Delivery order, budget, horizon, and stop semantics are identical to
    /// [`Engine::run`]; only the per-event queue overhead differs.
    pub fn run_batched<W: World<Ev = E>>(&mut self, world: &mut W, horizon: SimTime) -> RunOutcome {
        let mut stop = false;
        loop {
            let Some(next) = self.queue.peek_time() else {
                return RunOutcome::Drained;
            };
            if next > horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            if self.processed >= self.budget {
                return RunOutcome::BudgetExhausted;
            }
            let (t, ev) = self.queue.pop().expect("peeked entry vanished");
            debug_assert!(t >= self.now, "event queue went backwards");
            self.now = t;
            self.processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                stop_requested: &mut stop,
                clamped: &mut self.clamped,
            };
            world.dispatch(ev, &mut sched);
            if stop {
                return RunOutcome::Stopped;
            }
            // Same-instant drain: O(1) bucket pops instead of full re-peeks.
            while self.processed < self.budget {
                let Some(ev) = self.queue.pop_if_at(t) else {
                    break;
                };
                self.processed += 1;
                let mut sched = Scheduler {
                    now: self.now,
                    queue: &mut self.queue,
                    stop_requested: &mut stop,
                    clamped: &mut self.clamped,
                };
                world.dispatch(ev, &mut sched);
                if stop {
                    return RunOutcome::Stopped;
                }
            }
        }
    }

    /// Processes exactly one event if one is pending; returns whether an
    /// event was processed.
    pub fn step<W: World<Ev = E>>(&mut self, world: &mut W) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = t;
        self.processed += 1;
        let mut stop = false;
        let mut sched = Scheduler {
            now: self.now,
            queue: &mut self.queue,
            stop_requested: &mut stop,
            clamped: &mut self.clamped,
        };
        world.dispatch(ev, &mut sched);
        true
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .field("clamped_schedules", &self.clamped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(u64, u32)>,
        stop_at: Option<u32>,
    }

    impl World for Recorder {
        type Ev = u32;
        fn dispatch(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((sched.now().as_nanos(), ev));
            if Some(ev) == self.stop_at {
                sched.request_stop();
            }
        }
    }

    #[test]
    fn runs_to_drain_in_order() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_nanos(30), 3);
        engine.schedule_at(SimTime::from_nanos(10), 1);
        engine.schedule_at(SimTime::from_nanos(20), 2);
        let mut w = Recorder {
            seen: vec![],
            stop_at: None,
        };
        assert_eq!(engine.run(&mut w, SimTime::MAX), RunOutcome::Drained);
        assert_eq!(w.seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_nanos(10), 1);
        engine.schedule_at(SimTime::from_nanos(100), 2);
        let mut w = Recorder {
            seen: vec![],
            stop_at: None,
        };
        let outcome = engine.run(&mut w, SimTime::from_nanos(50));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(w.seen, vec![(10, 1)]);
        assert_eq!(engine.now(), SimTime::from_nanos(50));
        assert_eq!(engine.pending(), 1);
        // Resuming past the horizon delivers the rest.
        assert_eq!(engine.run(&mut w, SimTime::MAX), RunOutcome::Drained);
        assert_eq!(w.seen.len(), 2);
    }

    #[test]
    fn budget_guards_livelock() {
        struct Loopy;
        impl World for Loopy {
            type Ev = ();
            fn dispatch(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
                sched.after(SimDuration::from_nanos(1), ());
            }
        }
        let mut engine = Engine::new();
        engine.set_event_budget(1000);
        engine.schedule_at(SimTime::ZERO, ());
        let outcome = engine.run(&mut Loopy, SimTime::MAX);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(engine.events_processed(), 1000);
    }

    #[test]
    fn stop_request_halts_immediately() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let mut w = Recorder {
            seen: vec![],
            stop_at: Some(4),
        };
        assert_eq!(engine.run(&mut w, SimTime::MAX), RunOutcome::Stopped);
        assert_eq!(w.seen.len(), 5);
        assert_eq!(engine.pending(), 5);
    }

    #[test]
    fn step_processes_single_event() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_nanos(5), 7);
        let mut w = Recorder {
            seen: vec![],
            stop_at: None,
        };
        assert!(engine.step(&mut w));
        assert!(!engine.step(&mut w));
        assert_eq!(w.seen, vec![(5, 7)]);
    }

    #[test]
    fn past_schedules_clamp_and_count_in_all_profiles() {
        struct PastScheduler {
            fired: u32,
        }
        impl World for PastScheduler {
            type Ev = u32;
            fn dispatch(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.fired += 1;
                if ev == 0 {
                    // Asks for the past; must run at `now`, not panic.
                    sched.at(SimTime::ZERO, 1);
                    sched.at(sched.now(), 2); // not in the past: no clamp
                }
            }
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_nanos(100), 0);
        let mut w = PastScheduler { fired: 0 };
        assert_eq!(engine.run(&mut w, SimTime::MAX), RunOutcome::Drained);
        assert_eq!(w.fired, 3);
        assert_eq!(engine.now(), SimTime::from_nanos(100));
        assert_eq!(engine.clamped_schedules(), 1);
    }

    #[test]
    fn run_batched_matches_run() {
        struct Fanout {
            seen: Vec<(u64, u32)>,
        }
        impl World for Fanout {
            type Ev = u32;
            fn dispatch(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.seen.push((sched.now().as_nanos(), ev));
                if ev < 8 {
                    sched.immediately(ev + 100);
                    sched.after(SimDuration::from_nanos(u64::from(ev % 3)), ev + 200);
                }
            }
        }
        let seed = |engine: &mut Engine<u32>| {
            for i in 0..8 {
                engine.schedule_at(SimTime::from_nanos(10 * (i % 4)), i as u32);
            }
        };
        let mut plain = Engine::new();
        seed(&mut plain);
        let mut w_plain = Fanout { seen: vec![] };
        assert_eq!(plain.run(&mut w_plain, SimTime::MAX), RunOutcome::Drained);

        let mut batched = Engine::new();
        seed(&mut batched);
        let mut w_batched = Fanout { seen: vec![] };
        assert_eq!(
            batched.run_batched(&mut w_batched, SimTime::MAX),
            RunOutcome::Drained
        );
        assert_eq!(w_plain.seen, w_batched.seen);
        assert_eq!(plain.events_processed(), batched.events_processed());
        assert_eq!(plain.now(), batched.now());
    }

    #[test]
    fn run_batched_respects_budget_and_horizon() {
        struct Loopy;
        impl World for Loopy {
            type Ev = ();
            fn dispatch(&mut self, _: (), sched: &mut Scheduler<'_, ()>) {
                sched.immediately(());
            }
        }
        let mut engine = Engine::new();
        engine.set_event_budget(500);
        engine.schedule_at(SimTime::ZERO, ());
        assert_eq!(
            engine.run_batched(&mut Loopy, SimTime::MAX),
            RunOutcome::BudgetExhausted
        );
        assert_eq!(engine.events_processed(), 500);

        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_nanos(10), 1u32);
        engine.schedule_at(SimTime::from_nanos(100), 2);
        let mut w = Recorder {
            seen: vec![],
            stop_at: None,
        };
        assert_eq!(
            engine.run_batched(&mut w, SimTime::from_nanos(50)),
            RunOutcome::HorizonReached
        );
        assert_eq!(w.seen, vec![(10, 1)]);
        assert_eq!(engine.now(), SimTime::from_nanos(50));

        let mut engine = Engine::new();
        for i in 0..6 {
            engine.schedule_at(SimTime::from_nanos(7), i as u32);
        }
        let mut w = Recorder {
            seen: vec![],
            stop_at: Some(3),
        };
        assert_eq!(
            engine.run_batched(&mut w, SimTime::MAX),
            RunOutcome::Stopped
        );
        assert_eq!(w.seen.len(), 4);
        assert_eq!(engine.pending(), 2);
    }

    #[test]
    fn scheduler_immediately_preserves_fifo() {
        struct Chain(Vec<u32>);
        impl World for Chain {
            type Ev = u32;
            fn dispatch(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
                self.0.push(ev);
                if ev == 0 {
                    sched.immediately(1);
                    sched.immediately(2);
                }
            }
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, 0);
        let mut w = Chain(vec![]);
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(w.0, vec![0, 1, 2]);
    }
}
