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

    /// Number of pushes that missed the event queue's near-horizon ring and
    /// went to its overflow heap (see [`EventQueue::overflow_pushed`]).
    pub fn overflow_pushed(&self) -> u64 {
        self.queue.overflow_pushed()
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
    /// `horizon`. Each delivered event costs one queue lookup
    /// ([`EventQueue::pop_due`]).
    pub fn run<W: World<Ev = E>>(&mut self, world: &mut W, horizon: SimTime) -> RunOutcome {
        let mut stop = false;
        loop {
            if self.processed >= self.budget {
                return self.halt(horizon);
            }
            let Some((t, ev)) = self.queue.pop_due(horizon) else {
                return self.halt(horizon);
            };
            debug_assert!(t >= self.now, "event queue went backwards");
            self.now = t;
            self.processed += 1;
            let mut sched = Scheduler {
                now: t,
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

    /// Why `run` stops without delivering another event, checked in order:
    /// the queue drained, the next event lies beyond `horizon` (the clock
    /// moves to `horizon`), or the event budget ran out.
    fn halt(&mut self, horizon: SimTime) -> RunOutcome {
        match self.queue.peek_time() {
            None => RunOutcome::Drained,
            Some(next) if next > horizon => {
                self.now = horizon;
                RunOutcome::HorizonReached
            }
            Some(_) => RunOutcome::BudgetExhausted,
        }
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

    /// Follow-ups of event `ev` delivered at `now`, derived from `ev` alone
    /// so the engine world and the reference loop schedule identically:
    /// same-instant, near, window-edge, far (overflow) and past (clamped)
    /// times, up to three children per event.
    fn follow_ups(now: u64, ev: u32) -> Vec<(u64, u32)> {
        if ev >= 3_000 {
            return Vec::new();
        }
        let mut rng = crate::rng::DetRng::new(u64::from(ev) ^ 0x5EED);
        (0..rng.below(4))
            .map(|k| {
                let at = match rng.below(6) {
                    0 => now,
                    1 | 2 => now + rng.below(40),
                    3 => now + 8_000 + rng.below(400),
                    4 => now + 100_000 + rng.below(50),
                    _ => now.saturating_sub(1 + rng.below(20)),
                };
                (at, ev * 3 + 1 + k as u32)
            })
            .collect()
    }

    struct Scripted {
        seen: Vec<(u64, u32)>,
        stop_at: Option<u32>,
    }

    impl World for Scripted {
        type Ev = u32;
        fn dispatch(&mut self, ev: u32, sched: &mut Scheduler<'_, u32>) {
            let now = sched.now().as_nanos();
            self.seen.push((now, ev));
            for (at, child) in follow_ups(now, ev) {
                sched.at(SimTime::from_nanos(at), child);
            }
            if Some(ev) == self.stop_at {
                sched.request_stop();
            }
        }
    }

    /// What a run produced: delivered events, outcome, clock, events
    /// processed, pending events and clamped schedules.
    type Observed = (Vec<(u64, u32)>, RunOutcome, u64, u64, usize, u64);

    /// The naive event loop over the single-heap oracle queue that
    /// `Engine::run` must reproduce exactly.
    fn reference(
        seeds: &[(u64, u32)],
        horizon: u64,
        budget: u64,
        stop_at: Option<u32>,
    ) -> Observed {
        let mut q = crate::queue::oracle::HeapQueue::new();
        for &(t, ev) in seeds {
            q.push(SimTime::from_nanos(t), ev);
        }
        let (mut seen, mut now, mut processed, mut clamped) = (Vec::new(), 0, 0, 0);
        let outcome = loop {
            let Some(next) = q.peek_time() else {
                break RunOutcome::Drained;
            };
            if next.as_nanos() > horizon {
                now = horizon;
                break RunOutcome::HorizonReached;
            }
            if processed >= budget {
                break RunOutcome::BudgetExhausted;
            }
            let (t, ev) = q.pop().expect("peeked");
            now = t.as_nanos();
            processed += 1;
            seen.push((now, ev));
            for (at, child) in follow_ups(now, ev) {
                clamped += u64::from(at < now);
                q.push(SimTime::from_nanos(at.max(now)), child);
            }
            if Some(ev) == stop_at {
                break RunOutcome::Stopped;
            }
        };
        (seen, outcome, now, processed, q.len(), clamped)
    }

    fn engine_run(
        seeds: &[(u64, u32)],
        horizon: u64,
        budget: u64,
        stop_at: Option<u32>,
    ) -> Observed {
        let mut engine = Engine::new();
        engine.set_event_budget(budget);
        for &(t, ev) in seeds {
            engine.schedule_at(SimTime::from_nanos(t), ev);
        }
        let mut w = Scripted {
            seen: Vec::new(),
            stop_at,
        };
        let outcome = engine.run(&mut w, SimTime::from_nanos(horizon));
        (
            w.seen,
            outcome,
            engine.now().as_nanos(),
            engine.events_processed(),
            engine.pending(),
            engine.clamped_schedules(),
        )
    }

    #[test]
    fn run_matches_naive_loop_over_heap_oracle() {
        let seeds: Vec<(u64, u32)> = (0..24).map(|i| (u64::from(i % 5) * 7, i)).collect();
        let all = reference(&seeds, u64::MAX, u64::MAX, None);
        assert_eq!(all.1, RunOutcome::Drained);
        assert!(all.0.len() > 500, "script too small: {}", all.0.len());
        assert!(all.5 > 0, "script never clamps");
        let mid = all.0[all.0.len() / 2];
        let cases = [
            (u64::MAX, u64::MAX, None, RunOutcome::Drained),
            (mid.0, u64::MAX, None, RunOutcome::HorizonReached),
            (u64::MAX, 300, None, RunOutcome::BudgetExhausted),
            (u64::MAX, u64::MAX, Some(mid.1), RunOutcome::Stopped),
        ];
        for (horizon, budget, stop_at, want) in cases {
            let naive = reference(&seeds, horizon, budget, stop_at);
            assert_eq!(naive.1, want);
            assert_eq!(engine_run(&seeds, horizon, budget, stop_at), naive);
        }
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
