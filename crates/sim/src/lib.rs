//! # flash-sim — discrete-event simulation kernel
//!
//! This crate is the foundation of the FLASH fault-containment reproduction:
//! a small, deterministic discrete-event simulation kernel. Every other crate
//! in the workspace builds its models on top of the primitives here:
//!
//! * [`SimTime`] / [`SimDuration`] — simulated nanoseconds;
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking;
//! * [`Engine`] / [`World`] / [`Scheduler`] — the event loop;
//! * [`DetRng`] — reproducible randomness for workloads and fault injection;
//! * [`LatencyHistogram`] — power-of-two latency buckets.
//!
//! Determinism is a hard requirement: a fault-injection experiment is
//! identified by a (configuration, seed) pair and must replay identically so
//! failures found by the validation harness can be debugged.
//!
//! # Examples
//!
//! ```
//! use flash_sim::{Engine, World, Scheduler, SimTime, SimDuration};
//!
//! // A world that plays ping-pong with itself three times.
//! struct PingPong { hops: u32 }
//!
//! impl World for PingPong {
//!     type Ev = &'static str;
//!     fn dispatch(&mut self, ev: &'static str, sched: &mut Scheduler<'_, &'static str>) {
//!         self.hops += 1;
//!         if self.hops < 3 {
//!             let next = if ev == "ping" { "pong" } else { "ping" };
//!             sched.after(SimDuration::from_nanos(50), next);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, "ping");
//! let mut world = PingPong { hops: 0 };
//! engine.run(&mut world, SimTime::MAX);
//! assert_eq!(world.hops, 3);
//! assert_eq!(engine.now(), SimTime::from_nanos(100));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod queue;
mod rng;
mod stats;
mod time;
mod trace;

pub use engine::{Engine, RunOutcome, Scheduler, World};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use stats::LatencyHistogram;
pub use time::{SimDuration, SimTime};
pub use trace::TraceBuffer;
