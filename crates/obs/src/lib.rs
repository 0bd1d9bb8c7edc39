//! # flash-obs — typed, deterministic observability
//!
//! The paper's evaluation (Sections 5.3–5.5) is an *attribution* story:
//! where recovery time goes, per phase and per node, as the machine
//! scales. This crate is the observability layer that makes that
//! attribution first-class across the workspace:
//!
//! * [`TraceEvent`] — a structured event taxonomy covering packet
//!   lifecycle, handler dispatch, coherence transitions, fault injection,
//!   per-node recovery phases P1–P4, barrier rounds, and Hive cell/OS
//!   events. Every variant is `Copy` and carries only primitive ids.
//! * [`Recorder`] — a sharded recorder: one ring-buffer shard per
//!   [`Domain`] (backed by the generic [`TraceBuffer`] ring re-exported
//!   from `flash-sim`) plus a global sequence counter, so the merged
//!   trace is totally ordered and bit-identical across campaign worker
//!   counts. Disabled domains cost one load + branch per record call.
//! * [`Counter`] / [`Counters`] — the typed event counters the machine,
//!   the fabric and each directory keep (NAKs, denials, bus errors,
//!   drops); [`Hist`] / [`Metrics`] — fixed-bucket histograms (handler
//!   occupancy, queue depth, hops, KV latency), a single branch when
//!   disabled.
//! * Exporters — [`chrome_trace_json`] (Perfetto / `chrome://tracing`),
//!   [`phase_timeline`] (the per-node P1–P4 table), and [`tail_json`]
//!   (the flight-recorder tail campaign post-mortems embed on invariant
//!   failure).
//!
//! # Examples
//!
//! ```
//! use flash_obs::{chrome_trace_json, Domain, Hist, Recorder, TraceEvent};
//! use flash_sim::{SimDuration, SimTime};
//!
//! let mut rec = Recorder::new();
//! rec.record(
//!     Domain::Recovery,
//!     SimTime::from_nanos(250),
//!     TraceEvent::PhaseEnter { node: 0, phase: 1, incarnation: 1 },
//! );
//! rec.metrics.observe(Hist::MagicHandlerNs, SimDuration::from_nanos(140));
//! let json = chrome_trace_json(&rec);
//! assert!(json.contains("\"name\": \"P1\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod export;
mod metrics;
mod recorder;

pub use event::{Domain, TraceEvent};
pub use export::{
    chrome_trace_json, json_escape_str, latency_summary, phase_rows, phase_timeline, tail_json,
    PhaseRow,
};
pub use metrics::{Counter, Counters, Hist, Metrics, Quantiles};
pub use recorder::{fnv1a, MergedEvent, Recorder, DEFAULT_SHARD_CAPACITY};

// The generic ring backend the recorder shards are built on, re-exported
// for users that need a raw typed ring.
pub use flash_sim::TraceBuffer;
