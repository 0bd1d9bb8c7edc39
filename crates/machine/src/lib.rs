//! # flash-machine — the assembled FLASH-style machine
//!
//! Wires the substrates together into a runnable cc-NUMA machine model:
//! processors with blocking caches, MAGIC node controllers with all
//! fault-containment features, per-node directory slices, and the
//! interconnect fabric — plus the experiment infrastructure of the paper's
//! Section 5: a fault injector for the five fault types of Table 5.2 and
//! the incoherence oracle used by the validation runs of Table 5.3.
//!
//! The recovery algorithm itself is *not* here: it plugs in through the
//! [`Extension`] trait (implemented by `flash-core`), keeping the paper's
//! contribution separate from the substrate.
//!
//! # Examples
//!
//! ```
//! use flash_machine::{Machine, MachineParams, NullExtension, Script, ProcOp};
//! use flash_coherence::LineAddr;
//! use flash_sim::SimTime;
//! use flash_net::NodeId;
//!
//! // A 4-node machine where node 1 writes a line homed on node 0.
//! let mut m = Machine::new(
//!     MachineParams::tiny(),
//!     |n| {
//!         if n == NodeId(1) {
//!             Box::new(Script::new([ProcOp::Write(LineAddr(100))]))
//!         } else {
//!             Box::new(Script::new([]))
//!         }
//!     },
//!     NullExtension,
//!     42,
//! );
//! m.start();
//! m.run_until(SimTime::MAX);
//! assert!(m.st().nodes[1].cache.lookup(LineAddr(100)).unwrap().exclusive);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fault;
mod machine;
mod node;
mod oracle;
mod params;
mod payload;
mod workload;

pub use fault::FaultSpec;
pub use machine::{Checkpoint, Ev, Extension, Machine, MachineState, MachineWorld, NullExtension};
pub use node::{IoDevice, NodeCtx, OutPkt, ProcState};
pub use oracle::{Oracle, ValidationReport};
pub use params::{MachineParams, TopologyKind};
pub use payload::{Payload, UncMsg};
pub use workload::{Idle, OpResult, ProcOp, RandomFill, Script, Workload};
