//! # flash-core — hardware fault containment and distributed recovery
//!
//! The primary contribution of *Hardware Fault Containment in Scalable
//! Shared-Memory Multiprocessors* (Teodosiu et al., ISCA 1997), reproduced
//! on top of the `flash-*` substrate crates:
//!
//! * the **recovery triggers** of Table 4.1 (memory-operation timeouts, NAK
//!   counter overflow, firmware assertions, truncated packets) feed into
//! * the **four-phase distributed recovery algorithm** of Section 4
//!   ([`RecoveryExt`]): initiation with closest-working-neighbor discovery,
//!   round-synchronized information dissemination with the `2h` bound,
//!   interconnect recovery (isolation, τ-drain two-phase agreement,
//!   deadlock-free rerouting), and coherence-protocol recovery (cache
//!   flush, directory scan, incoherent-line marking);
//! * plus the **experiment harness** of Section 5.2 ([`run_fault_experiment`])
//!   used by the validation suite (Table 5.3) and the scalability figures.
//!
//! # Examples
//!
//! Run one Table 5.3-style validation experiment — inject a node failure
//! into an 8-node machine under a random cache-fill workload and verify
//! that recovery neither over-marks incoherent lines nor silently corrupts
//! data:
//!
//! ```no_run
//! use flash_core::{ExperimentConfig, run_fault_experiment};
//! use flash_machine::{FaultSpec, MachineParams};
//! use flash_net::NodeId;
//!
//! let cfg = ExperimentConfig::new(MachineParams::table_5_1(), 42);
//! let outcome = run_fault_experiment(&cfg, FaultSpec::Node(NodeId(3)));
//! assert!(outcome.passed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod experiment;
mod ext;
mod lifecycle;
mod msg;
mod view;

pub use config::{
    uncached_instr, PhaseEntries, PhaseTimes, RecoveryConfig, RecoveryReport, UNCACHED_INSTR_NS,
};
pub use experiment::{
    build_machine, finish_fault_experiment, mesh_width, prepare_fault_experiment, random_fault,
    run_fault_experiment, ExperimentConfig, ExperimentOutcome, FaultKind, FcMachine,
};
pub use ext::{RecEv, RecoveryExt, Step};
pub use lifecycle::{
    all_terminal, drive, run_indexed, run_slices, run_to_quiescence, total_progress, warm_until,
    Faults, Harness, RunEnd, ARM_STEP, DETECT_WAIT, DRIVE_SLICE, OS_WINDOW_RECOVERY, RUN_BUDGET,
    SETTLE,
};
pub use msg::{BarrierId, RecMsg};
pub use view::{LinkSet, Tree, View};
