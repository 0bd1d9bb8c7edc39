//! # flash-magic — the MAGIC-style programmable node controller
//!
//! Models the node controller of a FLASH-style cc-NUMA node: a protocol
//! processor servicing coherence messages with per-handler occupancy, plus
//! the dedicated-logic fault-containment features of Table 6.1 of the paper:
//!
//! | Feature | Type | Paper |
//! |---|---|---|
//! | node map | [`NodeMap`] | §3.1 |
//! | truncated-message handling | dispatch in `flash-machine` + [`Trigger::TruncatedPacket`] | §3.1 |
//! | exception-vector remap | [`VectorRemap`] | §3.2 |
//! | firewall | [`Firewall`] | §3.3 |
//! | range check | [`RangeCheck`] | §3.3 |
//! | uncached I/O guard | [`IoGuard`] | §3.3 |
//! | memory-operation timeouts | `Ev::Timeout` in `flash-machine` + [`Trigger::MemOpTimeout`] | §4.2 |
//! | NAK counter overflow | [`NakCounter`] | §4.2 |
//! | exactly-once uncached ops | [`UncachedUnit`] | §4.2 |
//!
//! All features except the firewall are free at run time (dedicated logic or
//! checks placed in unused protocol-processor instruction slots); the
//! firewall's ACL check adds [`costs::FIREWALL_CHECK_NS`] to handlers
//! servicing inter-cell writes, reproduced by the Table 6.1 benchmark.
//!
//! This crate holds the controller's *mechanisms*; the `flash-machine` crate
//! wires them to the interconnect, directory and processor models.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
pub mod costs;
mod features;
mod uncached;

pub use controller::{BusError, MagicMode, MagicParams, NakCounter, Occupancy, Trigger};
pub use features::{Firewall, IoGuard, NodeMap, RangeCheck, VectorRemap};
pub use uncached::{SavedRead, UncachedUnit};
