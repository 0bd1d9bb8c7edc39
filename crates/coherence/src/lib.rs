//! # flash-coherence — directory-based cache coherence model
//!
//! The shared-memory substrate of the FLASH fault-containment reproduction:
//! a home-based MSI directory protocol over 128-byte lines, with the exact
//! properties the paper's recovery algorithm depends on (Sections 3.2, 4.5):
//!
//! * every line has a fixed home node holding its directory state
//!   ([`MemLayout`], [`Directory`]);
//! * a dirty writeback carries the *only valid copy* of a line
//!   ([`CohMsg::Put`]);
//! * transient directory states lock a line: requests are NAK'd and retried;
//! * lines can be marked [`DirState::Incoherent`] after a fault, causing
//!   bus errors on access until the OS reinitializes the page.
//!
//! Data is modeled as a per-line [`Version`] that each committed store
//! increments; the validation experiments check that every accessible line
//! reads the latest version after recovery.
//!
//! The processor-side cache is [`L2Cache`] (2-way set-associative). The
//! protocol engines here are *pure state machines*; the `flash-machine`
//! crate wires them to the interconnect and to MAGIC handler timing.
//!
//! # Examples
//!
//! ```
//! use flash_coherence::{CohMsg, Directory, MemLayout, DirState, LineAddr};
//! use flash_net::NodeId;
//!
//! let layout = MemLayout::new(2, 128);
//! let mut dir = Directory::new(NodeId(0), layout);
//! let line = LineAddr(3);
//! dir.handle(NodeId(1), CohMsg::Get { line });
//! assert_eq!(dir.state(line), DirState::Shared);
//! assert!(dir.sharers(line).contains(NodeId(1)));
//! let out = dir.handle(NodeId(1), CohMsg::GetX { line });
//! assert_eq!(out.len(), 1); // exclusive data reply to node 1
//! assert_eq!(dir.state(line), DirState::Exclusive(NodeId(1)));
//! assert!(dir.sharers(line).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod directory;
mod line;
mod msg;
mod nodeset;

pub use cache::{CachedLine, InsertOutcome, L2Cache};
pub use directory::{DirState, Directory};
pub use line::{LineAddr, MemLayout, PageAddr, Version, LINES_PER_PAGE, LINE_BYTES};
pub use msg::{CohMsg, CTRL_FLITS, DATA_FLITS};
pub use nodeset::NodeSet;
