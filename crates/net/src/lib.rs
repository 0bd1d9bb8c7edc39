//! # flash-net — CrayLink-style interconnect simulator
//!
//! An event-driven model of the point-to-point interconnect of a scalable
//! shared-memory multiprocessor, reproducing the properties the FLASH
//! fault-containment design depends on (paper, Sections 2, 3.1 and 4.1):
//!
//! * static table routing programmed per router ([`RoutingTables`]);
//! * reliable, flow-controlled delivery in normal operation;
//! * four virtual lanes, two of which are dedicated to recovery traffic;
//! * a source-routing option with a bounded hop count and stall-discard;
//! * failure behaviour: black-hole links, packet truncation, dead routers;
//! * topologies: the 2D [`Mesh2D`] simulated in the paper and a
//!   [`Hypercube`] standing in for FLASH's fat hypercube.
//!
//! The central type is [`Fabric`], which plugs into the workspace's
//! discrete-event engine via the [`NetEv`] event type. Graph utilities used
//! by the recovery algorithm (BFS trees, the `2h` dissemination bound,
//! up*/down* rerouting) live in [`UGraph`] and [`up_down_tables`].
//!
//! # Examples
//!
//! ```
//! use flash_net::{Fabric, NetParams, Mesh2D, Packet, NodeId, Lane};
//! use flash_obs::Recorder;
//! use flash_sim::SimTime;
//!
//! let mut fabric: Fabric<&'static str> = Fabric::new(&Mesh2D::new(4, 2), NetParams::default());
//! let mut out = Vec::new();
//! let mut obs = Recorder::disabled();
//! let pkt = Packet::table_routed(NodeId(0), NodeId(7), Lane::Request, 9, "hello");
//! fabric.try_send(NodeId(0), pkt, SimTime::ZERO, &mut out, &mut obs)?;
//! assert!(!out.is_empty()); // events to feed into the simulation engine
//! # Ok::<(), flash_net::SendError<&'static str>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod graph;
mod ids;
mod packet;
mod routing;
mod topology;

pub use fabric::{DeliveryNote, Fabric, LinkProbe, Nbr, NetEv, NetParams, QueueRef, SendError};
pub use graph::UGraph;
pub use ids::{Lane, LinkId, NodeId, RouterId};
pub use packet::{Packet, Route, SourceRoute, MAX_SOURCE_HOPS};
pub use routing::{channel_dependencies_acyclic, up_down_tables, Hop, RoutingTables};
pub use topology::{Hypercube, LinkSpec, Mesh2D, Topology};

// The counter registry the fabric writes, re-exported for the directory
// layer above it, which reaches flash-obs only through this crate.
pub use flash_obs::{Counter, Counters};
