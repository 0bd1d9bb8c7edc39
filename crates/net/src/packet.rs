//! Packets and routing modes.

use crate::ids::{Lane, NodeId, RouterId};

/// Maximum number of hops a source-routed packet may specify, mirroring the
/// CrayLink limit that forces the initial recovery phases to use only local
/// communication (paper, Section 4.1).
pub const MAX_SOURCE_HOPS: usize = 16;

/// An inline, fixed-capacity sequence of routers for source routing.
///
/// The hop list lives directly in the packet (capacity
/// [`MAX_SOURCE_HOPS`]), so packets carry and advance their route without
/// heap allocation — the per-hop fabric path never clones a `Vec`.
///
/// Unused tail slots are zero-filled, so the derived equality is equivalent
/// to comparing the active prefix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SourceRoute {
    hops: [RouterId; MAX_SOURCE_HOPS],
    len: u8,
}

impl SourceRoute {
    /// Builds a route from a hop slice.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty or longer than [`MAX_SOURCE_HOPS`].
    pub fn new(hops: &[RouterId]) -> Self {
        assert!(!hops.is_empty(), "source route needs at least one hop");
        assert!(hops.len() <= MAX_SOURCE_HOPS, "source route too long");
        let mut arr = [RouterId::default(); MAX_SOURCE_HOPS];
        arr[..hops.len()].copy_from_slice(hops);
        SourceRoute {
            hops: arr,
            len: hops.len() as u8,
        }
    }

    /// The active hops.
    #[inline]
    pub fn as_slice(&self) -> &[RouterId] {
        &self.hops[..self.len as usize]
    }
}

impl std::ops::Deref for SourceRoute {
    type Target = [RouterId];
    #[inline]
    fn deref(&self) -> &[RouterId] {
        self.as_slice()
    }
}

impl From<&[RouterId]> for SourceRoute {
    fn from(hops: &[RouterId]) -> Self {
        SourceRoute::new(hops)
    }
}

impl From<Vec<RouterId>> for SourceRoute {
    fn from(hops: Vec<RouterId>) -> Self {
        SourceRoute::new(&hops)
    }
}

impl From<&Vec<RouterId>> for SourceRoute {
    fn from(hops: &Vec<RouterId>) -> Self {
        SourceRoute::new(hops)
    }
}

impl<const N: usize> From<[RouterId; N]> for SourceRoute {
    fn from(hops: [RouterId; N]) -> Self {
        SourceRoute::new(&hops)
    }
}

impl std::fmt::Debug for SourceRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// How a packet is steered through the interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Follow the routing tables programmed into each router.
    Table,
    /// Source routing: the sender specifies the exact sequence of routers to
    /// traverse, allowing recovery traffic to detour around failed regions
    /// before the tables have been reprogrammed. `consumed` counts hops
    /// already taken.
    Source {
        /// Routers to traverse, in order; the packet is delivered to the
        /// node attached to the last router.
        hops: SourceRoute,
        /// Number of hops already consumed.
        consumed: u8,
    },
}

/// A packet traversing the interconnect, generic over its payload.
///
/// `flits` is the packet's size in 16-byte flow-control units, including one
/// header flit; a cache-line-carrying coherence packet is 9 flits (1 header
/// + 128 B data).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet<P> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual lane.
    pub lane: Lane,
    /// Size in flits (header included).
    pub flits: u32,
    /// Steering mode.
    pub route: Route,
    /// Set when a link failure severed the packet mid-transit; the header
    /// survived but the data flits are lost (delivered with "parity error
    /// bits set" in FLASH terms).
    pub truncated: bool,
    /// Router-to-router links crossed so far: 0 when built, counted by the
    /// fabric, and added to its `links_crossed` counter when the packet is
    /// delivered or dropped.
    pub links_crossed: u32,
    /// The payload carried (opaque to the interconnect).
    pub payload: P,
}

impl<P> Packet<P> {
    /// Creates a table-routed packet.
    pub fn table_routed(src: NodeId, dst: NodeId, lane: Lane, flits: u32, payload: P) -> Self {
        Packet {
            src,
            dst,
            lane,
            flits: flits.max(1),
            route: Route::Table,
            truncated: false,
            links_crossed: 0,
            payload,
        }
    }

    /// Creates a source-routed packet delivered to the node attached to the
    /// last router in `hops`.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty or longer than [`MAX_SOURCE_HOPS`].
    pub fn source_routed(
        src: NodeId,
        dst: NodeId,
        hops: impl Into<SourceRoute>,
        lane: Lane,
        flits: u32,
        payload: P,
    ) -> Self {
        Packet {
            src,
            dst,
            lane,
            flits: flits.max(1),
            route: Route::Source {
                hops: hops.into(),
                consumed: 0,
            },
            truncated: false,
            links_crossed: 0,
            payload,
        }
    }

    /// Whether this packet uses source routing.
    pub fn is_source_routed(&self) -> bool {
        matches!(self.route, Route::Source { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_packet_has_min_one_flit() {
        let p = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 0, ());
        assert_eq!(p.flits, 1);
        assert!(!p.is_source_routed());
        assert!(!p.truncated);
    }

    #[test]
    fn source_packet_tracks_hops() {
        let p = Packet::source_routed(
            NodeId(0),
            NodeId(2),
            vec![RouterId(1), RouterId(2)],
            Lane::Recovery0,
            1,
            (),
        );
        assert!(p.is_source_routed());
        match &p.route {
            Route::Source { hops, consumed } => {
                assert_eq!(hops.len(), 2);
                assert_eq!(*consumed, 0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn source_route_is_copy_and_compares_by_prefix() {
        let a = SourceRoute::new(&[RouterId(3), RouterId(4)]);
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(a.as_slice(), &[RouterId(3), RouterId(4)]);
        assert_eq!(a, SourceRoute::from(vec![RouterId(3), RouterId(4)]));
        assert_ne!(a, SourceRoute::new(&[RouterId(3)]));
        // Routes (and thus packets' steering state) are Copy now.
        let r = Route::Source {
            hops: a,
            consumed: 1,
        };
        let r2 = r;
        assert_eq!(r, r2);
    }

    #[test]
    #[should_panic(expected = "source route too long")]
    fn source_route_length_is_bounded() {
        let hops = vec![RouterId(0); MAX_SOURCE_HOPS + 1];
        let _ = Packet::source_routed(NodeId(0), NodeId(0), hops, Lane::Recovery0, 1, ());
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn source_route_must_be_nonempty() {
        let _ = Packet::source_routed(NodeId(0), NodeId(0), vec![], Lane::Recovery0, 1, ());
    }
}
