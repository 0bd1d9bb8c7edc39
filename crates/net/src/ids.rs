//! Identifier newtypes for interconnect entities.

use core::fmt;

/// Identifies a compute node (endpoint) in the machine.
///
/// In the topologies provided by this crate each node attaches to exactly one
/// router through a dedicated local port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

/// Identifies a router in the interconnect.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RouterId(pub u16);

/// Identifies a bidirectional router-to-router link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl RouterId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Debug for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// The virtual lane a packet travels on.
///
/// FLASH dedicates two virtual lanes of the CrayLink interconnect to recovery
/// traffic so that the recovery algorithm can assume its lanes are not
/// clogged with backed-up coherence traffic (paper, Section 4.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Lane {
    /// Cache-coherence requests.
    Request,
    /// Cache-coherence replies (always sinkable; avoids protocol deadlock).
    Reply,
    /// Recovery lane 0: probes and pings.
    Recovery0,
    /// Recovery lane 1: dissemination, agreement and barrier traffic.
    Recovery1,
}

impl Lane {
    /// All lanes, in index order.
    pub const ALL: [Lane; 4] = [Lane::Request, Lane::Reply, Lane::Recovery0, Lane::Recovery1];

    /// Number of virtual lanes.
    pub const COUNT: usize = 4;

    /// Dense index of this lane.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Lane::Request => 0,
            Lane::Reply => 1,
            Lane::Recovery0 => 2,
            Lane::Recovery1 => 3,
        }
    }

    /// Whether this lane carries normal coherence traffic (as opposed to
    /// dedicated recovery traffic).
    #[inline]
    pub const fn is_coherence(self) -> bool {
        matches!(self, Lane::Request | Lane::Reply)
    }

    /// Reconstructs a lane from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Lane::COUNT`.
    #[inline]
    pub fn from_index(i: usize) -> Lane {
        Lane::ALL[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_index_roundtrip() {
        for lane in Lane::ALL {
            assert_eq!(Lane::from_index(lane.index()), lane);
        }
    }

    #[test]
    fn lane_classes() {
        assert!(Lane::Request.is_coherence());
        assert!(Lane::Reply.is_coherence());
        assert!(!Lane::Recovery0.is_coherence());
        assert!(!Lane::Recovery1.is_coherence());
    }

    #[test]
    fn id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(RouterId(7).to_string(), "r7");
        assert_eq!(format!("{:?}", LinkId(1)), "l1");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId(1) < NodeId(2));
        assert!(RouterId(0) < RouterId(5));
    }
}
