//! Cache-line addressing and the versioned data model.
//!
//! FLASH assigns each 128-byte memory line to a fixed home node where its
//! directory state lives. We address memory at line granularity with
//! [`LineAddr`]; [`MemLayout`] maps lines to home nodes (contiguous ranges,
//! as in FLASH where each node contributes a slice of physical memory).
//!
//! Instead of modeling 128 bytes of payload per line, each line carries a
//! [`Version`]: every committed store increments it. A copy of a line is
//! *correct* iff its version equals the globally latest committed version —
//! this is how the validation experiments detect silent data loss or
//! corruption after recovery (paper, Section 5.2).

use core::fmt;
use flash_net::NodeId;

/// Bytes per cache line (FLASH uses 128-byte lines).
pub const LINE_BYTES: u64 = 128;

/// Cache lines per 4 KB page (the firewall's protection granularity).
pub const LINES_PER_PAGE: u64 = 4096 / LINE_BYTES;

/// A global line-granular memory address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// A 4 KB page address (line address divided by [`LINES_PER_PAGE`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(pub u64);

/// The version number standing in for a line's 128 bytes of data: a
/// per-line store count, 32 bits wide. It never wraps; see
/// [`Version::next`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u32);

impl LineAddr {
    /// The page containing this line.
    #[inline]
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 / LINES_PER_PAGE)
    }
}

impl Version {
    /// The initial version of every line at boot.
    pub const INITIAL: Version = Version(0);

    /// The next version (after one more store).
    ///
    /// # Panics
    ///
    /// Panics if the version would pass `u32::MAX`.
    #[inline]
    pub fn next(self) -> Version {
        let next = self.0.checked_add(1);
        Version(next.expect("line version overflows 32 bits"))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}
impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}
impl fmt::Debug for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:#x}", self.0)
    }
}
impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The machine's physical memory layout: `n_nodes` nodes each contributing
/// `lines_per_node` lines, with line `i` homed on node `i / lines_per_node`.
///
/// # Examples
///
/// ```
/// use flash_coherence::{MemLayout, LineAddr};
/// use flash_net::NodeId;
///
/// let layout = MemLayout::new(4, 1024);
/// assert_eq!(layout.total_lines(), 4096);
/// assert_eq!(layout.home_of(LineAddr(1025)), NodeId(1));
/// assert_eq!(layout.local_index(LineAddr(1025)), 1);
/// assert_eq!(layout.line_of(NodeId(1), 1), LineAddr(1025));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemLayout {
    n_nodes: usize,
    lines_per_node: u64,
}

impl MemLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(n_nodes: usize, lines_per_node: u64) -> Self {
        assert!(n_nodes > 0 && lines_per_node > 0);
        MemLayout {
            n_nodes,
            lines_per_node,
        }
    }

    /// Creates a layout from a per-node memory size in megabytes.
    pub fn with_node_mb(n_nodes: usize, mb_per_node: u64) -> Self {
        MemLayout::new(n_nodes, mb_per_node * 1024 * 1024 / LINE_BYTES)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Checks that `node` is one of the machine's nodes: the check every
    /// member of a stored sharer set or firewall ACL passes.
    ///
    /// # Panics
    ///
    /// Panics with "node id N exceeds the M-node machine" if `node`'s id
    /// is not below [`MemLayout::num_nodes`].
    pub fn assert_in_machine(&self, node: NodeId) {
        assert!(
            node.index() < self.n_nodes,
            "node id {} exceeds the {}-node machine",
            node.index(),
            self.n_nodes
        );
    }

    /// Lines contributed by each node.
    pub fn lines_per_node(&self) -> u64 {
        self.lines_per_node
    }

    /// Total lines in the machine.
    pub fn total_lines(&self) -> u64 {
        self.n_nodes as u64 * self.lines_per_node
    }

    /// The home node of a line.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range.
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        assert!(line.0 < self.total_lines(), "line out of range");
        NodeId((line.0 / self.lines_per_node) as u16)
    }

    /// The line's index within its home node's memory.
    pub fn local_index(&self, line: LineAddr) -> usize {
        assert!(line.0 < self.total_lines(), "line out of range");
        (line.0 % self.lines_per_node) as usize
    }

    /// The global line address of `node`'s `local`-th line.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn line_of(&self, node: NodeId, local: u64) -> LineAddr {
        assert!((node.index()) < self.n_nodes && local < self.lines_per_node);
        LineAddr(node.index() as u64 * self.lines_per_node + local)
    }

    /// Whether a line lies in the exception-vector range (the first page of
    /// physical memory). References to this range are remapped node-locally
    /// by MAGIC to avoid a single point of failure (paper, Section 3.2).
    pub fn is_vector_range(&self, line: LineAddr) -> bool {
        line.0 < LINES_PER_PAGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_group_lines() {
        assert_eq!(LINES_PER_PAGE, 32);
        assert_eq!(LineAddr(0).page(), PageAddr(0));
        assert_eq!(LineAddr(31).page(), PageAddr(0));
        assert_eq!(LineAddr(32).page(), PageAddr(1));
    }

    #[test]
    fn version_monotone() {
        let v = Version::INITIAL;
        assert_eq!(v.next(), Version(1));
        assert!(v < v.next());
        assert_eq!(Version(u32::MAX - 1).next(), Version(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "line version overflows 32 bits")]
    fn version_past_u32_max_panics() {
        let _ = Version(u32::MAX).next();
    }

    #[test]
    fn layout_maps_lines_to_homes() {
        let l = MemLayout::new(4, 100);
        assert_eq!(l.home_of(LineAddr(0)), NodeId(0));
        assert_eq!(l.home_of(LineAddr(99)), NodeId(0));
        assert_eq!(l.home_of(LineAddr(100)), NodeId(1));
        assert_eq!(l.home_of(LineAddr(399)), NodeId(3));
        assert_eq!(l.local_index(LineAddr(399)), 99);
    }

    #[test]
    fn layout_from_megabytes() {
        let l = MemLayout::with_node_mb(8, 16);
        assert_eq!(l.lines_per_node(), 16 * 1024 * 1024 / 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_line_panics() {
        let l = MemLayout::new(2, 10);
        let _ = l.home_of(LineAddr(20));
    }

    #[test]
    fn vector_range_is_first_page() {
        let l = MemLayout::new(2, 100);
        assert!(l.is_vector_range(LineAddr(0)));
        assert!(l.is_vector_range(LineAddr(31)));
        assert!(!l.is_vector_range(LineAddr(32)));
    }

    #[test]
    fn line_of_roundtrips() {
        let l = MemLayout::new(3, 7);
        for n in 0..3u16 {
            for i in 0..7u64 {
                let a = l.line_of(NodeId(n), i);
                assert_eq!(l.home_of(a), NodeId(n));
                assert_eq!(l.local_index(a) as u64, i);
            }
        }
    }
}
