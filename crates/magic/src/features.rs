//! The dedicated-logic fault-containment features of the node controller
//! (paper, Sections 3.1–3.3 and Table 6.1).
//!
//! All of these are implemented in MAGIC hardware interfaces or the dispatch
//! mechanism and add **no latency** to handlers during normal operation; the
//! one exception is the [`Firewall`], whose permission check adds a small
//! cost to the handlers servicing inter-cell writes (< 7 % of an inter-node
//! write miss — reproduced by the Table 6.1 bench).

use flash_coherence::{LineAddr, MemLayout, NodeSet, PageAddr, LINES_PER_PAGE};
use flash_net::NodeId;

/// The node map: a configurable hardware table recording the availability
/// of every node in the system. Each node checks its local map before
/// sending a request over the interconnect, so no new traffic is ever sent
/// to failed nodes; the recovery algorithm keeps the map up to date.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMap {
    n_nodes: usize,
    /// The available nodes, all below `n_nodes`.
    available: NodeSet,
}

impl NodeMap {
    /// Creates a map with all `n` nodes available.
    pub fn new(n: usize) -> Self {
        NodeMap {
            n_nodes: n,
            available: NodeSet::all_below(n),
        }
    }

    /// Whether `node` is marked available.
    pub fn is_available(&self, node: NodeId) -> bool {
        node.index() < self.n_nodes && self.available.contains(node)
    }

    /// Updates one node's availability.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine.
    pub fn set_available(&mut self, node: NodeId, avail: bool) {
        assert!(node.index() < self.n_nodes, "node outside the map");
        if avail {
            self.available.insert(node);
        } else {
            self.available.remove(node);
        }
    }

    /// Bulk-reprograms the map from the set of known-good nodes (the
    /// dissemination phase's `NState`).
    pub fn reprogram(&mut self, good: &NodeSet) {
        self.available = good.iter().filter(|n| n.index() < self.n_nodes).collect();
    }

    /// Number of available nodes.
    pub fn available_count(&self) -> usize {
        self.available.len()
    }
}

/// The ACL of a page with the boot-time default: no writer set.
const OPEN: u32 = u32::MAX;

/// The firewall: a per-4KB-page access-control list restricting which nodes
/// may fetch lines of that page *exclusive* (i.e. write it). Protects a
/// cell's memory against wild writes and incorrectly speculated writes from
/// other cells (paper, Section 3.3).
#[derive(Clone, Debug)]
pub struct Firewall {
    /// The index in `writers` of each homed page's ACL, indexed by local
    /// page number. [`OPEN`] means the boot-time default (everyone may
    /// write).
    acls: Vec<u32>,
    /// The distinct writer sets restricted pages have had, each once:
    /// every page of a cell shares its cell's set.
    writers: Vec<NodeSet>,
    layout: MemLayout,
    /// Base page of this node's memory slice.
    base_page: u64,
    enabled: bool,
}

impl Firewall {
    /// Creates the firewall for `home`'s memory slice. All pages start with
    /// the permissive boot default.
    ///
    /// # Panics
    ///
    /// Panics if the per-node memory is not page-aligned in lines.
    pub fn new(home: NodeId, layout: MemLayout, enabled: bool) -> Self {
        assert_eq!(
            layout.lines_per_node() % LINES_PER_PAGE,
            0,
            "node memory must be page-aligned"
        );
        let pages = (layout.lines_per_node() / LINES_PER_PAGE) as usize;
        let base_page = home.index() as u64 * layout.lines_per_node() / LINES_PER_PAGE;
        Firewall {
            acls: vec![OPEN; pages],
            writers: Vec::new(),
            layout,
            base_page,
            enabled,
        }
    }

    /// Whether firewall checks are active (the Table 6.1 ablation disables
    /// them to measure the overhead).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables checking.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn local(&self, page: PageAddr) -> Option<usize> {
        page.0
            .checked_sub(self.base_page)
            .map(|p| p as usize)
            .filter(|&p| p < self.acls.len())
    }

    /// Restricts write access for a page to the given nodes.
    ///
    /// # Panics
    ///
    /// Panics if the page is not homed on this node, or if a writer lies
    /// outside the machine.
    pub fn restrict(&mut self, page: PageAddr, writers: NodeSet) {
        let i = self.local(page).expect("page not homed on this node");
        writers
            .iter()
            .for_each(|node| self.layout.assert_in_machine(node));
        let k = match self.writers.iter().position(|w| *w == writers) {
            Some(k) => k,
            None => {
                self.writers.push(writers);
                self.writers.len() - 1
            }
        };
        self.acls[i] = u32::try_from(k).expect("distinct writer sets fit in u32");
    }

    /// Returns a page to the permissive boot default.
    ///
    /// # Panics
    ///
    /// Panics if the page is not homed on this node.
    pub fn open(&mut self, page: PageAddr) {
        let i = self.local(page).expect("page not homed on this node");
        self.acls[i] = OPEN;
    }

    /// Checks whether `from` may fetch a line of `page` exclusive.
    /// Always true when disabled or when the page has no ACL installed.
    pub fn may_write(&self, page: PageAddr, from: NodeId) -> bool {
        if !self.enabled {
            return true;
        }
        match self.local(page).map(|i| self.acls[i]) {
            Some(acl) if acl != OPEN => self.writers[acl as usize].contains(from),
            _ => true,
        }
    }
}

/// The range check: a configurable range limit, implemented in dedicated
/// logic, that protects the region of local memory holding the node
/// controller's code, internal data structures and coherence protocol state.
/// Writes from any processor (including the local one) into the region are
/// terminated with a bus error; only the protocol processor itself may write
/// it (paper, Section 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeCheck {
    /// Number of protected lines at the top of the node's local memory.
    protected_lines: u64,
    lines_per_node: u64,
}

impl RangeCheck {
    /// Creates a range check protecting the *last* `protected_lines` lines
    /// of each node's slice (where MAGIC's code and state live).
    pub fn new(protected_lines: u64, layout: MemLayout) -> Self {
        RangeCheck {
            protected_lines: protected_lines.min(layout.lines_per_node()),
            lines_per_node: layout.lines_per_node(),
        }
    }

    /// Whether a processor write to the line with this *local* index is
    /// permitted.
    pub fn write_allowed(&self, local_index: u64) -> bool {
        local_index < self.lines_per_node - self.protected_lines
    }

    /// Number of protected lines.
    pub fn protected_lines(&self) -> u64 {
        self.protected_lines
    }
}

/// The exception-vector remap: processor exception vectors live at a fixed
/// low physical address range; to avoid a single point of failure, every
/// node replicates that page and MAGIC remaps vector-range references to the
/// node-local replica (paper, Section 3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VectorRemap {
    node: NodeId,
    layout: MemLayout,
}

impl VectorRemap {
    /// Creates the remap unit for `node`.
    pub fn new(node: NodeId, layout: MemLayout) -> Self {
        VectorRemap { node, layout }
    }

    /// Remaps a reference: vector-range lines go to the node-local replica
    /// (same page offset within this node's own slice); everything else is
    /// unchanged.
    pub fn remap(&self, line: LineAddr) -> LineAddr {
        if self.layout.is_vector_range(line) {
            self.layout.line_of(self.node, line.0)
        } else {
            line
        }
    }
}

/// The per-node guard on uncached I/O accesses: MAGIC terminates with a bus
/// error any uncached access to local I/O devices arriving from outside the
/// local failure unit, forcing cross-cell I/O through the exactly-once RPC
/// path (paper, Section 3.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoGuard {
    allowed: NodeSet,
}

impl IoGuard {
    /// Creates a guard admitting only the given nodes (typically the nodes
    /// of the local failure unit).
    pub fn new(allowed: NodeSet) -> Self {
        IoGuard { allowed }
    }

    /// Creates a guard admitting everyone (pre-Hive boot state).
    pub fn permissive(n_nodes: usize) -> Self {
        IoGuard {
            allowed: NodeSet::all_below(n_nodes),
        }
    }

    /// Whether `from` may issue uncached I/O here.
    pub fn allows(&self, from: NodeId) -> bool {
        self.allowed.contains(from)
    }

    /// Reconfigures the admitted set.
    pub fn set_allowed(&mut self, allowed: NodeSet) {
        self.allowed = allowed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::DetRng;

    fn layout() -> MemLayout {
        MemLayout::new(4, 128) // 4 pages per node
    }

    #[test]
    fn node_map_tracks_availability() {
        let mut m = NodeMap::new(4);
        assert!(m.is_available(NodeId(3)));
        assert_eq!(m.available_count(), 4);
        m.set_available(NodeId(3), false);
        assert!(!m.is_available(NodeId(3)));
        let good: NodeSet = [0u16, 1].iter().map(|&i| NodeId(i)).collect();
        m.reprogram(&good);
        assert_eq!(m.available_count(), 2);
        assert!(!m.is_available(NodeId(2)));
        // Out-of-range nodes read unavailable.
        assert!(!m.is_available(NodeId(99)));
    }

    #[test]
    fn firewall_defaults_open_then_restricts() {
        let mut fw = Firewall::new(NodeId(1), layout(), true);
        // Node 1's pages are 4..8.
        let page = PageAddr(5);
        assert!(fw.may_write(page, NodeId(3)));
        fw.restrict(page, NodeSet::singleton(NodeId(1)));
        assert!(fw.may_write(page, NodeId(1)));
        assert!(!fw.may_write(page, NodeId(3)));
        fw.open(page);
        assert!(fw.may_write(page, NodeId(3)));
    }

    #[test]
    fn firewall_disabled_allows_everything() {
        let mut fw = Firewall::new(NodeId(0), layout(), false);
        fw.restrict(PageAddr(0), NodeSet::new());
        assert!(fw.may_write(PageAddr(0), NodeId(3)));
        assert!(!fw.enabled());
        fw.set_enabled(true);
        assert!(!fw.may_write(PageAddr(0), NodeId(3)));
    }

    /// Hive restricts every page of a node to its cell's members: the
    /// firewall stores that set once, however many pages use it.
    #[test]
    fn restricting_every_page_to_one_set_stores_it_once() {
        let pages = 256;
        let layout = MemLayout::new(4, pages * LINES_PER_PAGE);
        let mut fw = Firewall::new(NodeId(1), layout, true);
        let members: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
        for p in pages..2 * pages {
            fw.restrict(PageAddr(p), members);
        }
        assert_eq!(fw.writers, [members]);
        assert!(fw.may_write(PageAddr(pages), NodeId(0)));
        assert!(!fw.may_write(PageAddr(2 * pages - 1), NodeId(3)));
        fw.open(PageAddr(pages));
        fw.restrict(PageAddr(pages + 1), members);
        assert_eq!(fw.writers, [members], "re-restricting reuses the set");
        assert!(fw.may_write(PageAddr(pages), NodeId(3)));
    }

    /// Seeded `restrict`/`open`/`may_write` traffic, with checking switched
    /// off now and then, against one optional writer set per page.
    #[test]
    fn firewall_matches_a_per_page_reference() {
        for n in [4u16, 128] {
            let mut rng = DetRng::new(0xF1_2E00 ^ u64::from(n));
            let pages = 8;
            let layout = MemLayout::new(n.into(), pages * LINES_PER_PAGE);
            let mut fw = Firewall::new(NodeId(1), layout, true);
            let mut reference: Vec<Option<NodeSet>> = vec![None; pages as usize];
            let mut enabled = true;
            let cells: Vec<NodeSet> = (0..3).map(|c| NodeSet::singleton(NodeId(c))).collect();
            for _ in 0..4000 {
                let k = rng.below(pages);
                let page = PageAddr(pages + k);
                let from = NodeId(rng.below(n.into()) as u16);
                match rng.below(10) {
                    0..=2 => {
                        let writers = if rng.chance(0.5) {
                            *rng.choose(&cells).unwrap()
                        } else {
                            (0..rng.below(4))
                                .map(|_| NodeId(rng.below(n.into()) as u16))
                                .collect()
                        };
                        fw.restrict(page, writers);
                        reference[k as usize] = Some(writers);
                    }
                    3 => {
                        fw.open(page);
                        reference[k as usize] = None;
                    }
                    4 => {
                        enabled = rng.chance(0.8);
                        fw.set_enabled(enabled);
                    }
                    _ => {
                        let want =
                            !enabled || reference[k as usize].is_none_or(|acl| acl.contains(from));
                        assert_eq!(fw.may_write(page, from), want, "{n} nodes, {page:?}");
                    }
                }
                for (k, acl) in reference.iter().enumerate() {
                    let stored = (fw.acls[k] != OPEN).then(|| fw.writers[fw.acls[k] as usize]);
                    assert_eq!(stored, *acl, "{n} nodes, page {k}");
                }
                for (i, a) in fw.writers.iter().enumerate() {
                    assert!(!fw.writers[..i].contains(a), "{a:?} stored twice");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "node id 4 exceeds the 4-node machine")]
    fn firewall_rejects_writers_outside_the_machine() {
        let mut fw = Firewall::new(NodeId(1), layout(), true);
        fw.restrict(PageAddr(4), NodeSet::singleton(NodeId(4)));
    }

    #[test]
    #[should_panic(expected = "not homed on this node")]
    fn firewall_rejects_foreign_pages() {
        let mut fw = Firewall::new(NodeId(1), layout(), true);
        fw.restrict(PageAddr(0), NodeSet::new()); // page 0 belongs to node 0
    }

    #[test]
    fn range_check_protects_tail() {
        let rc = RangeCheck::new(16, layout());
        assert!(rc.write_allowed(0));
        assert!(rc.write_allowed(111));
        assert!(!rc.write_allowed(112));
        assert!(!rc.write_allowed(127));
        assert_eq!(rc.protected_lines(), 16);
    }

    #[test]
    fn range_check_clamps_to_node_size() {
        let rc = RangeCheck::new(10_000, layout());
        assert_eq!(rc.protected_lines(), 128);
        assert!(!rc.write_allowed(0));
    }

    #[test]
    fn vector_remap_localizes_first_page() {
        let l = layout();
        let r = VectorRemap::new(NodeId(2), l);
        // Line 5 is in the vector range: remapped into node 2's slice.
        assert_eq!(r.remap(LineAddr(5)), LineAddr(2 * 128 + 5));
        // Non-vector lines untouched.
        assert_eq!(r.remap(LineAddr(40)), LineAddr(40));
        // Node 0's remap is the identity on the vector range.
        let r0 = VectorRemap::new(NodeId(0), l);
        assert_eq!(r0.remap(LineAddr(5)), LineAddr(5));
    }

    #[test]
    fn io_guard_filters_foreign_uncached() {
        let mut g = IoGuard::new([NodeId(0), NodeId(1)].into_iter().collect());
        assert!(g.allows(NodeId(0)));
        assert!(!g.allows(NodeId(2)));
        g.set_allowed(NodeSet::singleton(NodeId(2)));
        assert!(g.allows(NodeId(2)));
        assert!(IoGuard::permissive(4).allows(NodeId(3)));
    }
}
