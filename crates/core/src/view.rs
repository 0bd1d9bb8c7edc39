//! The system-state view exchanged during the information-dissemination
//! phase: the `LState` (link state) and `NState` (node state) vectors of
//! Section 4.3, plus the graph computations derived from a stabilized view
//! (closest-working-neighbor graph, dissemination round bound, breadth-first
//! tree for the barriers).

use core::fmt;
use flash_coherence::NodeSet;
use flash_net::{NodeId, RouterId, UGraph, MAX_SOURCE_HOPS};

/// A link as its canonical `(min, max)` router pair.
type Link = (u16, u16);

/// A set of links, kept as a vector sorted ascending: membership is a
/// binary search, iteration is ascending, and [`View::merge`] joins two
/// sets in one linear walk.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct LinkSet {
    links: Vec<Link>,
}

impl LinkSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LinkSet::default()
    }

    /// Membership test for a canonical `(min, max)` pair.
    pub fn contains(&self, link: &Link) -> bool {
        self.links.binary_search(link).is_ok()
    }

    /// Adds a canonical pair; returns whether it was newly inserted.
    pub fn insert(&mut self, link: Link) -> bool {
        match self.links.binary_search(&link) {
            Ok(_) => false,
            Err(at) => {
                self.links.insert(at, link);
                true
            }
        }
    }

    /// Removes a canonical pair; returns whether it was present.
    pub fn remove(&mut self, link: &Link) -> bool {
        match self.links.binary_search(link) {
            Ok(at) => {
                self.links.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over the links in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Link> + '_ {
        self.links.iter().copied()
    }

    /// `(a − a_not) ∪ (b − b_not)` in one merge-walk of the four sorted
    /// vectors.
    fn union_of_differences(a: &Self, a_not: &Self, b: &Self, b_not: &Self) -> Self {
        let mut links = Vec::with_capacity(a.links.len() + b.links.len());
        let mut a = minus(&a.links, &a_not.links).peekable();
        let mut b = minus(&b.links, &b_not.links).peekable();
        while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
            if x <= y {
                a.next();
            }
            if y <= x {
                b.next();
            }
            links.push(x.min(y));
        }
        links.extend(a.chain(b));
        LinkSet { links }
    }
}

/// The members of sorted `a` not in sorted `not`, ascending.
fn minus<'a>(a: &'a [Link], not: &'a [Link]) -> impl Iterator<Item = Link> + 'a {
    let mut j = 0;
    a.iter().copied().filter(move |k| {
        while not.get(j).is_some_and(|n| n < k) {
            j += 1;
        }
        not.get(j) != Some(k)
    })
}

impl fmt::Debug for LinkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.links).finish()
    }
}

/// A node's (partial) knowledge of the machine's health. Knowledge is
/// three-valued per component (up / down / unknown); `merge` is the join of
/// the knowledge lattice and is commutative, associative and idempotent, so
/// exchange order cannot matter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct View {
    /// Nodes known to have answered a recovery ping.
    pub node_up: NodeSet,
    /// Nodes known failed (no ping response, or router dead).
    pub node_down: NodeSet,
    /// Links probed alive, as canonical `(min, max)` router pairs.
    pub links_up: LinkSet,
    /// Links probed dead.
    pub links_down: LinkSet,
}

fn canon(a: RouterId, b: RouterId) -> Link {
    (a.0.min(b.0), a.0.max(b.0))
}

impl View {
    /// An empty (all-unknown) view.
    pub fn new() -> Self {
        View::default()
    }

    /// Records a node as up. Down-knowledge wins over up-knowledge on
    /// conflict (a node observed failed stays failed for this recovery).
    pub fn set_node_up(&mut self, n: NodeId) {
        if !self.node_down.contains(n) {
            self.node_up.insert(n);
        }
    }

    /// Records a node as down.
    pub fn set_node_down(&mut self, n: NodeId) {
        self.node_down.insert(n);
        self.node_up.remove(n);
    }

    /// Records a link as up.
    pub fn set_link_up(&mut self, a: RouterId, b: RouterId) {
        let k = canon(a, b);
        if !self.links_down.contains(&k) {
            self.links_up.insert(k);
        }
    }

    /// Records a link as down.
    pub fn set_link_down(&mut self, a: RouterId, b: RouterId) {
        let k = canon(a, b);
        self.links_down.insert(k);
        self.links_up.remove(&k);
    }

    /// Whether a link is known up.
    pub fn link_up(&self, a: RouterId, b: RouterId) -> bool {
        self.links_up.contains(&canon(a, b))
    }

    /// Merges another view into this one; returns whether anything changed.
    ///
    /// The join, for nodes and links alike: down′ = down ∪ other.down and
    /// up′ = (up − other.down) ∪ (other.up − down′). This is what recording
    /// each of `other`'s downs and then each of its ups with the `set_*`
    /// calls gives, also for views whose up and down sets overlap.
    pub fn merge(&mut self, other: &View) -> bool {
        let mut node_down = self.node_down;
        node_down.union_with(&other.node_down);
        let mut node_up = self.node_up;
        node_up.subtract(&other.node_down);
        let mut fresh_up = other.node_up;
        fresh_up.subtract(&node_down);
        node_up.union_with(&fresh_up);
        let none = LinkSet::new();
        let links_down =
            LinkSet::union_of_differences(&self.links_down, &none, &other.links_down, &none);
        let links_up = LinkSet::union_of_differences(
            &self.links_up,
            &other.links_down,
            &other.links_up,
            &links_down,
        );
        let changed = node_down != self.node_down
            || node_up != self.node_up
            || links_down != self.links_down
            || links_up != self.links_up;
        self.node_down = node_down;
        self.node_up = node_up;
        self.links_down = links_down;
        self.links_up = links_up;
        changed
    }

    /// Nodes known up.
    pub fn live_nodes(&self) -> NodeSet {
        self.node_up
    }

    /// Nodes known down.
    pub fn failed_nodes(&self) -> NodeSet {
        self.node_down
    }

    /// The deterministic root all nodes agree on: the lowest-id live node.
    pub fn root(&self) -> Option<NodeId> {
        self.node_up.first()
    }

    /// The closest-working-neighbor graph over *nodes*: A and B are
    /// neighbors iff some path of alive links connects their routers passing
    /// only through routers of failed nodes, within the source-route hop
    /// limit. Every node derives the same graph from a stabilized view.
    pub fn cwn_graph(&self, design: &UGraph) -> UGraph {
        let n = design.len();
        let mut g = UGraph::new(n);
        for a in 0..n as u16 {
            if !self.node_up.contains(NodeId(a)) {
                continue;
            }
            // BFS from a's router through failed-node routers only.
            let mut dist = vec![u32::MAX; n];
            let mut queue = std::collections::VecDeque::new();
            dist[a as usize] = 0;
            queue.push_back(a);
            while let Some(r) = queue.pop_front() {
                if dist[r as usize] as usize >= MAX_SOURCE_HOPS {
                    continue;
                }
                for &s in design.neighbors(r) {
                    if !self.link_up(RouterId(r), RouterId(s)) {
                        continue;
                    }
                    if dist[s as usize] != u32::MAX {
                        continue;
                    }
                    dist[s as usize] = dist[r as usize] + 1;
                    if self.node_up.contains(NodeId(s)) {
                        // Reached a working node: edge, do not pass through.
                        if s != a {
                            g.add_edge(a, s);
                        }
                    } else if self.node_down.contains(NodeId(s)) {
                        // Router of a failed node: traverse it.
                        queue.push_back(s);
                    }
                    // Unknown nodes are not traversed.
                }
            }
        }
        g
    }

    /// The source route from live node `a` to live node `b` along the
    /// shortest alive-link path through failed-node routers — the route the
    /// barrier and exchange messages take. `None` if not cwn-adjacent.
    pub fn route_between(&self, design: &UGraph, a: NodeId, b: NodeId) -> Option<Vec<RouterId>> {
        let n = design.len();
        let mut prev = vec![u16::MAX; n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[a.index()] = 0;
        queue.push_back(a.0);
        while let Some(r) = queue.pop_front() {
            if r == b.0 {
                break;
            }
            if dist[r as usize] as usize >= MAX_SOURCE_HOPS {
                continue;
            }
            for &s in design.neighbors(r) {
                if !self.link_up(RouterId(r), RouterId(s)) || dist[s as usize] != u32::MAX {
                    continue;
                }
                let is_target = s == b.0;
                let traversable = self.node_down.contains(NodeId(s));
                if is_target || traversable {
                    dist[s as usize] = dist[r as usize] + 1;
                    prev[s as usize] = r;
                    if is_target {
                        queue.clear();
                        queue.push_back(s);
                        break;
                    }
                    queue.push_back(s);
                }
            }
        }
        if dist[b.index()] == u32::MAX {
            return None;
        }
        let mut hops = Vec::new();
        let mut at = b.0;
        while at != a.0 {
            hops.push(RouterId(at));
            at = prev[at as usize];
            if at == u16::MAX {
                return None;
            }
        }
        hops.reverse();
        Some(hops)
    }

    /// The dissemination round bound: `2 h` where `h` is the height of the
    /// BFT rooted at the agreed root in the cwn graph (Section 4.3).
    pub fn round_bound(&self, design: &UGraph) -> u32 {
        let Some(root) = self.root() else { return 0 };
        let g = self.cwn_graph(design);
        let alive: Vec<bool> = (0..g.len() as u16)
            .map(|i| self.node_up.contains(NodeId(i)))
            .collect();
        2 * g.bft_height(root.0, &alive).unwrap_or(0)
    }

    /// A tighter linear-time diameter upper bound in the spirit of the
    /// paper's citation \[1\] (Aingworth, Chekuri, Motwani): a double BFS
    /// sweep finds a long path; the eccentricity of that path's midpoint —
    /// a near-central vertex — gives the bound `2·ecc(mid)`, usually much
    /// smaller than `2·ecc(root)` when the deterministic root (lowest live
    /// id) sits in a corner of the mesh. Still a sound upper bound on the
    /// diameter, since `2·ecc(v) >= diameter` for every vertex `v`.
    ///
    /// Costs three BFS traversals instead of one; every node computes the
    /// same value from a stabilized view.
    pub fn round_bound_center(&self, design: &UGraph) -> u32 {
        let Some(root) = self.root() else { return 0 };
        let g = self.cwn_graph(design);
        let alive: Vec<bool> = (0..g.len() as u16)
            .map(|i| self.node_up.contains(NodeId(i)))
            .collect();
        // Sweep 1: farthest live vertex `a` from the root (lowest id ties).
        let d0 = g.bfs_distances(root.0, &alive);
        let far = |dist: &[u32]| -> Option<u16> {
            let mut best: Option<(u32, u16)> = None;
            for (v, &d) in dist.iter().enumerate() {
                if d != u32::MAX && alive[v] {
                    let key = (d, u32::MAX - v as u32);
                    if best.is_none_or(|(bd, bv)| key > (bd, u32::MAX - bv as u32)) {
                        best = Some((d, v as u16));
                    }
                }
            }
            best.map(|(_, v)| v)
        };
        let Some(a) = far(&d0) else { return 0 };
        // Sweep 2: farthest vertex `b` from `a`; walk back to the midpoint.
        let da = g.bfs_distances(a, &alive);
        let Some(b) = far(&da) else { return 0 };
        let path_len = da[b as usize];
        // Midpoint candidates: vertices on the a-b shortest-path bisector
        // (da == path_len/2 and da + db == path_len). Compute the
        // eccentricity of a small deterministic sample and take the most
        // central — the bisector of a boundary-to-boundary path crosses the
        // graph's center on mesh-like topologies.
        let db = g.bfs_distances(b, &alive);
        let target = path_len / 2;
        let mut candidates: Vec<u16> = (0..g.len() as u16)
            .filter(|&v| {
                alive[v as usize]
                    && da[v as usize] == target
                    && db[v as usize] != u32::MAX
                    && da[v as usize] + db[v as usize] == path_len
            })
            .collect();
        if candidates.is_empty() {
            candidates.push(b);
        }
        // A deterministic spread over the bisector: up to 4 evenly spaced
        // candidates (the bisector is sorted by id, which on a row-major
        // mesh sweeps it end to end).
        let picks: Vec<u16> = if candidates.len() <= 4 {
            candidates.clone()
        } else {
            (0..4)
                .map(|i| candidates[i * (candidates.len() - 1) / 3])
                .collect()
        };
        let ecc_of = |v: u16| -> u32 {
            g.bfs_distances(v, &alive)
                .iter()
                .enumerate()
                .filter(|(u, &d)| alive[*u] && d != u32::MAX)
                .map(|(_, &d)| d)
                .max()
                .unwrap_or(0)
        };
        let best_ecc = picks.iter().map(|&v| ecc_of(v)).min().unwrap_or(0);
        // Never worse than the plain 2h bound; never below the observed
        // path length (a diameter lower bound).
        (2 * best_ecc).min(self.round_bound(design)).max(path_len)
    }

    /// The breadth-first tree over live nodes used by the barrier
    /// implementation; deterministic (ascending neighbor order), so every
    /// node computes the same tree from the same view.
    pub fn bft_tree(&self, design: &UGraph) -> Tree {
        let n = design.len();
        let mut tree = Tree {
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            root: self.root(),
        };
        let Some(root) = self.root() else { return tree };
        let g = self.cwn_graph(design);
        let alive: Vec<bool> = (0..n as u16)
            .map(|i| self.node_up.contains(NodeId(i)))
            .collect();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[root.index()] = true;
        queue.push_back(root.0);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if alive[v as usize] && !seen[v as usize] {
                    seen[v as usize] = true;
                    tree.parent[v as usize] = Some(NodeId(u));
                    tree.children[u as usize].push(NodeId(v));
                    queue.push_back(v);
                }
            }
        }
        tree
    }
}

/// A barrier tree over the live nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tree {
    /// Each node's parent (`None` for the root and non-members).
    pub parent: Vec<Option<NodeId>>,
    /// Each node's children.
    pub children: Vec<Vec<NodeId>>,
    /// The root, if any live node exists.
    pub root: Option<NodeId>,
}

impl Tree {
    /// Whether `n` is the tree root.
    pub fn is_root(&self, n: NodeId) -> bool {
        self.root == Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_net::{Mesh2D, Topology};

    fn design(w: usize, h: usize) -> UGraph {
        let m = Mesh2D::new(w, h);
        UGraph::from_edges(m.num_routers(), m.links().iter().map(|l| (l.a.0, l.b.0)))
    }

    /// A fully healthy view of a w x h mesh.
    fn healthy(w: usize, h: usize) -> View {
        let m = Mesh2D::new(w, h);
        let mut v = View::new();
        for i in 0..m.num_nodes() as u16 {
            v.set_node_up(NodeId(i));
        }
        for l in m.links() {
            v.set_link_up(l.a, l.b);
        }
        v
    }

    #[test]
    fn merge_is_idempotent_and_down_wins() {
        let mut a = View::new();
        a.set_node_up(NodeId(1));
        let mut b = View::new();
        b.set_node_down(NodeId(1));
        assert!(a.merge(&b));
        assert!(a.node_down.contains(NodeId(1)));
        assert!(!a.node_up.contains(NodeId(1)));
        // Re-merging changes nothing.
        let b2 = b.clone();
        assert!(!a.merge(&b2));
        // Up-knowledge arriving later does not resurrect a down node.
        let mut c = View::new();
        c.set_node_up(NodeId(1));
        a.merge(&c);
        assert!(a.node_down.contains(NodeId(1)));
    }

    #[test]
    fn merge_links_down_wins() {
        let mut a = View::new();
        a.set_link_up(RouterId(0), RouterId(1));
        let mut b = View::new();
        b.set_link_down(RouterId(1), RouterId(0)); // reversed order, same link
        a.merge(&b);
        assert!(!a.link_up(RouterId(0), RouterId(1)));
        assert!(a.links_down.contains(&(0, 1)));
    }

    #[test]
    fn healthy_cwn_graph_is_the_mesh() {
        let v = healthy(3, 3);
        let g = v.cwn_graph(&design(3, 3));
        assert_eq!(g.num_edges(), design(3, 3).num_edges());
    }

    #[test]
    fn cwn_bridges_failed_nodes() {
        // 3x1 mesh, middle node failed (router up): 0 and 2 become cwn.
        let mut v = healthy(3, 1);
        v.set_node_down(NodeId(1));
        let g = v.cwn_graph(&design(3, 1));
        assert_eq!(g.neighbors(0), &[2]);
        let route = v
            .route_between(&design(3, 1), NodeId(0), NodeId(2))
            .unwrap();
        assert_eq!(route, vec![RouterId(1), RouterId(2)]);
    }

    #[test]
    fn dead_links_disconnect_cwn() {
        let mut v = healthy(3, 1);
        v.set_node_down(NodeId(1));
        v.set_link_down(RouterId(1), RouterId(2));
        let g = v.cwn_graph(&design(3, 1));
        assert!(g.neighbors(0).is_empty());
        assert_eq!(v.route_between(&design(3, 1), NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn round_bound_on_healthy_mesh() {
        let v = healthy(4, 4);
        // Root 0 (corner): BFT height = 6, bound = 12 >= diameter 6.
        assert_eq!(v.round_bound(&design(4, 4)), 12);
    }

    #[test]
    fn tree_is_deterministic_and_spans_live_nodes() {
        let mut v = healthy(3, 3);
        v.set_node_down(NodeId(4)); // center
        let d = design(3, 3);
        let t1 = v.bft_tree(&d);
        let t2 = v.bft_tree(&d);
        assert_eq!(t1, t2);
        assert_eq!(t1.root, Some(NodeId(0)));
        assert!(t1.is_root(NodeId(0)));
        // All live nodes except the root have parents.
        for i in 0..9u16 {
            let n = NodeId(i);
            if v.node_up.contains(n) && i != 0 {
                assert!(t1.parent[n.index()].is_some(), "node {i} attached");
            }
        }
        // The failed node is not in the tree.
        assert!(t1.parent[4].is_none());
        assert!(t1.children[4].is_empty());
    }

    #[test]
    fn empty_view_has_no_root() {
        let v = View::new();
        assert_eq!(v.root(), None);
        assert_eq!(v.round_bound(&design(2, 2)), 0);
        assert_eq!(v.bft_tree(&design(2, 2)).root, None);
    }

    /// The merge `View::merge` replaced: record each of `other`'s downs,
    /// then each of its ups, one `set_*` call at a time.
    fn sequential_merge(v: &mut View, other: &View) -> bool {
        let before = v.clone();
        for n in other.node_down.iter() {
            v.set_node_down(n);
        }
        for n in other.node_up.iter() {
            v.set_node_up(n);
        }
        for (a, b) in other.links_down.iter() {
            v.set_link_down(RouterId(a), RouterId(b));
        }
        for (a, b) in other.links_up.iter() {
            v.set_link_up(RouterId(a), RouterId(b));
        }
        *v != before
    }

    /// A view that writes its public fields directly, so a node or link
    /// may sit in both its up and its down set.
    fn raw_view(rng: &mut flash_sim::DetRng, nodes: u64, routers: u64) -> View {
        let mut v = View::new();
        for _ in 0..rng.below(2 * nodes) {
            let n = NodeId(rng.below(nodes) as u16);
            if rng.chance(0.5) {
                v.node_up.insert(n);
            } else {
                v.node_down.insert(n);
            }
        }
        for _ in 0..rng.below(4 * routers) {
            let (a, b) = (rng.below(routers) as u16, rng.below(routers) as u16);
            let link = (a.min(b), a.max(b));
            if rng.chance(0.5) {
                v.links_up.insert(link);
            } else {
                v.links_down.insert(link);
            }
        }
        v
    }

    fn assert_merge_matches_sequential(a: &View, b: &View) {
        let mut want = a.clone();
        let want_changed = sequential_merge(&mut want, b);
        let mut got = a.clone();
        let got_changed = got.merge(b);
        assert_eq!(got, want, "merge of {a:?} with {b:?}");
        assert_eq!(got_changed, want_changed, "changed flag, {a:?} with {b:?}");
        let up: Vec<_> = got.links_up.iter().collect();
        assert!(
            up.windows(2).all(|w| w[0] < w[1]),
            "links_up ascends: {up:?}"
        );
        let down: Vec<_> = got.links_down.iter().collect();
        assert!(down.windows(2).all(|w| w[0] < w[1]), "links_down ascends");
    }

    #[test]
    fn merge_matches_sequential_set_calls() {
        let mut rng = flash_sim::DetRng::new(20);
        for case in 0..300 {
            let (nodes, routers) = [(4, 4), (16, 16), (128, 128)][case % 3];
            let a = raw_view(&mut rng, nodes, routers);
            let b = raw_view(&mut rng, nodes, routers);
            assert_merge_matches_sequential(&a, &b);
            assert_merge_matches_sequential(&a, &a);
            assert_merge_matches_sequential(&a, &View::new());
            assert_merge_matches_sequential(&View::new(), &a);
        }
    }

    #[test]
    fn merge_handles_overlapping_up_and_down() {
        // Node 1 and link (0, 1) are both up and down in `a`; node 2 and
        // link (1, 2) are both up and down in `b`.
        let mut a = View::new();
        a.node_up.insert(NodeId(1));
        a.node_down.insert(NodeId(1));
        a.links_up.insert((0, 1));
        a.links_down.insert((0, 1));
        let mut b = View::new();
        b.node_up.insert(NodeId(2));
        b.node_down.insert(NodeId(2));
        b.links_up.insert((1, 2));
        b.links_down.insert((1, 2));
        assert_merge_matches_sequential(&a, &b);
        assert_merge_matches_sequential(&b, &a);
        let mut ab = a.clone();
        assert!(ab.merge(&b));
        // `a`'s overlap survives (nothing in `b` removes it); `b`'s does
        // not come across, since its down wins.
        assert!(ab.node_up.contains(NodeId(1)) && ab.node_down.contains(NodeId(1)));
        assert!(!ab.node_up.contains(NodeId(2)) && ab.node_down.contains(NodeId(2)));
        assert!(ab.links_up.contains(&(0, 1)) && !ab.links_up.contains(&(1, 2)));
        assert!(!ab.merge(&b), "a second merge changes nothing");
    }

    #[test]
    fn merge_commutes() {
        let mut a = View::new();
        a.set_node_up(NodeId(0));
        a.set_link_down(RouterId(0), RouterId(1));
        let mut b = View::new();
        b.set_node_down(NodeId(2));
        b.set_link_up(RouterId(1), RouterId(2));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }
}

#[cfg(test)]
mod center_bound_tests {
    use super::*;
    use flash_net::{Mesh2D, Topology};

    fn design(w: usize, h: usize) -> UGraph {
        let m = Mesh2D::new(w, h);
        UGraph::from_edges(m.num_routers(), m.links().iter().map(|l| (l.a.0, l.b.0)))
    }

    fn healthy(w: usize, h: usize) -> View {
        let m = Mesh2D::new(w, h);
        let mut v = View::new();
        for i in 0..m.num_nodes() as u16 {
            v.set_node_up(NodeId(i));
        }
        for l in m.links() {
            v.set_link_up(l.a, l.b);
        }
        v
    }

    #[test]
    fn center_bound_is_tighter_on_meshes() {
        // 16x8 mesh: corner-rooted 2h = 44; diameter = 22; the center
        // bound must sit in between and strictly improve on 2h.
        let v = healthy(16, 8);
        let d = design(16, 8);
        let plain = v.round_bound(&d);
        let center = v.round_bound_center(&d);
        let g = v.cwn_graph(&d);
        let alive = vec![true; 128];
        let diam = g.exact_diameter(&alive);
        assert_eq!(plain, 44);
        assert_eq!(diam, 22);
        assert!(center >= diam, "must remain a sound upper bound");
        assert!(center < plain, "and improve on 2h: {center} vs {plain}");
    }

    #[test]
    fn center_bound_sound_with_failures() {
        let mut v = healthy(6, 6);
        for dead in [7u16, 14, 21, 28] {
            v.set_node_down(NodeId(dead));
        }
        let d = design(6, 6);
        let g = v.cwn_graph(&d);
        let alive: Vec<bool> = (0..36u16)
            .map(|i| v.live_nodes().contains(NodeId(i)))
            .collect();
        let diam = g.exact_diameter(&alive);
        let center = v.round_bound_center(&d);
        assert!(center >= diam, "{center} >= {diam}");
        assert!(center <= v.round_bound(&d));
    }

    #[test]
    fn center_bound_trivial_cases() {
        let v = View::new();
        assert_eq!(v.round_bound_center(&design(2, 2)), 0);
        let mut single = View::new();
        single.set_node_up(NodeId(0));
        assert_eq!(single.round_bound_center(&design(2, 2)), 0);
    }
}
