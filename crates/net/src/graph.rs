//! Graph utilities over the interconnect: BFS, connected components and
//! breadth-first-tree heights, from which the dissemination phase takes its
//! linear-time diameter upper bound (paper, Section 4.3).
//!
//! These functions are pure and operate on an undirected graph snapshot
//! ([`UGraph`]); the recovery algorithm applies them to the *learned* system
//! state (`LState`/`NState`), never to simulator ground truth.

/// An undirected graph over routers `0..n`, with sorted adjacency lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UGraph {
    adj: Vec<Vec<u16>>,
}

impl UGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        UGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list, ignoring duplicates.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u16, u16)>) -> Self {
        let mut g = UGraph::new(n);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: u16, b: u16) {
        assert!((a as usize) < self.adj.len() && (b as usize) < self.adj.len());
        if a == b {
            return;
        }
        if let Err(pos) = self.adj[a as usize].binary_search(&b) {
            self.adj[a as usize].insert(pos, b);
        }
        if let Err(pos) = self.adj[b as usize].binary_search(&a) {
            self.adj[b as usize].insert(pos, a);
        }
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: u16) -> &[u16] {
        &self.adj[v as usize]
    }

    /// Total number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// BFS distances from `root` over a vertex mask: only vertices with
    /// `alive[v] == true` participate. Unreachable or dead vertices get
    /// `u32::MAX`.
    pub fn bfs_distances(&self, root: u16, alive: &[bool]) -> Vec<u32> {
        let n = self.adj.len();
        let mut dist = vec![u32::MAX; n];
        if (root as usize) >= n || !alive[root as usize] {
            return dist;
        }
        let mut queue = std::collections::VecDeque::new();
        dist[root as usize] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u as usize] {
                if alive[v as usize] && dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Height of the breadth-first tree rooted at `root` over live vertices:
    /// the maximum finite BFS distance. Returns 0 for an isolated root and
    /// `None` if the root itself is dead.
    pub fn bft_height(&self, root: u16, alive: &[bool]) -> Option<u32> {
        if !alive.get(root as usize).copied().unwrap_or(false) {
            return None;
        }
        let dist = self.bfs_distances(root, alive);
        Some(
            dist.iter()
                .filter(|&&d| d != u32::MAX)
                .max()
                .copied()
                .unwrap_or(0),
        )
    }

    /// Exact diameter of the live subgraph (max finite eccentricity),
    /// treating disconnected pairs as unreachable. Quadratic; used only by
    /// tests and benchmarks to validate the `2h` bound, mirroring the
    /// paper's remark that computing the diameter precisely is too
    /// expensive for the recovery path.
    pub fn exact_diameter(&self, alive: &[bool]) -> u32 {
        let mut best = 0;
        for v in 0..self.adj.len() {
            if !alive[v] {
                continue;
            }
            let dist = self.bfs_distances(v as u16, alive);
            for &d in &dist {
                if d != u32::MAX {
                    best = best.max(d);
                }
            }
        }
        best
    }

    /// Whether all live vertices form a single connected component.
    /// Vacuously true when fewer than two vertices are alive.
    pub fn live_connected(&self, alive: &[bool]) -> bool {
        let Some(root) = alive.iter().position(|&a| a) else {
            return true;
        };
        let dist = self.bfs_distances(root as u16, alive);
        alive
            .iter()
            .enumerate()
            .all(|(v, &a)| !a || dist[v] != u32::MAX)
    }

    /// Connected components over live vertices; each component is a sorted
    /// vertex list, and components are ordered by smallest member.
    pub fn components(&self, alive: &[bool]) -> Vec<Vec<u16>> {
        let n = self.adj.len();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for v in 0..n {
            if !alive[v] || seen[v] {
                continue;
            }
            let dist = self.bfs_distances(v as u16, alive);
            let mut comp = Vec::new();
            for (u, &d) in dist.iter().enumerate() {
                if d != u32::MAX {
                    seen[u] = true;
                    comp.push(u as u16);
                }
            }
            comps.push(comp);
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> UGraph {
        UGraph::from_edges(n, (0..n as u16 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn add_edge_is_idempotent_and_ignores_self_loops() {
        let mut g = UGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let alive = vec![true; 5];
        assert_eq!(g.bfs_distances(0, &alive), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.bfs_distances(2, &alive), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn dead_vertices_block_paths() {
        let g = path_graph(5);
        let mut alive = vec![true; 5];
        alive[2] = false;
        let d = g.bfs_distances(0, &alive);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX);
        assert!(!g.live_connected(&alive));
        let comps = g.components(&alive);
        assert_eq!(comps, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn bft_height_and_round_bound() {
        let g = path_graph(5);
        let alive = vec![true; 5];
        assert_eq!(g.bft_height(0, &alive), Some(4));
        assert_eq!(g.bft_height(2, &alive), Some(2));
        // Rooted at 0: h = 4, bound 2h = 8 >= diameter 4.
        assert_eq!(g.exact_diameter(&alive), 4);
    }

    #[test]
    fn round_bound_covers_diameter_on_grid() {
        // 4x4 grid.
        let mut g = UGraph::new(16);
        for y in 0..4u16 {
            for x in 0..4u16 {
                let v = y * 4 + x;
                if x + 1 < 4 {
                    g.add_edge(v, v + 1);
                }
                if y + 1 < 4 {
                    g.add_edge(v, v + 4);
                }
            }
        }
        let alive = vec![true; 16];
        let bound = 2 * g.bft_height(0, &alive).unwrap();
        assert!(bound >= g.exact_diameter(&alive));
    }

    #[test]
    fn dead_root_yields_none() {
        let g = path_graph(3);
        let alive = vec![false, true, true];
        assert_eq!(g.bft_height(0, &alive), None);
        assert_eq!(g.bft_height(1, &alive), Some(1));
    }

    #[test]
    fn no_live_vertices() {
        let g = path_graph(3);
        let alive = vec![false; 3];
        assert!(g.live_connected(&alive));
        assert!(g.components(&alive).is_empty());
    }
}
