//! Breadth-first search, distances, eccentricities and diameter.
//!
//! The CONGEST model's round complexities are stated in terms of the hop
//! diameter `D` of the communication graph, so the benchmark harness needs
//! exact (small graphs) and 2-approximate (large graphs) diameter
//! computations, as well as plain BFS trees.

use crate::graph::{EdgeId, EdgeSet, Graph, NodeId};
use std::collections::VecDeque;

/// The result of a breadth-first search from a root vertex.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root of the search.
    pub root: NodeId,
    /// `parent[v]` is the BFS parent of `v`, or `None` for the root and for
    /// unreachable vertices.
    pub parent: Vec<Option<NodeId>>,
    /// `parent_edge[v]` is the edge to the parent, or `None` likewise.
    pub parent_edge: Vec<Option<EdgeId>>,
    /// `dist[v]` is the hop distance from the root, or `usize::MAX` if
    /// unreachable.
    pub dist: Vec<usize>,
    /// Vertices in BFS (non-decreasing distance) order; unreachable vertices
    /// are omitted.
    pub order: Vec<NodeId>,
}

impl BfsTree {
    /// Whether every vertex of the graph was reached.
    pub fn is_spanning(&self) -> bool {
        self.dist.iter().all(|&d| d != usize::MAX)
    }

    /// The maximum distance of any reachable vertex from the root
    /// (the root's eccentricity restricted to its component).
    pub fn eccentricity(&self) -> usize {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }

    /// The set of tree edges (parent pointers) as an [`EdgeSet`] over the
    /// original graph.
    pub fn tree_edges(&self, graph: &Graph) -> EdgeSet {
        let mut set = graph.empty_edge_set();
        for e in self.parent_edge.iter().flatten() {
            set.insert(*e);
        }
        set
    }
}

/// Runs BFS from `root` over all edges of `graph`.
pub fn bfs(graph: &Graph, root: NodeId) -> BfsTree {
    bfs_in(graph, &graph.full_edge_set(), root)
}

/// Runs BFS from `root` using only the edges in `edges`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs_in(graph: &Graph, edges: &EdgeSet, root: NodeId) -> BfsTree {
    assert!(root < graph.n(), "root {root} out of range");
    let n = graph.n();
    let mut parent = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut dist = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    dist[root] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &(u, e) in graph.neighbors(v) {
            if edges.contains(e) && dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                parent[u] = Some(v);
                parent_edge[u] = Some(e);
                queue.push_back(u);
            }
        }
    }
    BfsTree {
        root,
        parent,
        parent_edge,
        dist,
        order,
    }
}

/// Hop distances from `root` restricted to `edges` (`usize::MAX` when
/// unreachable).
pub fn distances_in(graph: &Graph, edges: &EdgeSet, root: NodeId) -> Vec<usize> {
    bfs_in(graph, edges, root).dist
}

/// Exact (hop) diameter of the graph: the largest eccentricity over all
/// vertices.
///
/// Returns `None` if the graph is disconnected or has no vertices.
///
/// Computed by a word-parallel all-sources BFS (the multi-source BFS of
/// Then et al., PVLDB 8(4), 2014) rather than one BFS per vertex: each pass
/// searches from 256 sources at once, one bit per source, and sources that
/// reach a vertex at the same level share one visit of it. The value is
/// cached on the graph (reset by [`Graph::add_edge`]), so the solver's cost
/// model and the verifier's share one computation.
pub fn diameter(graph: &Graph) -> Option<usize> {
    graph.cached_diameter(all_sources_diameter)
}

/// Words of source bits per vertex in one pass of [`diameter`], which runs
/// `64 * WORDS` sources. Of 1, 2, 4 and 8, four was the fastest on the
/// service benchmark's shapes (EXPERIMENTS.md E19).
const WORDS: usize = 4;

/// A level that reaches fewer than `n / SPARSE` vertices is followed by a
/// push from a list of them rather than a pull into every vertex. On a
/// large-diameter graph the frontier is a thin band, and a pull would rescan
/// every vertex at each of its ~D levels. Of 4, 8, 16 and 32, four was the
/// fastest on the large-diameter E19 shapes (EXPERIMENTS.md E19).
const SPARSE: usize = 4;

/// One bit per source of a pass.
type Lanes = [u64; WORDS];

const NONE: Lanes = [0; WORDS];

/// The kernel behind [`diameter`].
///
/// Source `i` of a pass is vertex `first + i`. Per vertex the pass keeps the
/// sources that have reached it (`seen`) and those that reached it at the
/// last level (`frontier`). A level either pulls into every vertex not yet
/// reached by all sources the frontier bits of its neighbours, or, after a
/// level that reached few vertices, pushes the frontier bits of those
/// vertices into their neighbours; either way a vertex keeps the bits it
/// had not seen. The pass ends at the first level that reaches nothing new,
/// after as many levels as the largest eccentricity among its sources. The
/// buffers are reused across passes.
fn all_sources_diameter(graph: &Graph) -> Option<usize> {
    let n = graph.n();
    if n == 0 {
        return None;
    }
    let (offsets, entries) = graph.csr_arrays();
    let mut seen = vec![NONE; n];
    let mut frontier = vec![NONE; n];
    let mut next = vec![NONE; n];
    // Push levels only: the vertices with a non-empty frontier, and those
    // whose `next` word the push has written.
    let mut active = Vec::new();
    let mut touched = Vec::new();
    let mut diameter = 0;
    for first in (0..n).step_by(64 * WORDS) {
        let mut all = NONE;
        seen.fill(NONE);
        frontier.fill(NONE);
        for i in 0..(n - first).min(64 * WORDS) {
            let bit = 1u64 << (i % 64);
            all[i / 64] |= bit;
            seen[first + i][i / 64] = bit;
            frontier[first + i][i / 64] = bit;
        }
        let mut push = false;
        let mut levels = 0;
        loop {
            let reached = if push {
                for &v in &active {
                    for &(u, _) in &entries[offsets[v]..offsets[v + 1]] {
                        if next[u] == NONE {
                            touched.push(u);
                        }
                        or_into(&mut next[u], &frontier[v]);
                    }
                }
                for &v in &active {
                    frontier[v] = NONE;
                }
                active.clear();
                for &u in &touched {
                    let new = keep_unseen(&mut seen[u], std::mem::replace(&mut next[u], NONE));
                    if new != NONE {
                        frontier[u] = new;
                        active.push(u);
                    }
                }
                touched.clear();
                active.len()
            } else {
                let mut reached = 0;
                for (u, s) in seen.iter_mut().enumerate() {
                    let mut new = NONE;
                    if *s != all {
                        for &(v, _) in &entries[offsets[u]..offsets[u + 1]] {
                            or_into(&mut new, &frontier[v]);
                        }
                        new = keep_unseen(s, new);
                        reached += usize::from(new != NONE);
                    }
                    next[u] = new;
                }
                std::mem::swap(&mut frontier, &mut next);
                reached
            };
            if reached == 0 {
                break;
            }
            levels += 1;
            let sparse = reached * SPARSE < n;
            if sparse && !push {
                // After the swap `next` holds the previous frontier.
                next.fill(NONE);
                active.clear();
                active.extend((0..n).filter(|&u| frontier[u] != NONE));
            }
            push = sparse;
        }
        // Connectivity is all-or-nothing, so the first pass decides it.
        if first == 0 && seen.iter().any(|s| *s != all) {
            return None;
        }
        diameter = diameter.max(levels);
    }
    Some(diameter)
}

/// ORs `bits` into `into`, word by word.
#[inline]
fn or_into(into: &mut Lanes, bits: &Lanes) {
    for (x, b) in into.iter_mut().zip(bits) {
        *x |= b;
    }
}

/// Adds `reached` to `seen` and returns the bits that were not in it.
#[inline]
fn keep_unseen(seen: &mut Lanes, mut reached: Lanes) -> Lanes {
    for (r, s) in reached.iter_mut().zip(seen.iter_mut()) {
        *r &= !*s;
        *s |= *r;
    }
    reached
}

/// A 2-approximation of the diameter using two BFS passes (the second from a
/// farthest vertex of the first). Returns `None` when disconnected.
///
/// The returned value `d` satisfies `true_diameter / 2 <= d <= true_diameter`
/// for connected graphs; on trees it is exact.
pub fn approx_diameter(graph: &Graph) -> Option<usize> {
    if graph.n() == 0 {
        return None;
    }
    let first = bfs(graph, 0);
    if !first.is_spanning() {
        return None;
    }
    let far = first
        .dist
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v)
        .unwrap_or(0);
    let second = bfs(graph, far);
    Some(second.eccentricity())
}

/// The largest vertex count for which [`diameter_hint`] computes the exact
/// diameter; above it, the double-sweep 2-approximation is used.
pub const EXACT_DIAMETER_MAX_N: usize = 4096;

/// A diameter figure for round-*accounting* purposes: the cached exact
/// [`diameter`] up to [`EXACT_DIAMETER_MAX_N`] vertices — which covers every
/// test and benchmark instance — and the [`approx_diameter`] double sweep
/// beyond, where the `O(n · m / 64)` exact computation would dominate the
/// solve itself (charged CONGEST rounds stay within a factor 2 of the
/// exact-`D` charge). Deterministic for a given graph. Returns `None` when
/// disconnected.
pub fn diameter_hint(graph: &Graph) -> Option<usize> {
    if graph.n() <= EXACT_DIAMETER_MAX_N {
        diameter(graph)
    } else {
        approx_diameter(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = generators::path(5, 1);
        let t = bfs(&g, 0);
        assert_eq!(t.dist, vec![0, 1, 2, 3, 4]);
        assert!(t.is_spanning());
        assert_eq!(t.eccentricity(), 4);
        assert_eq!(t.order.len(), 5);
        assert_eq!(t.parent[0], None);
        assert_eq!(t.parent[3], Some(2));
    }

    #[test]
    fn bfs_respects_edge_mask() {
        let mut g = Graph::new(3);
        let a = g.add_edge(0, 1, 1);
        let _b = g.add_edge(1, 2, 1);
        let only_a = EdgeSet::from_ids(g.m(), [a]);
        let t = bfs_in(&g, &only_a, 0);
        assert_eq!(t.dist[1], 1);
        assert_eq!(t.dist[2], usize::MAX);
        assert!(!t.is_spanning());
    }

    #[test]
    fn tree_edges_form_spanning_tree_on_connected_graph() {
        let g = generators::cycle(6, 1);
        let t = bfs(&g, 0);
        let edges = t.tree_edges(&g);
        assert_eq!(edges.len(), 5);
    }

    #[test]
    fn diameter_of_cycle_and_path() {
        let c = generators::cycle(8, 1);
        assert_eq!(diameter(&c), Some(4));
        let p = generators::path(8, 1);
        assert_eq!(diameter(&p), Some(7));
        assert_eq!(approx_diameter(&p), Some(7));
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let g = Graph::new(3);
        assert_eq!(diameter(&g), None);
        assert_eq!(approx_diameter(&g), None);
    }

    #[test]
    fn diameter_counts_the_sources_at_word_and_pass_boundaries() {
        // A path a-p-hub-q-b with every other vertex a leaf of the hub: a
        // and b are the only vertices of eccentricity 4 (a leaf reaches
        // either end in 3 hops), so a pass that drops both ends' sources
        // reads 3.
        for n in [65usize, 257, 513] {
            let ends: Vec<usize> = [0, 63, 64, 255, 256, 511, 512, n - 1]
                .into_iter()
                .filter(|&v| v < n)
                .collect();
            for &a in &ends {
                for &b in ends.iter().filter(|&&b| b > a) {
                    let others: Vec<usize> = (0..n).filter(|&v| v != a && v != b).collect();
                    let (p, hub, q) = (others[0], others[1], others[2]);
                    let mut g =
                        Graph::from_edges(n, [(a, p, 1), (p, hub, 1), (hub, q, 1), (q, b, 1)]);
                    for &leaf in &others[3..] {
                        g.add_edge(hub, leaf, 1);
                    }
                    assert_eq!(diameter(&g), Some(4), "n = {n}, ends {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn approx_diameter_within_factor_two() {
        let g = generators::complete(9, 1);
        let exact = diameter(&g).unwrap();
        let approx = approx_diameter(&g).unwrap();
        assert!(approx <= exact);
        assert!(approx * 2 >= exact);
    }

    #[test]
    fn distances_in_matches_bfs() {
        let g = generators::cycle(5, 1);
        let d = distances_in(&g, &g.full_edge_set(), 2);
        assert_eq!(d[2], 0);
        assert_eq!(d[0], 2);
        assert_eq!(d[4], 2);
    }
}
