//! Connectivity queries: components, bridges, exact edge connectivity and
//! k-edge-connectivity certification.
//!
//! These are the *verifiers* for every algorithm in the workspace: the
//! distributed approximation algorithms produce an edge set `H`, and the tests
//! certify `H` with [`is_k_edge_connected_in`] (exact, max-flow based) before
//! any approximation ratio is measured. At `k >= 3` that is the prefix sweep
//! of [`maxflow::PrefixSweep`]: one capped flow from each vertex to the
//! vertices before it in BFS order.

use crate::dsu::DisjointSets;
use crate::graph::{EdgeId, EdgeSet, Graph, NodeId};
use crate::maxflow;

/// Connected-component labels (`labels[v]` is the representative of `v`'s
/// component) and the number of components, restricted to `edges`.
pub fn connected_components_in(graph: &Graph, edges: &EdgeSet) -> (Vec<usize>, usize) {
    let mut dsu = DisjointSets::new(graph.n());
    for id in edges.iter() {
        let e = graph.edge(id);
        dsu.union(e.u, e.v);
    }
    let count = dsu.component_count();
    (dsu.labels(), count)
}

/// Whether the subgraph `(V, edges)` is connected. Graphs with zero or one
/// vertex are connected.
pub fn is_connected_in(graph: &Graph, edges: &EdgeSet) -> bool {
    if graph.n() <= 1 {
        return true;
    }
    let (_, count) = connected_components_in(graph, edges);
    count == 1
}

/// Whether the whole graph is connected.
pub fn is_connected(graph: &Graph) -> bool {
    is_connected_in(graph, &graph.full_edge_set())
}

/// Whether `(V, edges \ removed)` is connected — i.e. whether `removed` fails
/// to be a cut of the subgraph.
///
/// This is the exact removal test at the heart of cut-candidate verification,
/// so it runs word-wise over the packed [`EdgeSet`]: the removed ids (a
/// handful — cut-sized) are folded into per-word clear-masks up front, each
/// word of the set is scanned with trailing-zeros extraction, and the scan
/// stops as soon as the union-find reaches one component.
pub fn is_connected_after_removal(graph: &Graph, edges: &EdgeSet, removed: &[EdgeId]) -> bool {
    let mut dsu = DisjointSets::new(graph.n());
    // Per-word masks of the removed bits ("remove" = AND with the negation).
    // `removed` has cut size (k-ish) entries, so a tiny sorted vector beats
    // any map — and beats the old `removed.contains(&id)` probe per set edge.
    let mut clear: Vec<(usize, u64)> = Vec::with_capacity(removed.len());
    for id in removed {
        let word = id.0 >> 6;
        let bit = 1u64 << (id.0 & 63);
        match clear.iter_mut().find(|(w, _)| *w == word) {
            Some((_, mask)) => *mask |= bit,
            None => clear.push((word, bit)),
        }
    }
    for (wi, &w) in edges.words().iter().enumerate() {
        let mut w = w;
        if w == 0 {
            continue;
        }
        if let Some(&(_, mask)) = clear.iter().find(|(cw, _)| *cw == wi) {
            w &= !mask;
        }
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            let e = graph.edge(EdgeId((wi << 6) | bit));
            if dsu.union(e.u, e.v) && dsu.component_count() == 1 {
                return true;
            }
        }
    }
    dsu.component_count() == 1
}

/// All bridges (cut edges) of the subgraph `(V, edges)`, via Tarjan's
/// low-link algorithm. A bridge is exactly a cut of size 1.
///
/// Parallel edges are handled correctly: two parallel edges are never bridges.
pub fn bridges_in(graph: &Graph, edges: &EdgeSet) -> Vec<EdgeId> {
    let n = graph.n();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut bridges = Vec::new();
    let mut timer = 0usize;

    // Iterative DFS to avoid recursion limits on path-like graphs.
    #[derive(Clone, Copy)]
    struct Frame {
        v: NodeId,
        parent_edge: Option<EdgeId>,
        next_idx: usize,
    }

    for start in 0..n {
        if disc[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![Frame {
            v: start,
            parent_edge: None,
            next_idx: 0,
        }];
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        while let Some(frame) = stack.last().copied() {
            let v = frame.v;
            if frame.next_idx < graph.neighbors(v).len() {
                stack.last_mut().expect("stack non-empty").next_idx += 1;
                let (u, e) = graph.neighbors(v)[frame.next_idx];
                if !edges.contains(e) || Some(e) == frame.parent_edge {
                    continue;
                }
                if disc[u] == usize::MAX {
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    stack.push(Frame {
                        v: u,
                        parent_edge: Some(e),
                        next_idx: 0,
                    });
                } else {
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(parent_frame) = stack.last() {
                    let p = parent_frame.v;
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        bridges.push(frame.parent_edge.expect("non-root frame has a parent edge"));
                    }
                }
            }
        }
    }
    bridges
}

/// All bridges of the whole graph.
pub fn bridges(graph: &Graph) -> Vec<EdgeId> {
    bridges_in(graph, &graph.full_edge_set())
}

/// Whether the subgraph `(V, edges)` is 2-edge-connected: connected, at least
/// two vertices, and bridgeless.
pub fn is_two_edge_connected_in(graph: &Graph, edges: &EdgeSet) -> bool {
    graph.n() >= 2 && spans_without_bridges(graph, edges)
}

/// [`is_two_edge_connected_in`] as first written, a union-find pass and then
/// [`bridges_in`] over every component: the oracle for the one DFS.
#[cfg(test)]
fn is_two_edge_connected_in_composed(graph: &Graph, edges: &EdgeSet) -> bool {
    graph.n() >= 2 && is_connected_in(graph, edges) && bridges_in(graph, edges).is_empty()
}

/// Whether one DFS of `(V, edges)` from vertex 0 reaches every vertex and
/// meets no bridge: Tarjan's low-link test of [`bridges_in`], stopped at the
/// first bridge, with the vertex count standing in for a connectivity pass.
/// `graph` has at least one vertex.
fn spans_without_bridges(graph: &Graph, edges: &EdgeSet) -> bool {
    /// The parent edge of the root.
    const ROOT: usize = usize::MAX;
    let n = graph.n();
    let (offsets, entries) = graph.csr_arrays();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    // Frames: vertex, the id of the edge it was reached by, and its next
    // CSR entry.
    let mut stack = vec![(0, ROOT, offsets[0])];
    disc[0] = 0;
    low[0] = 0;
    let mut reached = 1;
    while let Some(frame) = stack.last_mut() {
        let (v, parent_edge, next) = *frame;
        if next < offsets[v + 1] {
            frame.2 += 1;
            let (u, e) = entries[next];
            if e.0 == parent_edge || !edges.contains(e) {
                continue;
            }
            if disc[u] == usize::MAX {
                disc[u] = reached;
                low[u] = reached;
                reached += 1;
                stack.push((u, e.0, offsets[u]));
            } else {
                low[v] = low[v].min(disc[u]);
            }
        } else {
            stack.pop();
            if let Some(&(p, _, _)) = stack.last() {
                if low[v] > disc[p] {
                    return false;
                }
                low[p] = low[p].min(low[v]);
            }
        }
    }
    reached == n
}

/// Exact edge connectivity `λ` of the subgraph `(V, edges)`.
///
/// Returns 0 for disconnected (or single-vertex) subgraphs. Computed by the
/// prefix sweep ([`maxflow::PrefixSweep`]): `λ` is the least flow from a
/// vertex `v` to the set `P(v)` of the vertices before it in BFS order, and
/// each flow is capped at the least so far. By the argument of
/// [`is_k_edge_connected_in`], every such flow is at least `λ`, and the flow
/// from the first vertex, in BFS order, of the side of a minimum cut away
/// from vertex 0 is at most `λ`.
pub fn edge_connectivity_in(graph: &Graph, edges: &EdgeSet) -> usize {
    if graph.n() <= 1 {
        return 0;
    }
    let Some(mut sweep) = maxflow::PrefixSweep::new(graph, edges) else {
        return 0;
    };
    (1..graph.n()).fold(u32::MAX, |least, i| sweep.flow(i, least)) as usize
}

/// [`edge_connectivity_in`] as first written, `min_{t != 0} maxflow(0, t)`:
/// the oracle for the prefix sweep's `λ`.
#[cfg(test)]
fn edge_connectivity_in_star(graph: &Graph, edges: &EdgeSet) -> usize {
    if graph.n() <= 1 || !is_connected_in(graph, edges) {
        return 0;
    }
    let mut flow = maxflow::UnitFlow::new(graph, edges);
    let mut best = u32::MAX;
    for t in 1..graph.n() {
        best = best.min(flow.max_flow_capped(0, t, best));
    }
    best as usize
}

/// Exact edge connectivity of the whole graph.
pub fn edge_connectivity(graph: &Graph) -> usize {
    edge_connectivity_in(graph, &graph.full_edge_set())
}

/// Whether the subgraph `(V, edges)` is k-edge-connected, with early exit as
/// soon as a cut smaller than `k` is certain.
///
/// `k == 0` is trivially true; `k == 1` reduces to connectivity.
///
/// For `k >= 3` this is the prefix sweep ([`maxflow::PrefixSweep`]): in a
/// BFS order of the subgraph from vertex 0, one flow from each vertex `v` to
/// the set `P(v)` of the vertices before it, capped at `k`. The subgraph is
/// k-edge-connected exactly when every such flow reaches `k`:
///
/// * if its edge connectivity `λ` is at least `k`, every cut separating `v`
///   from `P(v)` separates `v` from some vertex of `P(v)`, so the flow is at
///   least `λ >= k`;
/// * if `λ < k`, take a minimum cut `δ(S)` with vertex 0 outside `S`, and
///   let `v` be the first vertex of `S` in BFS order. Then `P(v)` lies
///   outside `S`, so the flow from `v` is at most `|δ(S)| < k`.
///
/// Each augmenting search ends at the first earlier vertex it reaches, and
/// the BFS parent of `v` is one, so the paths stay short on sparse graphs
/// too.
pub fn is_k_edge_connected_in(graph: &Graph, edges: &EdgeSet, k: usize) -> bool {
    if k == 0 {
        return true;
    }
    if graph.n() <= 1 {
        // A single vertex is k-edge-connected for every k by convention here;
        // the paper's instances always have n >= 2.
        return true;
    }
    if k == 1 {
        return is_connected_in(graph, edges);
    }
    if k == 2 {
        // Linear-time special case at k = 2: 2-edge-connected = connected +
        // bridgeless, one DFS, instead of n - 1 capped max-flows. This is
        // what makes `kecss verify --k 2` feasible on 10⁶-edge instances.
        return spans_without_bridges(graph, edges);
    }
    // The flows count in `u32`. A k past it exceeds the edge count of any
    // graph that fits in memory, so no cut is that large.
    let Ok(k) = u32::try_from(k) else {
        return false;
    };
    // The BFS decides connectivity and orders the flows.
    let Some(mut sweep) = maxflow::PrefixSweep::new(graph, edges) else {
        return false;
    };
    (1..graph.n()).all(|i| sweep.flow(i, k) >= k)
}

/// [`is_k_edge_connected_in`]'s sweep as first written, one capped flow from
/// vertex 0 to every other vertex: the oracle for the prefix sweep.
#[cfg(test)]
fn is_k_edge_connected_in_star(graph: &Graph, edges: &EdgeSet, k: usize) -> bool {
    if k == 0 || graph.n() <= 1 {
        return true;
    }
    let Ok(k) = u32::try_from(k) else {
        return false;
    };
    if !is_connected_in(graph, edges) {
        return false;
    }
    let mut flow = maxflow::UnitFlow::new(graph, edges);
    (1..graph.n()).all(|t| flow.max_flow_capped(0, t, k) >= k)
}

/// Whether the whole graph is k-edge-connected.
pub fn is_k_edge_connected(graph: &Graph, k: usize) -> bool {
    is_k_edge_connected_in(graph, &graph.full_edge_set(), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs, generators};

    #[test]
    fn components_of_disconnected_graph() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        let (labels, count) = connected_components_in(&g, &g.full_edge_set());
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
    }

    #[test]
    fn path_edges_are_all_bridges() {
        let g = generators::path(6, 1);
        let b = bridges(&g);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = generators::cycle(7, 1);
        assert!(bridges(&g).is_empty());
        assert!(is_two_edge_connected_in(&g, &g.full_edge_set()));
    }

    #[test]
    fn bridge_in_barbell_graph() {
        // Two triangles joined by a single edge: that edge is the only bridge.
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 1);
        g.add_edge(3, 4, 1);
        g.add_edge(4, 5, 1);
        g.add_edge(5, 3, 1);
        let bridge = g.add_edge(2, 3, 1);
        let b = bridges(&g);
        assert_eq!(b, vec![bridge]);
        assert!(!is_two_edge_connected_in(&g, &g.full_edge_set()));
    }

    #[test]
    fn parallel_edges_are_not_bridges() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 1);
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn bridges_respect_edge_mask() {
        let g = generators::cycle(4, 1);
        let mut mask = g.full_edge_set();
        // Remove one cycle edge: the rest becomes a path, all bridges.
        mask.remove(EdgeId(0));
        assert_eq!(bridges_in(&g, &mask).len(), 3);
    }

    #[test]
    fn edge_connectivity_of_standard_graphs() {
        assert_eq!(edge_connectivity(&generators::path(5, 1)), 1);
        assert_eq!(edge_connectivity(&generators::cycle(5, 1)), 2);
        assert_eq!(edge_connectivity(&generators::complete(5, 1)), 4);
        assert_eq!(edge_connectivity(&generators::harary(4, 10, 1)), 4);
        assert_eq!(edge_connectivity(&Graph::new(3)), 0);
    }

    #[test]
    fn k_edge_connected_certification() {
        let g = generators::harary(3, 8, 1);
        for k in 0..=3 {
            assert!(is_k_edge_connected(&g, k), "should be {k}-edge-connected");
        }
        assert!(!is_k_edge_connected(&g, 4));
    }

    #[test]
    fn a_k_past_u32_is_not_certified() {
        // 2^32 + 2 truncates to 2 in 32 bits, which the triangle meets.
        let triangle = generators::cycle(3, 1);
        let edges = triangle.full_edge_set();
        let k = (1usize << 32) + 2;
        assert!(!is_k_edge_connected_in(&triangle, &edges, k));
        assert!(!is_k_edge_connected_in_star(&triangle, &edges, k));
        assert!(is_k_edge_connected_in(&triangle, &edges, 2));
        assert!(is_k_edge_connected_in_star(&triangle, &edges, 2));
    }

    #[test]
    fn a_weak_vertex_last_in_bfs_order_is_caught() {
        // K5 plus vertex 5 hanging off 3 and 4: vertex 5 is the last vertex
        // of the BFS from 0, and its two edges are the only cut below 3.
        let k5 = (0..5).flat_map(|u| (u + 1..5).map(move |v| (u, v, 1)));
        let g = Graph::from_edges(6, k5.chain([(3, 5, 1), (4, 5, 1)]));
        assert_eq!(bfs::bfs(&g, 0).order.last(), Some(&5));
        assert!(is_k_edge_connected(&g, 2));
        assert!(!is_k_edge_connected(&g, 3));
        assert_eq!(edge_connectivity(&g), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 96,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// The tree-ordered sweep agrees with the sweep from vertex 0 on
        /// random multigraphs and random edge subsets of them.
        #[test]
        fn tree_sweep_matches_the_star_sweep(
            n in 1usize..14,
            m in 0usize..70,
            keep in 50u32..101,
            seed in 0u64..1_000_000,
        ) {
            let (g, edges) = if n == 1 {
                (Graph::new(1), EdgeSet::new(0))
            } else {
                crate::maxflow::tests::random_masked(n, m, keep, seed)
            };
            for k in 0..=6 {
                proptest::prop_assert_eq!(
                    is_k_edge_connected_in(&g, &edges, k),
                    is_k_edge_connected_in_star(&g, &edges, k),
                    "k = {}", k
                );
            }
        }

        /// The one DFS decides 2-edge-connectivity as the union-find pass
        /// plus the bridge search did, on random multigraphs (sparse ones
        /// have bridges and disconnected parts) and random edge subsets.
        #[test]
        fn one_dfs_matches_the_composed_two_edge_connectivity_check(
            n in 1usize..16,
            m in 0usize..48,
            keep in 50u32..101,
            seed in 0u64..1_000_000,
        ) {
            let (g, edges) = if n == 1 {
                (Graph::new(1), EdgeSet::new(0))
            } else {
                crate::maxflow::tests::random_masked(n, m, keep, seed)
            };
            let composed = is_two_edge_connected_in_composed(&g, &edges);
            proptest::prop_assert_eq!(is_two_edge_connected_in(&g, &edges), composed);
            if n >= 2 {
                proptest::prop_assert_eq!(is_k_edge_connected_in(&g, &edges, 2), composed);
            }
        }

        /// The sweep's `λ` is the least flow from vertex 0 to each other
        /// vertex, on random multigraphs and random edge subsets of them.
        #[test]
        fn the_sweeps_connectivity_matches_the_star_sweep(
            n in 1usize..14,
            m in 0usize..70,
            keep in 50u32..101,
            seed in 0u64..1_000_000,
        ) {
            let (g, edges) = if n == 1 {
                (Graph::new(1), EdgeSet::new(0))
            } else {
                crate::maxflow::tests::random_masked(n, m, keep, seed)
            };
            proptest::prop_assert_eq!(
                edge_connectivity_in(&g, &edges),
                edge_connectivity_in_star(&g, &edges)
            );
        }
    }

    #[test]
    fn removal_check_detects_cuts() {
        let g = generators::cycle(5, 1);
        let all = g.full_edge_set();
        assert!(is_connected_after_removal(&g, &all, &[EdgeId(0)]));
        assert!(!is_connected_after_removal(
            &g,
            &all,
            &[EdgeId(0), EdgeId(2)]
        ));
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let g = generators::path(20_000, 1);
        assert_eq!(bridges(&g).len(), 19_999);
    }
}
