//! The `O(D)`-round 2-approximation for *unweighted* 2-ECSS of
//! Censor-Hillel & Dory (\[1\] in the paper).
//!
//! Build a BFS tree `T`, then cover every tree edge: processing vertices
//! bottom-up, an uncovered tree edge `{v, p(v)}` is covered by adding the
//! non-tree edge incident to the subtree of `v` whose tree path climbs
//! highest. The output has at most `2(n-1)` edges, and any 2-ECSS has at
//! least `n` edges, so this is a 2-approximation for the unweighted problem.
//! Every step is a constant number of BFS-tree aggregations, i.e. `O(D)`
//! rounds, which is what the ledger charges.
//!
//! The unweighted 3-ECSS algorithm of Section 5 uses this construction for
//! its starting subgraph `H`.

use super::BaselineSolution;
use congest::{CostModel, RoundLedger};
use graphs::{bfs, EdgeSet, Graph, RootedTree};

/// The result of the `O(D)`-round unweighted 2-ECSS baseline.
#[derive(Clone, Debug)]
pub struct BfsTwoEcssSolution {
    /// The 2-edge-connected spanning subgraph (BFS tree plus covers).
    pub edges: EdgeSet,
    /// The BFS tree part.
    pub tree: EdgeSet,
    /// Number of edges in the subgraph (the unweighted objective).
    pub size: usize,
    /// CONGEST rounds charged.
    pub ledger: RoundLedger,
}

impl From<BfsTwoEcssSolution> for BaselineSolution {
    fn from(s: BfsTwoEcssSolution) -> Self {
        let weight = s.size as u64;
        BaselineSolution {
            edges: s.edges,
            weight,
        }
    }
}

/// Runs the `O(D)`-round unweighted 2-ECSS 2-approximation.
///
/// # Panics
///
/// Panics if the graph is not 2-edge-connected (some tree edge cannot be
/// covered).
pub fn solve(graph: &Graph) -> BfsTwoEcssSolution {
    solve_with_model(graph, crate::inferred_model(graph))
}

/// Same as [`solve`] with an explicit cost model.
///
/// # Panics
///
/// Panics if the graph is not 2-edge-connected.
pub fn solve_with_model(graph: &Graph, model: CostModel) -> BfsTwoEcssSolution {
    let mut ledger = RoundLedger::new(model);
    let bfs_tree = bfs::bfs(graph, 0);
    assert!(bfs_tree.is_spanning(), "the input graph must be connected");
    let tree_edges = bfs_tree.tree_edges(graph);
    let tree = RootedTree::new(graph, &tree_edges, 0);
    ledger.charge("bfs2ecss/bfs_tree", model.bfs_construction());

    // For every vertex v, the non-tree edge incident to subtree(v) whose tree
    // path climbs highest (minimum LCA depth), computed bottom-up.
    let n = graph.n();
    let mut best: Vec<Option<(usize, graphs::EdgeId)>> = vec![None; n]; // (lca depth, edge)
    let mut incident: Vec<Vec<(usize, graphs::EdgeId)>> = vec![Vec::new(); n];
    for (id, e) in graph.edges() {
        if tree_edges.contains(id) {
            continue;
        }
        let lca_depth = tree.depth(tree.lca(e.u, e.v));
        incident[e.u].push((lca_depth, id));
        incident[e.v].push((lca_depth, id));
    }
    for &v in tree.bfs_order().iter().rev() {
        for &(d, id) in &incident[v] {
            if best[v].is_none_or(|(bd, bid)| (d, id) < (bd, bid)) {
                best[v] = Some((d, id));
            }
        }
        if let Some(p) = tree.parent(v) {
            if let Some(candidate) = best[v] {
                if best[p].is_none_or(|b| candidate < b) {
                    best[p] = Some(candidate);
                }
            }
        }
    }
    ledger.charge("bfs2ecss/aggregate", model.bfs_construction());

    // Cover tree edges bottom-up.
    let mut covered = vec![false; n];
    let mut chosen = graph.empty_edge_set();
    for &v in tree.bfs_order().iter().rev() {
        if v == tree.root() || covered[v] {
            continue;
        }
        let (lca_depth, id) =
            best[v].expect("2-edge-connected graph: every subtree has an escaping non-tree edge");
        assert!(
            lca_depth < tree.depth(v),
            "the best escaping edge must cover the uncovered tree edge"
        );
        chosen.insert(id);
        let e = graph.edge(id);
        for child in tree.path_edge_children(e.u, e.v) {
            covered[child] = true;
        }
    }
    ledger.charge("bfs2ecss/cover", model.bfs_construction());

    let edges = tree_edges.union(&chosen);
    let size = edges.len();
    BfsTwoEcssSolution {
        edges,
        tree: tree_edges,
        size,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{connectivity, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn output_is_two_edge_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [8, 20, 60] {
            let g = generators::random_k_edge_connected(n, 2, 2 * n, &mut rng);
            let sol = solve(&g);
            assert!(
                connectivity::is_two_edge_connected_in(&g, &sol.edges),
                "n = {n}"
            );
            assert_eq!(sol.size, sol.edges.len());
        }
    }

    #[test]
    fn size_is_at_most_twice_optimal() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in [10usize, 30, 50] {
            let g = generators::random_k_edge_connected(n, 2, 3 * n, &mut rng);
            let sol = solve(&g);
            // OPT >= n for 2-ECSS; the output must be <= 2 (n - 1).
            assert!(sol.size <= 2 * (n - 1), "n = {n}: size {}", sol.size);
        }
    }

    #[test]
    fn cycle_returns_exactly_the_cycle() {
        let g = generators::cycle(10, 1);
        let sol = solve(&g);
        assert_eq!(sol.size, 10);
    }

    #[test]
    fn rounds_are_a_constant_number_of_bfs_sweeps() {
        let g = generators::torus(5, 5, 1);
        let sol = solve(&g);
        let d = graphs::bfs::diameter(&g).unwrap() as u64;
        assert!(sol.ledger.total() <= 6 * (d + 1));
    }

    #[test]
    #[should_panic(expected = "every subtree has an escaping non-tree edge")]
    fn panics_on_graphs_with_bridges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 1);
        g.add_edge(2, 3, 1); // bridge
        solve(&g);
    }
}
