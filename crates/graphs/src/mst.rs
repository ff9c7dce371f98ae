//! Minimum spanning trees and forests.
//!
//! The 2-ECSS algorithm of Theorem 1.1 and the first level of k-ECSS build an
//! MST with [`kruskal_in`], which breaks ties deterministically by edge id so
//! results are reproducible. The Aug_k algorithm of Section 4 charges an MST
//! of a reweighted graph in every iteration (weight 0 for edges already in
//! the augmentation, 1 for active candidates, 2 otherwise), but only needs
//! which active candidates it contains; it answers that with one union–find
//! forest of the augmentation, grown in place (`kecss::augk`).

use crate::dsu::DisjointSets;
use crate::graph::{EdgeId, EdgeSet, Graph, Weight};

/// A minimum spanning forest of the whole graph (Kruskal).
///
/// Returns the forest as an [`EdgeSet`]; if the graph is connected it is a
/// spanning tree with `n - 1` edges.
pub fn kruskal(graph: &Graph) -> EdgeSet {
    kruskal_in(graph, &graph.full_edge_set())
}

/// A minimum spanning forest of the subgraph `(V, edges)` (Kruskal).
///
/// Ties are broken by edge id, so the result is deterministic and, when all
/// weights are distinct, the unique MST.
pub fn kruskal_in(graph: &Graph, edges: &EdgeSet) -> EdgeSet {
    let mut ids: Vec<EdgeId> = edges.iter().collect();
    ids.sort_by_key(|&id| (graph.weight(id), id));
    let mut dsu = DisjointSets::new(graph.n());
    let mut forest = graph.empty_edge_set();
    for id in ids {
        let e = graph.edge(id);
        if dsu.union(e.u, e.v) {
            forest.insert(id);
        }
    }
    forest
}

/// A maximal spanning forest (ignoring weights) of the subgraph `(V, edges)`.
///
/// This is the building block of Thurimella's sparse-certificate baseline
/// (\[36\] in the paper): repeatedly extract maximal spanning forests and remove
/// them from the graph.
pub fn maximal_spanning_forest_in(graph: &Graph, edges: &EdgeSet) -> EdgeSet {
    let mut dsu = DisjointSets::new(graph.n());
    let mut forest = graph.empty_edge_set();
    for id in edges.iter() {
        let e = graph.edge(id);
        if dsu.union(e.u, e.v) {
            forest.insert(id);
        }
    }
    forest
}

/// Total weight of a spanning forest returned by the functions in this module.
pub fn forest_weight(graph: &Graph, forest: &EdgeSet) -> Weight {
    graph.weight_of(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mst_of_cycle_drops_heaviest_edge() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(2, 3, 3);
        let heavy = g.add_edge(3, 0, 10);
        let t = kruskal(&g);
        assert_eq!(t.len(), 3);
        assert!(!t.contains(heavy));
        assert_eq!(forest_weight(&g, &t), 6);
    }

    #[test]
    fn mst_spans_connected_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let g = generators::random_weighted_k_edge_connected(30, 2, 40, 100, &mut rng);
        let t = kruskal(&g);
        assert_eq!(t.len(), g.n() - 1);
        assert!(connectivity::is_connected_in(&g, &t));
    }

    #[test]
    fn mst_on_disconnected_graph_is_a_forest() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        let t = kruskal(&g);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mst_weight_is_minimal_versus_brute_force() {
        // Exhaustively check on a small graph: enumerate all spanning trees.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 4);
        g.add_edge(1, 2, 7);
        g.add_edge(2, 3, 2);
        g.add_edge(3, 0, 5);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 3, 9);
        let t = kruskal(&g);
        let w = forest_weight(&g, &t);
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        let mut best = u64::MAX;
        for mask in 0u32..(1 << ids.len()) {
            if mask.count_ones() as usize != g.n() - 1 {
                continue;
            }
            let set: EdgeSet = EdgeSet::from_ids(
                g.m(),
                ids.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &id)| id),
            );
            if connectivity::is_connected_in(&g, &set) {
                best = best.min(g.weight_of(&set));
            }
        }
        assert_eq!(w, best);
    }

    #[test]
    fn maximal_forest_spans_each_component() {
        let g = generators::complete(6, 1);
        let f = maximal_spanning_forest_in(&g, &g.full_edge_set());
        assert_eq!(f.len(), 5);
        assert!(connectivity::is_connected_in(&g, &f));
    }

    #[test]
    fn mst_is_deterministic_under_ties() {
        let g = generators::complete(5, 7);
        let a = kruskal(&g);
        let b = kruskal(&g);
        assert_eq!(a, b);
    }
}
