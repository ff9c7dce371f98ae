//! Exact branch-and-bound solvers for small instances.
//!
//! The paper's guarantees are stated against the (unknown) optimum; on small
//! instances the optimum can be computed outright, which the
//! approximation-ratio experiments (E2, E5, E6) use to report true ratios
//! instead of ratios against a lower bound.
//!
//! The search explores edges in descending weight order, branching on
//! "exclude" first (with a feasibility check on the remaining edges) and
//! pruning "include" branches by the best weight found so far. The
//! feasibility predicates are monotone (adding edges never breaks them), which
//! makes the exclude-first invariant sound.

use super::BaselineSolution;
use crate::verification;
use graphs::{connectivity, EdgeId, EdgeSet, Graph};

/// Maximum number of *free* (branchable) edges the exact solvers accept; above
/// this the search space is too large and `None` is returned.
pub const MAX_FREE_EDGES: usize = 26;

/// Exact minimum-weight k-edge-connected spanning subgraph.
///
/// Returns `None` if the graph is not k-edge-connected or has more than
/// [`MAX_FREE_EDGES`] edges.
pub fn min_k_ecss(graph: &Graph, k: usize) -> Option<BaselineSolution> {
    if !verification::is_k_edge_connected_in(graph, &graph.full_edge_set(), k) {
        return None;
    }
    let allowed: Vec<EdgeId> = graph.edge_ids().collect();
    minimum_feasible_subset(graph, &graph.empty_edge_set(), allowed, |edges| {
        verification::is_k_edge_connected_in(graph, edges, k)
    })
}

/// Exact minimum-weight tree augmentation: the cheapest set of non-tree edges
/// whose union with `tree_edges` is 2-edge-connected.
///
/// Returns `None` if the graph is not 2-edge-connected or has more than
/// [`MAX_FREE_EDGES`] non-tree edges.
pub fn min_tap(graph: &Graph, tree_edges: &EdgeSet) -> Option<BaselineSolution> {
    if !connectivity::is_two_edge_connected_in(graph, &graph.full_edge_set()) {
        return None;
    }
    let allowed: Vec<EdgeId> = graph
        .edge_ids()
        .filter(|id| !tree_edges.contains(*id))
        .collect();
    minimum_feasible_subset(graph, tree_edges, allowed, |edges| {
        connectivity::is_two_edge_connected_in(graph, edges)
    })
    .map(|sol| {
        // Report only the augmentation edges (exclude the fixed tree edges).
        let augmentation = sol.edges.difference(tree_edges);
        let weight = graph.weight_of(&augmentation);
        BaselineSolution {
            edges: augmentation,
            weight,
        }
    })
}

/// Exact minimum-weight augmentation of `h` to k-edge-connectivity.
///
/// Returns `None` if the whole graph is not k-edge-connected or there are more
/// than [`MAX_FREE_EDGES`] edges outside `h`.
pub fn min_augmentation(graph: &Graph, h: &EdgeSet, k: usize) -> Option<BaselineSolution> {
    if !verification::is_k_edge_connected_in(graph, &graph.full_edge_set(), k) {
        return None;
    }
    let allowed: Vec<EdgeId> = graph.edge_ids().filter(|id| !h.contains(*id)).collect();
    minimum_feasible_subset(graph, h, allowed, |edges| {
        verification::is_k_edge_connected_in(graph, edges, k)
    })
    .map(|sol| {
        let augmentation = sol.edges.difference(h);
        let weight = graph.weight_of(&augmentation);
        BaselineSolution {
            edges: augmentation,
            weight,
        }
    })
}

/// Branch-and-bound search for the minimum-weight subset `S` of `allowed`
/// such that `feasible(base ∪ S)` holds. The returned solution contains
/// `base ∪ S`. Returns `None` when `allowed` is too large or no feasible
/// subset exists.
fn minimum_feasible_subset<F>(
    graph: &Graph,
    base: &EdgeSet,
    mut allowed: Vec<EdgeId>,
    feasible: F,
) -> Option<BaselineSolution>
where
    F: Fn(&EdgeSet) -> bool,
{
    if allowed.len() > MAX_FREE_EDGES {
        return None;
    }
    // Everything included must be feasible, otherwise no subset is.
    let mut everything = base.clone();
    for &id in &allowed {
        everything.insert(id);
    }
    if !feasible(&everything) {
        return None;
    }
    // Branch on heavy edges first so the weight pruning bites early.
    allowed.sort_by_key(|&id| std::cmp::Reverse(graph.weight(id)));

    struct Search<'a, F> {
        graph: &'a Graph,
        allowed: &'a [EdgeId],
        feasible: F,
        best_weight: u64,
        best: Option<EdgeSet>,
    }

    impl<F: Fn(&EdgeSet) -> bool> Search<'_, F> {
        /// `current` = base ∪ included ∪ allowed[idx..]; invariant: feasible.
        fn explore(&mut self, current: &mut EdgeSet, idx: usize, included_weight: u64) {
            if included_weight >= self.best_weight {
                return;
            }
            if idx == self.allowed.len() {
                self.best_weight = included_weight;
                self.best = Some(current.clone());
                return;
            }
            let edge = self.allowed[idx];
            // Branch 1: exclude the edge, if the remainder stays feasible.
            current.remove(edge);
            if (self.feasible)(current) {
                self.explore(current, idx + 1, included_weight);
            }
            current.insert(edge);
            // Branch 2: include the edge.
            self.explore(current, idx + 1, included_weight + self.graph.weight(edge));
        }
    }

    let mut search = Search {
        graph,
        allowed: &allowed,
        feasible,
        best_weight: u64::MAX,
        best: None,
    };
    let mut current = everything;
    let total_allowed_weight: u64 = allowed.iter().map(|&id| graph.weight(id)).sum();
    // Seed the bound with "take everything" so the search always terminates
    // with a solution.
    search.best_weight = total_allowed_weight.saturating_add(1);
    search.explore(&mut current, 0, 0);

    search.best.map(|edges| {
        let weight = graph.weight_of(&edges.difference(base));
        BaselineSolution { edges, weight }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bounds;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn optimal_two_ecss_of_a_cycle_is_the_cycle() {
        let g = generators::cycle(6, 5);
        let sol = min_k_ecss(&g, 2).unwrap();
        assert_eq!(sol.weight, 30);
        assert_eq!(sol.edges.len(), 6);
    }

    #[test]
    fn optimal_drops_redundant_heavy_edges() {
        // A 4-cycle plus a heavy chord: the chord is never needed.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 2);
        g.add_edge(2, 3, 2);
        g.add_edge(3, 0, 2);
        let chord = g.add_edge(0, 2, 50);
        let sol = min_k_ecss(&g, 2).unwrap();
        assert!(!sol.edges.contains(chord));
        assert_eq!(sol.weight, 8);
    }

    #[test]
    fn optimum_respects_the_lower_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..5 {
            let g = generators::random_weighted_k_edge_connected(8, 2, 4, 20, &mut rng);
            if let Some(sol) = min_k_ecss(&g, 2) {
                let lb = lower_bounds::k_ecss_lower_bound(&g, 2);
                assert!(sol.weight >= lb);
                assert!(connectivity::is_k_edge_connected_in(&g, &sol.edges, 2));
            }
        }
    }

    #[test]
    fn exact_three_ecss_on_small_harary() {
        let g = generators::harary(3, 6, 1);
        let sol = min_k_ecss(&g, 3).unwrap();
        // H_{3,6} is itself a minimum 3-ECSS (9 edges).
        assert_eq!(sol.weight, 9);
    }

    #[test]
    fn min_tap_on_cycle_is_the_closing_edge() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(3, 4, 1);
        let closing = g.add_edge(4, 0, 9);
        let mut tree = g.full_edge_set();
        tree.remove(closing);
        let sol = min_tap(&g, &tree).unwrap();
        assert_eq!(sol.weight, 9);
        assert_eq!(sol.edges.to_vec(), vec![closing]);
    }

    #[test]
    fn min_tap_matches_brute_force_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..3 {
            let g = generators::random_weighted_k_edge_connected(8, 2, 6, 15, &mut rng);
            let tree = graphs::mst::kruskal(&g);
            let non_tree: Vec<EdgeId> = g.edge_ids().filter(|id| !tree.contains(*id)).collect();
            if non_tree.len() > 16 {
                continue;
            }
            let exact = min_tap(&g, &tree).unwrap();
            // Brute force over all subsets of non-tree edges.
            let mut best = u64::MAX;
            for mask in 0u32..(1 << non_tree.len()) {
                let mut set = tree.clone();
                let mut w = 0;
                for (i, &id) in non_tree.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        set.insert(id);
                        w += g.weight(id);
                    }
                }
                if connectivity::is_two_edge_connected_in(&g, &set) {
                    best = best.min(w);
                }
            }
            assert_eq!(exact.weight, best);
        }
    }

    #[test]
    fn min_augmentation_from_mst_to_two_connectivity() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::random_weighted_k_edge_connected(8, 2, 5, 10, &mut rng);
        let h = graphs::mst::kruskal(&g);
        let sol = min_augmentation(&g, &h, 2).unwrap();
        let union = h.union(&sol.edges);
        assert!(connectivity::is_k_edge_connected_in(&g, &union, 2));
    }

    #[test]
    fn oversized_instances_return_none() {
        let g = generators::complete(10, 1); // 45 edges > MAX_FREE_EDGES
        assert!(min_k_ecss(&g, 2).is_none());
    }

    #[test]
    fn infeasible_instances_return_none() {
        let g = generators::path(4, 1);
        assert!(min_k_ecss(&g, 2).is_none());
        assert!(min_tap(&g, &g.full_edge_set()).is_none());
    }
}
