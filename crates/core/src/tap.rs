//! Weighted tree augmentation (TAP) — Section 3 of the paper, Theorem 3.12.
//!
//! Given a spanning tree `T` of a weighted graph `G`, the weighted tree
//! augmentation problem asks for a minimum-weight set of non-tree edges `A`
//! such that `T ∪ A` is 2-edge-connected — equivalently, such that every tree
//! edge is *covered* by some edge of `A` (a non-tree edge `e = {u, v}` covers
//! exactly the tree edges on the tree path `P_{u,v}`).
//!
//! The algorithm follows the candidate/voting framework of Section 2.1:
//!
//! 1. every non-tree edge computes its rounded cost-effectiveness
//!    `ρ̃(e)` = (uncovered tree edges on `P_e`) / `w(e)` rounded up to a power
//!    of two;
//! 2. the edges in the maximum class are *candidates* and draw random ranks;
//! 3. every still-uncovered tree edge votes for the first candidate covering
//!    it (by rank, then edge id);
//! 4. a candidate receiving at least `|C_e| / 8` votes joins the augmentation;
//! 5. repeat until every tree edge is covered.
//!
//! This yields a *guaranteed* `O(log n)` approximation (Lemma 3.7) within
//! `O(log² n)` iterations w.h.p. (Lemma 3.11). Each iteration costs
//! `O(D + √n)` CONGEST rounds using the segment decomposition of Section 3.2;
//! the per-iteration cost is charged to the returned ledger via
//! [`iteration_rounds`].

use crate::cover::Rounded;
use crate::decomposition::Decomposition;
use crate::error::{Error, Result};
use congest::{CostModel, RoundLedger};
use graphs::{connectivity, EdgeId, EdgeSet, Graph, NodeId, RootedTree};
use rand::Rng;

/// The result of a weighted TAP run.
#[derive(Clone, Debug)]
pub struct TapSolution {
    /// The augmentation `A`: non-tree edges added so that `T ∪ A` is
    /// 2-edge-connected.
    pub augmentation: EdgeSet,
    /// Total weight of the augmentation.
    pub weight: u64,
    /// Number of candidate/voting iterations executed.
    pub iterations: u64,
    /// CONGEST rounds charged, broken down by phase.
    pub ledger: RoundLedger,
}

/// Safety cap on iterations; the algorithm terminates in `O(log² n)`
/// iterations w.h.p., so hitting this cap indicates a bug rather than bad
/// luck.
const ITERATION_SAFETY_CAP: u64 = 100_000;

/// Solves weighted TAP for the spanning tree `tree_edges` of `graph`,
/// inferring the cost model (diameter) from the graph.
///
/// # Errors
///
/// Returns [`Error::InvalidSubgraph`] if `tree_edges` is not a spanning tree
/// of `graph`, and [`Error::InsufficientConnectivity`] if `graph` is not
/// 2-edge-connected (some tree edge could never be covered).
pub fn solve<R: Rng>(graph: &Graph, tree_edges: &EdgeSet, rng: &mut R) -> Result<TapSolution> {
    let diameter = graphs::bfs::diameter(graph).unwrap_or(graph.n());
    let model = CostModel::new(graph.n(), diameter);
    solve_with_model(graph, tree_edges, model, rng)
}

/// Solves weighted TAP with an explicit CONGEST cost model.
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn solve_with_model<R: Rng>(
    graph: &Graph,
    tree_edges: &EdgeSet,
    model: CostModel,
    rng: &mut R,
) -> Result<TapSolution> {
    validate(graph, tree_edges)?;
    solve_proven(graph, tree_edges, model, rng)
}

/// [`solve_with_model`] for a caller that has already proved what
/// `validate` checks: `graph` 2-edge-connected (so `n >= 2`) and
/// `tree_edges` a spanning tree of it. The 2- and 3-ECSS drivers have:
/// their precheck proves the first, and a minimum spanning tree of a
/// connected graph is the second.
///
/// # Errors
///
/// Same conditions as [`solve_with_model`], less the input checks.
pub(crate) fn solve_proven<R: Rng>(
    graph: &Graph,
    tree_edges: &EdgeSet,
    model: CostModel,
    rng: &mut R,
) -> Result<TapSolution> {
    let root = 0;
    let tree = RootedTree::new(graph, tree_edges, root);
    let decomposition = Decomposition::build(graph, &tree);
    let seg_count = decomposition.num_segments() as u64;
    let seg_diam = decomposition.max_segment_diameter(graph, &tree) as u64;

    let mut ledger = RoundLedger::new(model);
    // Building the segments and learning the skeleton tree (Claims 3.1, 3.2).
    ledger.charge(
        "tap/decomposition",
        model.bfs_construction() + model.broadcast(seg_count) + 2 * model.segment_scan(seg_diam),
    );

    let mut state = CoverState::new(graph);

    // Non-tree edges, the potential augmentation candidates.
    let non_tree: Vec<NonTreeEdge> = graph
        .edges()
        .filter(|(id, _)| !tree_edges.contains(*id))
        .map(|(id, e)| NonTreeEdge {
            id,
            u: e.u,
            v: e.v,
            weight: e.weight,
            lca: tree.lca(e.u, e.v),
        })
        .collect();

    let mut augmentation = graph.empty_edge_set();

    // Weight-zero edges are added up front (Section 3: "at the beginning of
    // the algorithm we add to A all the edges with weight 0").
    for e in &non_tree {
        if e.weight == 0 {
            augmentation.insert(e.id);
            state.cover_path(&tree, e.u, e.v);
        }
    }
    ledger.charge(
        "tap/zero_weight_setup",
        iteration_rounds(&model, seg_count, seg_diam),
    );

    let mut iterations = 0u64;
    while state.uncovered > 0 {
        assert!(
            iterations < ITERATION_SAFETY_CAP,
            "TAP exceeded the iteration safety cap; this indicates a bug"
        );
        iterations += 1;
        ledger.charge(
            "tap/iterations",
            iteration_rounds(&model, seg_count, seg_diam),
        );

        // Line 1-2: rounded cost-effectiveness and the candidate set.
        let prefix = state.uncovered_prefix(&tree);
        let mut best_class: Option<Rounded> = None;
        let mut coverage = vec![0usize; non_tree.len()];
        for (i, e) in non_tree.iter().enumerate() {
            if augmentation.contains(e.id) {
                continue;
            }
            let covered = prefix[e.u] + prefix[e.v] - 2 * prefix[e.lca];
            coverage[i] = covered;
            if let Some(class) = Rounded::of(covered, e.weight) {
                best_class = Some(best_class.map_or(class, |b| b.max(class)));
            }
        }
        let Some(target_class) = best_class else {
            // No remaining edge covers anything, yet some tree edge is
            // uncovered: the input could not have been 2-edge-connected.
            return Err(Error::InsufficientConnectivity {
                required: 2,
                actual: 1,
            });
        };

        // Line 3: candidates draw random ranks (the paper draws from
        // {1..n^8}; 64 random bits dominate that range for all practical n).
        let mut candidates: Vec<Candidate> = non_tree
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                !augmentation.contains(e.id)
                    && Rounded::of(coverage[*i], e.weight) == Some(target_class)
            })
            .map(|(i, e)| Candidate {
                index: i,
                rank: rng.gen::<u64>(),
                id: e.id,
            })
            .collect();
        candidates.sort_by_key(|c| (c.rank, c.id));

        // Line 4: every uncovered tree edge votes for the first candidate
        // covering it. Implemented with a path-skipping union-find so each
        // tree edge is assigned at most once per iteration.
        let votes = state.tally_votes(&tree, &non_tree, &candidates);

        // Line 5: candidates with at least |C_e| / 8 votes join A.
        let mut added = Vec::new();
        for (c, &v) in candidates.iter().zip(votes.iter()) {
            if 8 * v >= coverage[c.index] && coverage[c.index] > 0 {
                added.push(c.index);
            }
        }

        // Line 6: update coverage.
        for &i in &added {
            let e = &non_tree[i];
            augmentation.insert(e.id);
            state.cover_path(&tree, e.u, e.v);
        }
    }

    let weight = graph.weight_of(&augmentation);
    Ok(TapSolution {
        augmentation,
        weight,
        iterations,
        ledger,
    })
}

/// The CONGEST rounds of a single TAP iteration, as analysed in Section 3.1
/// (Lemma 3.3): a constant number of segment scans, skeleton-level broadcasts
/// and per-edge exchanges, i.e. `O(D + √n)`.
pub fn iteration_rounds(model: &CostModel, segment_count: u64, segment_diameter: u64) -> u64 {
    let scan = model.segment_scan(segment_diameter);
    // (I) cost-effectiveness: segment info broadcast + path exchange.
    let cost_effectiveness = model.broadcast(segment_count) + scan + model.edge_exchange();
    // Max rounded cost-effectiveness over the BFS tree.
    let max_ce = model.convergecast(1) + model.broadcast(1);
    // (II) best covering candidate: short-range scan, long-range
    // convergecast/broadcast of per-highway optima, mid-range scans.
    let best_edge =
        scan + model.convergecast(segment_count) + model.broadcast(segment_count) + 2 * scan;
    // (III) vote counting mirrors the cost-effectiveness computation.
    let votes = model.broadcast(segment_count) + scan + model.edge_exchange();
    // Termination / coverage check over the BFS tree.
    let termination = scan + model.convergecast(1) + model.broadcast(1);
    cost_effectiveness + max_ce + best_edge + votes + termination
}

fn validate(graph: &Graph, tree_edges: &EdgeSet) -> Result<()> {
    if graph.n() < 2 {
        return Err(Error::InvalidSubgraph {
            reason: "graph has fewer than two vertices".into(),
        });
    }
    if tree_edges.len() != graph.n() - 1 {
        return Err(Error::InvalidSubgraph {
            reason: format!(
                "expected a spanning tree with {} edges, got {}",
                graph.n() - 1,
                tree_edges.len()
            ),
        });
    }
    if !connectivity::is_connected_in(graph, tree_edges) {
        return Err(Error::InvalidSubgraph {
            reason: "tree edges do not span the graph".into(),
        });
    }
    if !connectivity::is_two_edge_connected_in(graph, &graph.full_edge_set()) {
        return Err(Error::InsufficientConnectivity {
            required: 2,
            actual: 1,
        });
    }
    Ok(())
}

struct NonTreeEdge {
    id: EdgeId,
    u: NodeId,
    v: NodeId,
    weight: u64,
    lca: NodeId,
}

struct Candidate {
    index: usize,
    rank: u64,
    id: EdgeId,
}

/// Coverage bookkeeping for the tree edges (identified by child vertex), with
/// a persistent "skip covered edges" union-find so the total cover-update work
/// is near-linear over the whole run.
struct CoverState {
    /// covered[v] — whether the tree edge {v, parent(v)} is covered.
    covered: Vec<bool>,
    uncovered: usize,
    /// Union-find: jump towards the root skipping covered edges.
    skip: Vec<usize>,
}

impl CoverState {
    fn new(graph: &Graph) -> Self {
        let n = graph.n();
        CoverState {
            covered: vec![false; n],
            uncovered: n - 1,
            skip: (0..n).collect(),
        }
    }

    /// The representative of `v`: the deepest vertex `w` on the path from `v`
    /// to the root whose parent edge is still uncovered (or the root).
    fn find(&mut self, v: usize) -> usize {
        if self.skip[v] == v {
            return v;
        }
        let r = self.find(self.skip[v]);
        self.skip[v] = r;
        r
    }

    /// Marks all uncovered tree edges on the path `u – v` as covered.
    fn cover_path(&mut self, tree: &RootedTree, u: NodeId, v: NodeId) {
        let lca = tree.lca(u, v);
        for endpoint in [u, v] {
            let mut cur = self.find(endpoint);
            while tree.depth(cur) > tree.depth(lca) {
                // The tree edge {cur, parent(cur)} is uncovered: cover it.
                debug_assert!(!self.covered[cur]);
                self.covered[cur] = true;
                self.uncovered -= 1;
                let parent = tree
                    .parent(cur)
                    .expect("deeper than the LCA implies a parent");
                self.skip[cur] = parent;
                cur = self.find(parent);
            }
        }
    }

    /// `prefix[v]` = number of uncovered tree edges on the path root → v.
    fn uncovered_prefix(&self, tree: &RootedTree) -> Vec<usize> {
        let mut prefix = vec![0usize; self.covered.len()];
        for &v in tree.bfs_order() {
            if let Some(p) = tree.parent(v) {
                prefix[v] = prefix[p] + usize::from(!self.covered[v]);
            }
        }
        prefix
    }

    /// For every uncovered tree edge covered by at least one candidate,
    /// determine the first candidate (in the given order) covering it, and
    /// return the number of votes each candidate receives.
    ///
    /// Implemented with a per-iteration union-find: tree edges are assigned in
    /// candidate order, and once assigned they are skipped by later walks.
    fn tally_votes(
        &self,
        tree: &RootedTree,
        non_tree: &[NonTreeEdge],
        candidates: &[Candidate],
    ) -> Vec<usize> {
        let n = self.covered.len();
        let mut assigned_skip: Vec<usize> = (0..n).collect();
        let mut votes = vec![0usize; candidates.len()];

        fn find(skip: &mut Vec<usize>, v: usize) -> usize {
            if skip[v] == v {
                return v;
            }
            let r = find(skip, skip[v]);
            skip[v] = r;
            r
        }

        for (ci, c) in candidates.iter().enumerate() {
            let e = &non_tree[c.index];
            let lca = e.lca;
            for endpoint in [e.u, e.v] {
                let mut cur = find(&mut assigned_skip, endpoint);
                while tree.depth(cur) > tree.depth(lca) {
                    // Assign the tree edge {cur, parent(cur)} to candidate ci.
                    if !self.covered[cur] {
                        votes[ci] += 1;
                    }
                    let parent = tree
                        .parent(cur)
                        .expect("deeper than the LCA implies a parent");
                    assigned_skip[cur] = parent;
                    cur = find(&mut assigned_skip, parent);
                }
            }
        }
        votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use graphs::{generators, mst};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_valid(graph: &Graph, tree_edges: &EdgeSet, solution: &TapSolution) {
        let union = tree_edges.union(&solution.augmentation);
        assert!(
            connectivity::is_two_edge_connected_in(graph, &union),
            "T ∪ A must be 2-edge-connected"
        );
        // The augmentation contains only non-tree edges.
        for id in solution.augmentation.iter() {
            assert!(!tree_edges.contains(id));
        }
        assert_eq!(solution.weight, graph.weight_of(&solution.augmentation));
    }

    #[test]
    fn augments_a_cycle_tree() {
        // Cycle: the MST is a path; the only non-tree edge must be added.
        let g = generators::cycle(8, 3);
        let tree_edges = mst::kruskal(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sol = solve(&g, &tree_edges, &mut rng).unwrap();
        check_valid(&g, &tree_edges, &sol);
        assert_eq!(sol.augmentation.len(), 1);
        assert_eq!(sol.iterations, 1);
    }

    #[test]
    fn augmentation_is_valid_on_random_weighted_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in [10, 24, 48, 96] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 60, &mut rng);
            let tree_edges = mst::kruskal(&g);
            let sol = solve(&g, &tree_edges, &mut rng).unwrap();
            check_valid(&g, &tree_edges, &sol);
        }
    }

    #[test]
    fn weight_zero_edges_are_used_for_free() {
        // A cycle where the closing edge has weight 0: the augmentation should
        // be free and require no voting iterations.
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 5);
        g.add_edge(2, 3, 5);
        g.add_edge(3, 4, 5);
        let closing = g.add_edge(4, 0, 0);
        let mut tree_edges = g.full_edge_set();
        tree_edges.remove(closing);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sol = solve(&g, &tree_edges, &mut rng).unwrap();
        check_valid(&g, &tree_edges, &sol);
        assert_eq!(sol.weight, 0);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn approximation_is_close_to_greedy_on_small_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut worst: f64 = 0.0;
        for _ in 0..10 {
            let g = generators::random_weighted_k_edge_connected(14, 2, 18, 20, &mut rng);
            let tree_edges = mst::kruskal(&g);
            let sol = solve(&g, &tree_edges, &mut rng).unwrap();
            check_valid(&g, &tree_edges, &sol);
            let greedy = baselines::greedy::tap(&g, &tree_edges);
            let ratio = sol.weight as f64 / greedy.weight.max(1) as f64;
            worst = worst.max(ratio);
        }
        // The distributed algorithm is an O(log n) approximation; against the
        // greedy (itself O(log n)) it should stay within a small constant.
        assert!(
            worst <= 4.0,
            "distributed TAP is {worst:.2}x the greedy cost"
        );
    }

    #[test]
    fn iteration_count_stays_polylogarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for n in [32usize, 128, 256] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 3 * n, 1_000, &mut rng);
            let tree_edges = mst::kruskal(&g);
            let sol = solve(&g, &tree_edges, &mut rng).unwrap();
            let log_n = (n as f64).log2();
            assert!(
                (sol.iterations as f64) <= 12.0 * log_n * log_n,
                "n = {n}: {} iterations exceeds O(log^2 n)",
                sol.iterations
            );
        }
    }

    #[test]
    fn ledger_scales_with_iterations() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = generators::random_weighted_k_edge_connected(64, 2, 128, 100, &mut rng);
        let tree_edges = mst::kruskal(&g);
        let sol = solve(&g, &tree_edges, &mut rng).unwrap();
        assert!(sol.ledger.total() > 0);
        assert!(sol.ledger.phase("tap/iterations") > 0);
        assert!(sol.ledger.phase("tap/decomposition") > 0);
        let model = sol.ledger.model();
        let per_iter = iteration_rounds(&model, 1, 1);
        assert!(sol.ledger.phase("tap/iterations") >= sol.iterations * per_iter.min(1));
    }

    #[test]
    fn rejects_non_spanning_tree() {
        let g = generators::cycle(5, 1);
        let mut edges = g.empty_edge_set();
        edges.insert(EdgeId(0));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = solve(&g, &edges, &mut rng).unwrap_err();
        assert!(matches!(err, Error::InvalidSubgraph { .. }));
    }

    #[test]
    fn rejects_graph_that_is_not_two_edge_connected() {
        // A path graph cannot be augmented.
        let g = generators::path(5, 1);
        let tree_edges = g.full_edge_set();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = solve(&g, &tree_edges, &mut rng).unwrap_err();
        assert_eq!(
            err,
            Error::InsufficientConnectivity {
                required: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn iteration_rounds_grow_with_parameters() {
        let model = CostModel::new(400, 12);
        let base = iteration_rounds(&model, 10, 10);
        assert!(iteration_rounds(&model, 20, 10) > base);
        assert!(iteration_rounds(&model, 10, 30) > base);
    }

    #[test]
    fn parallel_edges_to_tree_edges_cover_them() {
        // Two vertices joined by two parallel edges plus a third vertex in a
        // triangle; the parallel edge covers the tree edge it duplicates.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 4);
        let tree_edges = mst::kruskal(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let sol = solve(&g, &tree_edges, &mut rng).unwrap();
        check_valid(&g, &tree_edges, &sol);
    }
}
