//! 3-ECSS via cycle-space sampling (Section 5): unweighted in `O(D log³ n)`
//! rounds (Theorem 1.3), weighted in `O(h_MST log³ n)` rounds (the Section 5.4
//! remark).
//!
//! The bottleneck of the general `Aug_k` algorithm is learning the whole
//! subgraph `H` (Θ(n) rounds). For 3-ECSS the paper avoids it with
//! cycle-space sampling:
//!
//! 1. Build a 2-edge-connected subgraph `H`: the `O(D)`-round unweighted
//!    2-ECSS 2-approximation of \[1\] for the unweighted problem, or
//!    MST + weighted TAP (Theorem 1.1) for the weighted variant.
//! 2. Repeatedly: sample an `O(log n)`-bit circulation of `H ∪ A` over the
//!    spanning tree `T` of `H` (`O(depth(T))` rounds), from which every edge
//!    `e ∉ H ∪ A` computes the number of cut pairs it covers (Claim 5.8:
//!    `ρ(e) = Σ_φ n_{φ,e} (n_φ − n_{φ,e})` over the labels on its fundamental
//!    path); candidates of the maximum rounded cost-effectiveness class
//!    activate with the probability schedule of Section 4 and join `A`.
//! 3. Stop when every tree-edge label is unique (`n_φ(t) = 1` for all `t`,
//!    Claim 5.10) — this direction of the claim is error-free, so the output
//!    is guaranteed 3-edge-connected.
//!
//! Every iteration costs `O(depth(T))` rounds — `O(D)` for the BFS tree of
//! the unweighted variant, `O(h_MST)` for the MST of the weighted variant —
//! and there are `O(log³ n)` iterations.
//!
//! The charged rounds are a ledger, not this module's work (DESIGN.md §2),
//! so the centralized loop does only what changed since the last iteration:
//! each candidate's fundamental path is walked once per run, the circulation
//! is redrawn into its own buffers, and Claim 5.8's coverage, the maximum
//! class and its members are recomputed only after an admission or when the
//! label partition of `H ∪ A` moved. The draws, the charges and the result
//! are those of recomputing everything in every iteration (DESIGN.md §10).
//!
//! [`solve`] and [`solve_weighted`] prove the input 3-edge-connected before
//! they compute its diameter for the cost model, so a refused graph costs
//! only that proof.

use crate::augk::ProbabilitySchedule;
use crate::baselines::bfs_two_ecss;
use crate::cover::Rounded;
use crate::cycle_space::{labelling_rounds, Circulation};
use crate::error::{Error, Result};
use crate::inferred_model;
use crate::tap;
use crate::verification;
use congest::{CostModel, RoundLedger};
use graphs::{connectivity, EdgeId, EdgeSet, Graph, NodeId, RootedTree};
use rand::Rng;

/// Safety cap on iterations (`O(log³ n)` expected).
const ITERATION_SAFETY_CAP: u64 = 500_000;

/// The result of the 3-ECSS algorithms of Section 5.
#[derive(Clone, Debug)]
pub struct ThreeEcssSolution {
    /// The 3-edge-connected spanning subgraph (`H ∪ A`).
    pub subgraph: EdgeSet,
    /// The initial 2-edge-connected subgraph `H`.
    pub base: EdgeSet,
    /// The augmentation `A`.
    pub added: EdgeSet,
    /// Number of edges in the subgraph (the unweighted objective).
    pub size: usize,
    /// Total weight of the subgraph (equals `size` for unit weights).
    pub weight: u64,
    /// Number of label/activation iterations executed.
    pub iterations: u64,
    /// CONGEST rounds charged.
    pub ledger: RoundLedger,
}

/// Solves unweighted 3-ECSS on `graph` (Theorem 1.3), inferring the cost
/// model from the graph's diameter. Edge weights are ignored.
///
/// # Errors
///
/// Returns [`Error::InsufficientConnectivity`] if the graph is not
/// 3-edge-connected.
pub fn solve<R: Rng>(graph: &Graph, rng: &mut R) -> Result<ThreeEcssSolution> {
    // Phase spans are observational only (DESIGN.md §11).
    let _solve_span = kecss_obs::span("solve");
    ensure_three_connected(graph)?;
    Ok(solve_proven(graph, inferred_model(graph), rng))
}

/// Same as [`solve`] with an explicit cost model.
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn solve_with_model<R: Rng>(
    graph: &Graph,
    model: CostModel,
    rng: &mut R,
) -> Result<ThreeEcssSolution> {
    let _solve_span = kecss_obs::span("solve");
    ensure_three_connected(graph)?;
    Ok(solve_proven(graph, model, rng))
}

/// [`solve_with_model`] on a graph already proven 3-edge-connected.
fn solve_proven<R: Rng>(graph: &Graph, model: CostModel, rng: &mut R) -> ThreeEcssSolution {
    let mut ledger = RoundLedger::new(model);

    // Step 1: the O(D)-round 2-approximate unweighted 2-ECSS of [1]. Its BFS
    // tree also serves as the spanning tree for the circulation sampling.
    let base = {
        let _span = kecss_obs::span("base_2ecss");
        bfs_two_ecss::solve_with_model(graph, model)
    };
    ledger.absorb(&base.ledger);
    let h = base.edges.clone();
    let tree = RootedTree::new(graph, &base.tree, 0);

    let _augment_span = kecss_obs::span("augment");
    let (added, iterations) = augment_to_three(
        graph,
        &h,
        &tree,
        /* weighted = */ false,
        model,
        rng,
        &mut ledger,
    );
    assemble(graph, h, added, iterations, ledger)
}

/// Solves *weighted* 3-ECSS (the Section 5.4 remark): the base subgraph is the
/// weighted 2-ECSS of Theorem 1.1 (MST + TAP), the circulation is sampled over
/// the MST, and the cost-effectiveness divides by the edge weight. Each
/// iteration costs `O(h_MST)` rounds, so the total is `O(h_MST log³ n)` — the
/// reason the paper calls the weighted sublinear case open.
///
/// # Errors
///
/// Returns [`Error::InsufficientConnectivity`] if the graph is not
/// 3-edge-connected.
pub fn solve_weighted<R: Rng>(graph: &Graph, rng: &mut R) -> Result<ThreeEcssSolution> {
    let _solve_span = kecss_obs::span("solve");
    ensure_three_connected(graph)?;
    solve_weighted_proven(graph, inferred_model(graph), rng)
}

/// Same as [`solve_weighted`] with an explicit cost model.
///
/// # Errors
///
/// Same conditions as [`solve_weighted`].
pub fn solve_weighted_with_model<R: Rng>(
    graph: &Graph,
    model: CostModel,
    rng: &mut R,
) -> Result<ThreeEcssSolution> {
    let _solve_span = kecss_obs::span("solve");
    ensure_three_connected(graph)?;
    solve_weighted_proven(graph, model, rng)
}

/// [`solve_weighted_with_model`] on a graph already proven 3-edge-connected.
fn solve_weighted_proven<R: Rng>(
    graph: &Graph,
    model: CostModel,
    rng: &mut R,
) -> Result<ThreeEcssSolution> {
    let mut ledger = RoundLedger::new(model);

    // Step 1: weighted 2-ECSS = MST + weighted TAP (Theorem 1.1).
    let mst_edges = {
        let _span = kecss_obs::span("mst");
        graphs::mst::kruskal(graph)
    };
    ledger.charge("3ecss/mst", model.mst_kutten_peleg());
    let tap_solution = {
        let _span = kecss_obs::span("tap");
        tap::solve_proven(graph, &mst_edges, model, rng)?
    };
    ledger.absorb(&tap_solution.ledger);
    let h = mst_edges.union(&tap_solution.augmentation);
    let tree = RootedTree::new(graph, &mst_edges, 0);

    let _augment_span = kecss_obs::span("augment");
    let (added, iterations) = augment_to_three(
        graph,
        &h,
        &tree,
        /* weighted = */ true,
        model,
        rng,
        &mut ledger,
    );
    Ok(assemble(graph, h, added, iterations, ledger))
}

/// The one proof the solvers run that `graph` is 3-edge-connected; an entry
/// point that infers its cost model runs it before the diameter, so a
/// refused graph never pays for that.
fn ensure_three_connected(graph: &Graph) -> Result<()> {
    let _span = kecss_obs::span("connectivity_check");
    if !verification::is_k_edge_connected_in(graph, &graph.full_edge_set(), 3) {
        return Err(Error::InsufficientConnectivity {
            required: 3,
            actual: connectivity::edge_connectivity(graph),
        });
    }
    Ok(())
}

fn assemble(
    graph: &Graph,
    h: EdgeSet,
    added: EdgeSet,
    iterations: u64,
    ledger: RoundLedger,
) -> ThreeEcssSolution {
    let subgraph = h.union(&added);
    let size = subgraph.len();
    let weight = graph.weight_of(&subgraph);
    ThreeEcssSolution {
        subgraph,
        base: h,
        added,
        size,
        weight,
        iterations,
        ledger,
    }
}

/// The fundamental tree path of every candidate, walked once per run: the
/// tree edges of candidate `i`'s path, named by their child endpoints, are
/// `children[start[i]..start[i + 1]]`.
struct TreePaths {
    start: Vec<usize>,
    children: Vec<NodeId>,
}

impl TreePaths {
    fn new(graph: &Graph, tree: &RootedTree, pool: &[(EdgeId, u64)]) -> Self {
        let mut paths = TreePaths {
            start: Vec::with_capacity(pool.len() + 1),
            children: Vec::new(),
        };
        paths.start.push(0);
        for &(id, _) in pool {
            // Step up from the deeper end until the two ends meet at the LCA.
            let e = graph.edge(id);
            let (mut a, mut b) = (e.u, e.v);
            while a != b {
                let lower = if tree.depth(a) >= tree.depth(b) {
                    &mut a
                } else {
                    &mut b
                };
                paths.children.push(*lower);
                *lower = tree
                    .parent(*lower)
                    .expect("a vertex below the LCA has a parent");
            }
            paths.start.push(paths.children.len());
        }
        paths
    }

    fn of(&self, i: usize) -> &[NodeId] {
        &self.children[self.start[i]..self.start[i + 1]]
    }
}

/// The Section 5.3 augmentation loop: cover every cut pair of `h ∪ A` using
/// circulation labels over `tree` (a spanning tree of `h`). Returns the added
/// edges and the iteration count; charges per-iteration costs proportional to
/// the tree depth to `ledger`.
///
/// An iteration pays only for what changed. Claim 5.8's coverage is a pure
/// function of the candidates outside `A` and of which edges of `h ∪ A`
/// share a label, and the label index numbers its classes canonically; so
/// coverage, the maximum class and its members are recomputed only after an
/// admission or when the index's partition differs from the last one
/// computed, and reused otherwise. The draws, charges and output are those
/// of the loop that recomputed everything in every iteration.
fn augment_to_three<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    tree: &RootedTree,
    weighted: bool,
    model: CostModel,
    rng: &mut R,
    ledger: &mut RoundLedger,
) -> (EdgeSet, u64) {
    // The per-iteration communication depth: the tree's height (a BFS tree has
    // height ≤ D; an MST can be much deeper — that is exactly the h_MST
    // penalty of the weighted variant).
    let depth_rounds = labelling_rounds(tree);

    // The candidates outside H, with the weight their cost-effectiveness
    // divides by.
    let pool: Vec<(EdgeId, u64)> = graph
        .edges()
        .filter(|(id, _)| !h.contains(*id))
        .map(|(id, e)| (id, if weighted { e.weight } else { 1 }))
        .collect();
    let paths = TreePaths::new(graph, tree, &pool);
    let tree_children: Vec<NodeId> = tree.edge_children().collect();

    let mut added = graph.empty_edge_set();
    let mut current = h.clone();
    let mut schedule = ProbabilitySchedule::new(graph.n(), graph.m());
    let mut iterations = 0u64;

    // What the last recompute saw and found: the partition of H ∪ A into
    // label classes, the class φ of each vertex's tree edge, whether some
    // tree edge shares its label, the maximum class and its members outside
    // A (pool indices, pool order).
    let mut partition: Vec<u32> = Vec::new();
    let mut class_above = vec![0usize; graph.n()];
    let mut cut_pair_witness = false;
    let mut best_class: Option<Rounded> = None;
    let mut members: Vec<usize> = Vec::new();
    let mut admitted = true;
    // Claim 5.8 per candidate: the per-φ count of its path edges, with the
    // φs it touched (reset after every candidate), and its rounded
    // cost-effectiveness (`None` in A or when it covers nothing).
    let mut on_path: Vec<usize> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut rounded: Vec<Option<Rounded>> = vec![None; pool.len()];

    // A fresh circulation of H ∪ A per iteration; n_φ is the size of label
    // φ's class over H ∪ A (Lemma 5.5 / step (b) of Section 5.3).
    let mut circulation = Circulation::sample(graph, &current, tree, 64, rng);
    loop {
        assert!(
            iterations < ITERATION_SAFETY_CAP,
            "3-ECSS exceeded the iteration safety cap; this indicates a bug"
        );
        ledger.charge("3ecss/labels", depth_rounds);
        let index = circulation.index();
        let changed = std::mem::take(&mut admitted) || index.partition() != partition;
        if changed {
            partition.clear();
            partition.extend_from_slice(index.partition());
            for &child in &tree_children {
                let t = tree
                    .parent_edge(child)
                    .expect("non-root child has a parent edge");
                class_above[child] = index.class_of(t).expect("tree edge has a label");
            }
            cut_pair_witness = tree_children
                .iter()
                .any(|&child| index.class(class_above[child]).len() > 1);
        }
        ledger.charge("3ecss/label_counts", depth_rounds);

        // Termination (Claim 5.10): if every tree edge's label is unique,
        // no tree edge is in a cut pair, hence there are no cut pairs at all
        // and H ∪ A is 3-edge-connected. This direction holds with certainty.
        ledger.charge("3ecss/termination", model.convergecast(1));
        if !cut_pair_witness {
            break;
        }

        iterations += 1;

        // Cost-effectiveness via Claim 5.8: for each candidate e, group the
        // tree edges of its fundamental path by label and sum
        // n_{φ,e} (n_φ − n_{φ,e}); divide by the weight in the weighted case.
        if changed {
            on_path.clear();
            on_path.resize(index.class_count(), 0);
            for (i, &(id, weight)) in pool.iter().enumerate() {
                if added.contains(id) {
                    rounded[i] = None;
                    continue;
                }
                for &child in paths.of(i) {
                    let phi = class_above[child];
                    if on_path[phi] == 0 {
                        touched.push(phi);
                    }
                    on_path[phi] += 1;
                }
                let mut rho = 0usize;
                for &phi in &touched {
                    let n_phi_e = std::mem::take(&mut on_path[phi]);
                    rho += n_phi_e * (index.class(phi).len() - n_phi_e);
                }
                touched.clear();
                rounded[i] = Rounded::of(rho, weight);
            }
            best_class = rounded.iter().flatten().max().copied();
            members.clear();
            members.extend(
                (0..pool.len()).filter(|&i| rounded[i].is_some() && rounded[i] == best_class),
            );
        }
        ledger.charge(
            "3ecss/cost_effectiveness",
            depth_rounds + model.edge_exchange(),
        );
        ledger.charge(
            "3ecss/max_cost_effectiveness",
            model.convergecast(1) + model.broadcast(1),
        );

        // No candidate covers anything although cut pairs remain: only
        // possible through label collisions (the input is 3-edge-connected);
        // resample. Otherwise the members activate with the Section 4
        // probability schedule, and all active ones join A (no MST filtering
        // in Section 5's algorithm). One admission changes no other member's
        // eligibility, so the draws are those of a scan of the whole pool.
        if let Some(target_class) = best_class {
            let p = schedule.probability(target_class);
            for &i in &members {
                if rng.gen_bool(p) {
                    added.insert(pool[i].0);
                    current.insert(pool[i].0);
                    admitted = true;
                }
            }
        }
        circulation.resample(graph, &current, tree, rng);
    }

    (added, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bounds;
    use graphs::generators;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The oracle for [`augment_to_three`]: the loop as first written, which
    /// samples a fresh circulation, re-walks every candidate's tree path and
    /// re-rounds every candidate in every iteration.
    fn reference_augment_to_three<R: Rng>(
        graph: &Graph,
        h: &EdgeSet,
        tree: &RootedTree,
        weighted: bool,
        model: CostModel,
        rng: &mut R,
        ledger: &mut RoundLedger,
    ) -> (EdgeSet, u64) {
        // The per-iteration communication depth: the tree's height (a BFS tree has
        // height ≤ D; an MST can be much deeper — that is exactly the h_MST
        // penalty of the weighted variant).
        let depth_rounds = labelling_rounds(tree);

        let candidates_pool: Vec<(graphs::EdgeId, NodeId, NodeId, u64)> = graph
            .edges()
            .filter(|(id, _)| !h.contains(*id))
            .map(|(id, e)| (id, e.u, e.v, e.weight))
            .collect();

        let mut added = graph.empty_edge_set();
        let mut schedule = ProbabilitySchedule::new(graph.n(), graph.m());
        let mut iterations = 0u64;

        let tree_children: Vec<NodeId> = tree.edge_children().collect();
        // Per iteration: the label class φ of each vertex's tree edge, and the
        // per-φ count of one candidate's path edges with the φs it touched
        // (reset after every candidate).
        let mut class_above = vec![0usize; graph.n()];
        let mut on_path: Vec<usize> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();

        loop {
            assert!(
                iterations < ITERATION_SAFETY_CAP,
                "3-ECSS exceeded the iteration safety cap; this indicates a bug"
            );

            // Sample a fresh circulation of H ∪ A; n_φ is the size of label φ's
            // class over H ∪ A (Lemma 5.5 / step (b) of Section 5.3).
            let current = h.union(&added);
            let circulation = Circulation::sample(graph, &current, tree, 64, rng);
            ledger.charge("3ecss/labels", depth_rounds);
            let index = circulation.index();
            for &child in &tree_children {
                let t = tree
                    .parent_edge(child)
                    .expect("non-root child has a parent edge");
                class_above[child] = index.class_of(t).expect("tree edge has a label");
            }
            ledger.charge("3ecss/label_counts", depth_rounds);

            // Termination (Claim 5.10): if every tree edge's label is unique,
            // no tree edge is in a cut pair, hence there are no cut pairs at all
            // and H ∪ A is 3-edge-connected. This direction holds with certainty.
            let has_cut_pair_witness = tree_children
                .iter()
                .any(|&child| index.class(class_above[child]).len() > 1);
            ledger.charge("3ecss/termination", model.convergecast(1));
            if !has_cut_pair_witness {
                break;
            }

            iterations += 1;

            // Cost-effectiveness via Claim 5.8: for each candidate e, group the
            // tree edges of its fundamental path by label and sum
            // n_{φ,e} (n_φ − n_{φ,e}); divide by the weight in the weighted case.
            let mut best_class: Option<Rounded> = None;
            let mut coverage = vec![0usize; candidates_pool.len()];
            on_path.clear();
            on_path.resize(index.class_count(), 0);
            for (i, &(id, u, v, _)) in candidates_pool.iter().enumerate() {
                if added.contains(id) {
                    continue;
                }
                // Walk the fundamental path by parent pointers, stepping up from
                // the deeper end until the two ends meet at the LCA.
                let (mut a, mut b) = (u, v);
                while a != b {
                    let lower = if tree.depth(a) >= tree.depth(b) {
                        &mut a
                    } else {
                        &mut b
                    };
                    let phi = class_above[*lower];
                    if on_path[phi] == 0 {
                        touched.push(phi);
                    }
                    on_path[phi] += 1;
                    *lower = tree
                        .parent(*lower)
                        .expect("a vertex below the LCA has a parent");
                }
                let mut rho = 0usize;
                for &phi in &touched {
                    let n_phi_e = std::mem::take(&mut on_path[phi]);
                    rho += n_phi_e * (index.class(phi).len() - n_phi_e);
                }
                touched.clear();
                coverage[i] = rho;
                let weight_for_class = if weighted { candidates_pool[i].3 } else { 1 };
                if let Some(class) = Rounded::of(rho, weight_for_class) {
                    best_class = Some(best_class.map_or(class, |b| b.max(class)));
                }
            }
            ledger.charge(
                "3ecss/cost_effectiveness",
                depth_rounds + model.edge_exchange(),
            );
            ledger.charge(
                "3ecss/max_cost_effectiveness",
                model.convergecast(1) + model.broadcast(1),
            );

            let Some(target_class) = best_class else {
                // No candidate covers anything although cut pairs remain: only
                // possible through label collisions (the input is 3-edge-connected);
                // resample in the next iteration.
                continue;
            };

            // Activation with the Section 4 probability schedule; all active
            // candidates join A (no MST filtering in Section 5's algorithm).
            let p = schedule.probability(target_class);
            for (i, &(id, _, _, w)) in candidates_pool.iter().enumerate() {
                let weight_for_class = if weighted { w } else { 1 };
                if added.contains(id)
                    || Rounded::of(coverage[i], weight_for_class) != Some(target_class)
                {
                    continue;
                }
                if rng.gen_bool(p) {
                    added.insert(id);
                }
            }
        }

        (added, iterations)
    }

    /// Everything one augmentation run leaves behind: `A`, the iteration
    /// count, the ledger's breakdown and the next word of the RNG stream.
    type AugmentOutcome = (EdgeSet, u64, Vec<(String, u64)>, u64);

    /// Builds the base `H` and its tree as the solver of the variant does,
    /// then augments it with [`augment_to_three`] (or the reference), from a
    /// generator seeded with `seed`.
    fn run_augment(g: &Graph, weighted: bool, seed: u64, reference: bool) -> AugmentOutcome {
        let model = inferred_model(g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (h, tree_edges) = if weighted {
            let mst = graphs::mst::kruskal(g);
            let tap = tap::solve_proven(g, &mst, model, &mut rng).unwrap();
            (mst.union(&tap.augmentation), mst)
        } else {
            let base = bfs_two_ecss::solve_with_model(g, model);
            (base.edges, base.tree)
        };
        let tree = RootedTree::new(g, &tree_edges, 0);
        let mut ledger = RoundLedger::new(model);
        let augment = if reference {
            reference_augment_to_three
        } else {
            augment_to_three
        };
        let (added, iterations) = augment(g, &h, &tree, weighted, model, &mut rng, &mut ledger);
        (added, iterations, ledger.breakdown(), rng.next_u64())
    }

    /// A 3-edge-connected instance of each family the oracle runs on,
    /// with weights in `1..=max_weight` when that is above 1.
    fn oracle_instances(n: usize, seed: u64, max_weight: u64) -> Vec<(&'static str, Graph)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let side = ((n as f64).sqrt().round() as usize).max(3);
        let mut instances = vec![
            ("torus", generators::torus(side, side, 1)),
            (
                "random",
                generators::random_k_edge_connected(n, 3, n, &mut rng),
            ),
            ("harary", generators::harary(3, n + n % 2, 1)),
            (
                "ring-of-cliques",
                generators::ring_of_cliques((n / 5).max(3), 5, 3, 1),
            ),
        ];
        if max_weight > 1 {
            for (_, g) in &mut instances {
                generators::randomize_weights(g, max_weight, &mut rng);
            }
        }
        instances
    }

    /// Runs both loops on every oracle instance at every size and seed, for
    /// both variants, and compares everything they leave behind.
    fn check_against_reference(sizes: &[usize], seeds: std::ops::Range<u64>) {
        for &n in sizes {
            for seed in seeds.clone() {
                for weighted in [false, true] {
                    let max_weight = if weighted { 50 } else { 1 };
                    for (family, g) in oracle_instances(n, seed, max_weight) {
                        assert!(connectivity::is_k_edge_connected(&g, 3), "{family}:{n}");
                        let fast = run_augment(&g, weighted, seed, false);
                        let reference = run_augment(&g, weighted, seed, true);
                        assert_eq!(
                            fast, reference,
                            "{family}:{n}, seed {seed}, weighted {weighted}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn augmentation_matches_the_recompute_everything_reference() {
        check_against_reference(&[24, 64], 1..5);
    }

    /// The larger set, run optimized in CI.
    #[test]
    #[ignore = "larger oracle set; run with --release -- --ignored"]
    fn augmentation_matches_the_reference_on_the_larger_set() {
        check_against_reference(&[36, 100, 256], 1..21);
    }

    #[test]
    fn produces_three_edge_connected_subgraphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [8, 14, 24, 40] {
            let g = generators::random_k_edge_connected(n, 3, 3 * n, &mut rng);
            let sol = solve(&g, &mut rng).unwrap();
            assert!(
                connectivity::is_k_edge_connected_in(&g, &sol.subgraph, 3),
                "n = {n}: output must be 3-edge-connected"
            );
            assert_eq!(sol.size, sol.subgraph.len());
            assert_eq!(sol.subgraph.len(), sol.base.union(&sol.added).len());
            assert_eq!(sol.weight, g.weight_of(&sol.subgraph));
        }
    }

    #[test]
    fn already_three_connected_base_needs_no_iterations() {
        let g = generators::complete(6, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sol = solve(&g, &mut rng).unwrap();
        assert!(connectivity::is_k_edge_connected_in(&g, &sol.subgraph, 3));
        assert!(sol.size <= g.m());
    }

    #[test]
    fn size_is_within_logarithmic_factor_of_lower_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [12usize, 20, 32] {
            let g = generators::random_k_edge_connected(n, 3, 4 * n, &mut rng);
            let sol = solve(&g, &mut rng).unwrap();
            // Any 3-ECSS has at least ceil(3n/2) edges.
            let lb = (3 * n).div_ceil(2);
            let ratio = sol.size as f64 / lb as f64;
            let bound = 2.0 + 2.0 * (n as f64).log2();
            assert!(
                ratio <= bound,
                "n = {n}: ratio {ratio:.2} exceeds {bound:.2}"
            );
        }
    }

    #[test]
    fn rejects_graphs_that_are_not_three_edge_connected() {
        let g = generators::cycle(8, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(
            solve(&g, &mut rng).unwrap_err(),
            Error::InsufficientConnectivity {
                required: 3,
                actual: 2
            }
        );
        assert_eq!(
            solve_weighted(&g, &mut rng).unwrap_err(),
            Error::InsufficientConnectivity {
                required: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn rounds_stay_within_the_theorem_shape_bound() {
        // Theorem 1.3: O(D log^3 n) rounds — in particular no sqrt(n) or n
        // term. Check the measured rounds against the explicit shape bound for
        // a range of sizes (experiment E6 plots the full curve).
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for n in [32usize, 64, 128] {
            let g = generators::random_k_edge_connected(n, 3, 2 * n, &mut rng);
            let d = graphs::bfs::diameter(&g).unwrap() as f64;
            let log_n = (n as f64).log2();
            let rounds = solve(&g, &mut rng).unwrap().ledger.total() as f64;
            let bound = 60.0 * (d + 1.0) * log_n.powi(3);
            assert!(
                rounds <= bound,
                "n = {n}: {rounds} rounds exceed the O(D log^3 n) shape bound {bound:.0}"
            );
        }
    }

    #[test]
    fn iteration_count_is_polylogarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [24usize, 48, 96] {
            let g = generators::random_k_edge_connected(n, 3, 2 * n, &mut rng);
            let sol = solve(&g, &mut rng).unwrap();
            let log_n = (n as f64).log2();
            assert!(
                (sol.iterations as f64) <= 20.0 * log_n.powi(3),
                "n = {n}: {} iterations exceeds O(log^3 n)",
                sol.iterations
            );
        }
    }

    #[test]
    fn harary_input_keeps_size_near_minimum() {
        // H_{3,n} is itself a minimum 3-ECSS; the only 3-ECSS of a 3-regular
        // graph is the graph itself.
        let g = generators::harary(3, 16, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let sol = solve(&g, &mut rng).unwrap();
        assert_eq!(
            sol.size,
            g.m(),
            "the only 3-ECSS of H_{{3,n}} is the graph itself"
        );
    }

    #[test]
    fn weighted_variant_produces_cheap_three_connected_subgraphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for n in [12usize, 20, 32] {
            let g = generators::random_weighted_k_edge_connected(n, 3, 3 * n, 40, &mut rng);
            let sol = solve_weighted(&g, &mut rng).unwrap();
            assert!(
                connectivity::is_k_edge_connected_in(&g, &sol.subgraph, 3),
                "n = {n}: weighted variant must be 3-edge-connected"
            );
            let lb = lower_bounds::k_ecss_lower_bound(&g, 3);
            let ratio = sol.weight as f64 / lb as f64;
            let bound = 6.0 * (n as f64).log2() + 6.0;
            assert!(
                ratio <= bound,
                "n = {n}: weighted ratio {ratio:.2} exceeds {bound:.2}"
            );
        }
    }

    #[test]
    fn weighted_variant_beats_the_unweighted_one_on_skewed_weights() {
        // Cheap 3-edge-connected core + expensive decoys: the weighted variant
        // must exploit the weights, the unweighted one is oblivious to them.
        let n = 20;
        let mut g = graphs::Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, 300);
            g.add_edge(v, (v + 2) % n, 300);
        }
        // Cheap core: circulant steps 3, 7 and 9 (together 3-edge-connected
        // by Harary-style redundancy) at weight 1.
        for step in [3usize, 7, 9] {
            for v in 0..n {
                if g.find_edge(v, (v + step) % n).is_none() {
                    g.add_edge(v, (v + step) % n, 1);
                }
            }
        }
        assert!(connectivity::is_k_edge_connected(&g, 3));
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let weighted = solve_weighted(&g, &mut rng).unwrap();
        let unweighted = solve(&g, &mut rng).unwrap();
        assert!(connectivity::is_k_edge_connected_in(
            &g,
            &weighted.subgraph,
            3
        ));
        assert!(
            weighted.weight < unweighted.weight,
            "weighted variant ({}) should be cheaper than the unweighted one ({})",
            weighted.weight,
            unweighted.weight
        );
    }

    #[test]
    fn weighted_variant_charges_mst_height_per_iteration() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = generators::random_weighted_k_edge_connected(40, 3, 80, 30, &mut rng);
        let sol = solve_weighted(&g, &mut rng).unwrap();
        assert!(sol.ledger.phase("3ecss/mst") > 0);
        assert!(sol.ledger.phase("3ecss/labels") > 0 || sol.iterations == 0);
    }
}
