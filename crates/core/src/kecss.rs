//! The full weighted k-ECSS driver (Claim 2.1 + Theorem 1.2): iterated
//! augmentation, one connectivity level at a time.
//!
//! Level 1 is an MST (the optimal augmentation of the empty subgraph to
//! connectivity 1); level `i` for `2 ≤ i ≤ k` runs [`crate::augk`] on the
//! subgraph built so far. By Claim 2.1 the approximation ratios add up, giving
//! `O(k log n)` in expectation, and the round complexities add up, giving
//! `O(k (D log³ n + n))`.

use crate::augk;
use crate::cuts::{AutoEnumerator, CutEnumerator};
use crate::error::{Error, Result};
use crate::verification;
use congest::{CostModel, RoundLedger};
use graphs::{connectivity, mst, EdgeSet, Graph};
use kecss_runtime::Executor;
use rand::Rng;

/// Per-level statistics of a k-ECSS run.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// The connectivity level this report describes (1 = MST).
    pub level: usize,
    /// Edges added at this level.
    pub edges_added: usize,
    /// Weight added at this level.
    pub weight_added: u64,
    /// Aug_k iterations at this level (0 for the MST level).
    pub iterations: u64,
}

/// The result of the weighted k-ECSS algorithm.
#[derive(Clone, Debug)]
pub struct KEcssSolution {
    /// The k-edge-connected spanning subgraph.
    pub subgraph: EdgeSet,
    /// Its total weight.
    pub weight: u64,
    /// Per-level breakdown (level 1 = MST, level i = Aug_i).
    pub levels: Vec<LevelReport>,
    /// CONGEST rounds charged across all levels.
    pub ledger: RoundLedger,
}

/// Solves weighted k-ECSS on `graph`, inferring the cost model from the
/// graph's diameter.
///
/// # Errors
///
/// * [`Error::ZeroK`] if `k == 0` (any `k >= 1` is supported: the pluggable
///   [`CutEnumerator`] strategies lifted the former `k <= 4` cap);
/// * [`Error::InsufficientConnectivity`] if the graph is not k-edge-connected.
pub fn solve<R: Rng>(graph: &Graph, k: usize, rng: &mut R) -> Result<KEcssSolution> {
    solve_with_exec(graph, k, rng, &Executor::Sequential)
}

/// Same as [`solve`], running the per-level cut verification through `exec`
/// (see [`augk::augment_with_exec`]). Bit-identical to [`solve`] for a fixed
/// seed, for every executor.
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn solve_with_exec<R: Rng>(
    graph: &Graph,
    k: usize,
    rng: &mut R,
    exec: &Executor,
) -> Result<KEcssSolution> {
    solve_with_exec_enumerator(graph, k, rng, exec, &AutoEnumerator::default())
}

/// Same as [`solve_with_exec`] with an explicit [`CutEnumerator`] strategy,
/// inferring the cost model from the graph diameter (the CLI's entry point).
///
/// # Errors
///
/// Same conditions as [`solve`], plus whatever the enumerator reports.
pub fn solve_with_exec_enumerator<R: Rng>(
    graph: &Graph,
    k: usize,
    rng: &mut R,
    exec: &Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<KEcssSolution> {
    if k == 0 {
        return Err(Error::ZeroK);
    }
    // Phase spans are observational only (DESIGN.md §11): they time scopes
    // and stream traces, but never feed back into the solution bytes.
    let _solve_span = kecss_obs::span("solve");
    // A refused graph never pays for the diameter.
    ensure_k_connected(graph, k)?;
    let model = crate::inferred_model(graph);
    solve_proven(graph, k, model, rng, exec, enumerator)
}

/// The most general entry point: explicit cost model, executor *and*
/// [`CutEnumerator`] strategy (see [`augk::augment_with_enumerator`] for how
/// randomized strategies are certified exact).
///
/// # Errors
///
/// Same conditions as [`solve`], plus whatever the enumerator reports.
pub fn solve_with_enumerator<R: Rng>(
    graph: &Graph,
    k: usize,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<KEcssSolution> {
    if k == 0 {
        return Err(Error::ZeroK);
    }
    let _solve_span = kecss_obs::span("solve");
    ensure_k_connected(graph, k)?;
    solve_proven(graph, k, model, rng, exec, enumerator)
}

/// The precheck: the only proof that G is k-edge-connected, hence
/// i-edge-connected for every level i. Each level trusts it.
fn ensure_k_connected(graph: &Graph, k: usize) -> Result<()> {
    let _span = kecss_obs::span("connectivity_check");
    if !verification::is_k_edge_connected_in(graph, &graph.full_edge_set(), k) {
        return Err(Error::InsufficientConnectivity {
            required: k,
            actual: connectivity::edge_connectivity(graph),
        });
    }
    Ok(())
}

/// [`solve_with_enumerator`] on a graph already proven k-edge-connected, for
/// `k ≥ 1`.
fn solve_proven<R: Rng>(
    graph: &Graph,
    k: usize,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<KEcssSolution> {
    let mut ledger = RoundLedger::new(model);
    let mut levels = Vec::with_capacity(k);

    // Level 1: the MST is the optimal 1-augmentation of the empty subgraph.
    let mut h = {
        let _span = kecss_obs::span("mst");
        mst::kruskal(graph)
    };
    ledger.charge("kecss/mst", model.mst_kutten_peleg());
    levels.push(LevelReport {
        level: 1,
        edges_added: h.len(),
        weight_added: graph.weight_of(&h),
        iterations: 0,
    });

    // Levels 2..=k: Aug_i. H is (i-1)-edge-connected at level i: the MST
    // is connected, and each level's certify proved the level before.
    for level in 2..=k {
        let _span = kecss_obs::span("augment");
        let aug = augk::augment_proven(graph, &h, level, model, rng, exec, enumerator)?;
        levels.push(LevelReport {
            level,
            edges_added: aug.added.len(),
            weight_added: aug.weight,
            iterations: aug.iterations,
        });
        ledger.absorb(&aug.ledger);
        h.union_with(&aug.added);
    }

    let weight = graph.weight_of(&h);
    Ok(KEcssSolution {
        subgraph: h,
        weight,
        levels,
        ledger,
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
    fn produces_k_edge_connected_subgraphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for k in 1..=3 {
            let g = generators::random_weighted_k_edge_connected(16, k, 30, 25, &mut rng);
            let sol = solve(&g, k, &mut rng).unwrap();
            assert!(
                connectivity::is_k_edge_connected_in(&g, &sol.subgraph, k),
                "k = {k}: result must be {k}-edge-connected"
            );
            assert_eq!(sol.levels.len(), k);
            assert_eq!(sol.weight, g.weight_of(&sol.subgraph));
        }
    }

    #[test]
    fn k_equal_one_is_just_the_mst() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_weighted_k_edge_connected(20, 2, 20, 30, &mut rng);
        let sol = solve(&g, 1, &mut rng).unwrap();
        assert_eq!(sol.subgraph, mst::kruskal(&g));
        assert_eq!(sol.levels.len(), 1);
        assert_eq!(sol.levels[0].iterations, 0);
    }

    #[test]
    fn four_connectivity_on_a_torus() {
        let g = generators::torus(4, 5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sol = solve(&g, 4, &mut rng).unwrap();
        assert!(connectivity::is_k_edge_connected_in(&g, &sol.subgraph, 4));
        // The torus is 4-regular, so the only 4-ECSS is the full graph.
        assert_eq!(sol.subgraph.len(), g.m());
    }

    #[test]
    fn weight_is_within_logarithmic_factor_of_lower_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for k in 2..=3 {
            let g = generators::random_weighted_k_edge_connected(20, k, 40, 20, &mut rng);
            let sol = solve(&g, k, &mut rng).unwrap();
            let lb = lower_bounds::k_ecss_lower_bound(&g, k);
            let ratio = sol.weight as f64 / lb as f64;
            let bound = 3.0 * k as f64 * ((g.n() as f64).log2() + 2.0);
            assert!(
                ratio <= bound,
                "k = {k}: ratio {ratio:.2} exceeds {bound:.2}"
            );
        }
    }

    #[test]
    fn levels_report_adds_up() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::random_weighted_k_edge_connected(14, 3, 25, 15, &mut rng);
        let sol = solve(&g, 3, &mut rng).unwrap();
        let total_edges: usize = sol.levels.iter().map(|l| l.edges_added).sum();
        let total_weight: u64 = sol.levels.iter().map(|l| l.weight_added).sum();
        assert_eq!(total_edges, sol.subgraph.len());
        assert_eq!(total_weight, sol.weight);
        assert_eq!(sol.levels[0].level, 1);
        assert_eq!(sol.levels.last().unwrap().level, 3);
    }

    #[test]
    fn rejects_bad_k_and_insufficient_connectivity() {
        let g = generators::cycle(8, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        assert_eq!(solve(&g, 0, &mut rng).unwrap_err(), Error::ZeroK);
        // k = 10 is no longer capped; the cycle simply is not 10-edge-connected.
        assert_eq!(
            solve(&g, 10, &mut rng).unwrap_err(),
            Error::InsufficientConnectivity {
                required: 10,
                actual: 2
            }
        );
        assert_eq!(
            solve(&g, 3, &mut rng).unwrap_err(),
            Error::InsufficientConnectivity {
                required: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn solves_past_the_former_k_cap() {
        // k = 6 was impossible before the pluggable enumerators; H_{6,12} is
        // exactly 6-edge-connected, so the solution must use size-4 and
        // size-5 cut enumeration along the way.
        let g = generators::harary(6, 12, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let sol = solve(&g, 6, &mut rng).unwrap();
        assert!(connectivity::is_k_edge_connected_in(&g, &sol.subgraph, 6));
        assert_eq!(sol.levels.len(), 6);
    }

    #[test]
    fn rounds_grow_with_k_within_the_per_level_bound() {
        // Theorem 1.2 bounds every level by the same O(D log^3 n + n), so the
        // k-level total is at most k times that bound. Individual levels vary
        // (higher levels have more cost-effectiveness classes to sweep), so we
        // compare against the explicit per-level bound rather than against the
        // k = 2 measurement.
        let g = generators::harary(4, 24, 1);
        let d = graphs::bfs::diameter(&g).unwrap() as f64;
        let log_n = (g.n() as f64).log2();
        let per_level_bound = 40.0 * (d + 1.0) * log_n.powi(3) + 10.0 * g.n() as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let r2 = solve(&g, 2, &mut rng).unwrap().ledger.total();
        let r4 = solve(&g, 4, &mut rng).unwrap().ledger.total();
        assert!(r4 > r2, "more levels must cost more rounds");
        assert!(
            (r2 as f64) <= 2.0 * per_level_bound,
            "k=2 rounds {r2} exceed the Theorem 1.2 shape bound {per_level_bound:.0}"
        );
        assert!(
            (r4 as f64) <= 4.0 * per_level_bound,
            "k=4 rounds {r4} exceed the Theorem 1.2 shape bound {:.0}",
            4.0 * per_level_bound
        );
    }
}
