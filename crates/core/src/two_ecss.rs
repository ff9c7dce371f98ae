//! Weighted 2-ECSS (Theorem 1.1): build an MST, then augment it to
//! 2-edge-connectivity with the weighted TAP algorithm of Section 3.
//!
//! By Claim 2.1 the composition is an `O(log n)` approximation: the MST is an
//! optimal augmentation from connectivity 0 to 1 (weight at most OPT), and the
//! TAP step is an `O(log n)`-approximate augmentation from 1 to 2.

use crate::error::{Error, Result};
use crate::tap;
use congest::{CostModel, RoundLedger};
use graphs::{connectivity, mst, EdgeSet, Graph};
use rand::Rng;

/// The result of the weighted 2-ECSS algorithm.
#[derive(Clone, Debug)]
pub struct TwoEcssSolution {
    /// The 2-edge-connected spanning subgraph (MST ∪ augmentation).
    pub subgraph: EdgeSet,
    /// The MST edges (the connectivity-1 layer).
    pub tree: EdgeSet,
    /// The TAP augmentation edges (the connectivity-2 layer).
    pub augmentation: EdgeSet,
    /// Total weight of the subgraph.
    pub weight: u64,
    /// Number of TAP iterations executed.
    pub tap_iterations: u64,
    /// CONGEST rounds charged (MST construction + TAP), broken down by phase.
    pub ledger: RoundLedger,
}

/// Solves weighted 2-ECSS on `graph`, inferring the cost model from the
/// graph's diameter.
///
/// # Errors
///
/// Returns [`Error::InsufficientConnectivity`] if the input graph is not
/// 2-edge-connected (no 2-ECSS exists).
pub fn solve<R: Rng>(graph: &Graph, rng: &mut R) -> Result<TwoEcssSolution> {
    // Phase spans are observational only (DESIGN.md §11): they time scopes
    // and stream traces, but never feed back into the solution bytes.
    let _solve_span = kecss_obs::span("solve");
    // A refused graph never pays for the diameter.
    ensure_two_connected(graph)?;
    solve_proven(graph, crate::inferred_model(graph), rng)
}

/// Solves weighted 2-ECSS with an explicit CONGEST cost model.
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn solve_with_model<R: Rng>(
    graph: &Graph,
    model: CostModel,
    rng: &mut R,
) -> Result<TwoEcssSolution> {
    let _solve_span = kecss_obs::span("solve");
    ensure_two_connected(graph)?;
    solve_proven(graph, model, rng)
}

fn ensure_two_connected(graph: &Graph) -> Result<()> {
    let _span = kecss_obs::span("connectivity_check");
    if !connectivity::is_k_edge_connected(graph, 2) {
        return Err(Error::InsufficientConnectivity {
            required: 2,
            actual: connectivity::edge_connectivity(graph),
        });
    }
    Ok(())
}

/// [`solve_with_model`] on a graph already proven 2-edge-connected.
fn solve_proven<R: Rng>(graph: &Graph, model: CostModel, rng: &mut R) -> Result<TwoEcssSolution> {
    let mut ledger = RoundLedger::new(model);
    // Step 1: MST via Kutten–Peleg (round cost charged; the tree itself is the
    // unique MST under (weight, edge id) tie-breaking).
    let tree = {
        let _span = kecss_obs::span("mst");
        mst::kruskal(graph)
    };
    ledger.charge("2ecss/mst", model.mst_kutten_peleg());

    // Step 2: weighted TAP on the MST (the precheck proved what TAP's input
    // checks would).
    let tap_solution = {
        let _span = kecss_obs::span("tap");
        tap::solve_proven(graph, &tree, model, rng)?
    };
    ledger.absorb(&tap_solution.ledger);

    let subgraph = tree.union(&tap_solution.augmentation);
    let weight = graph.weight_of(&subgraph);
    Ok(TwoEcssSolution {
        subgraph,
        tree,
        augmentation: tap_solution.augmentation,
        weight,
        tap_iterations: tap_solution.iterations,
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
    fn produces_two_edge_connected_subgraph() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for n in [8, 20, 50, 100] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 50, &mut rng);
            let sol = solve(&g, &mut rng).unwrap();
            assert!(
                connectivity::is_k_edge_connected_in(&g, &sol.subgraph, 2),
                "n = {n}"
            );
            assert_eq!(sol.weight, g.weight_of(&sol.subgraph));
            assert_eq!(sol.subgraph.len(), sol.tree.len() + sol.augmentation.len());
        }
    }

    #[test]
    fn cycle_input_returns_the_whole_cycle() {
        let g = generators::cycle(9, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sol = solve(&g, &mut rng).unwrap();
        assert_eq!(sol.subgraph.len(), 9);
        assert_eq!(sol.weight, 36);
    }

    #[test]
    fn rejects_insufficiently_connected_input() {
        let g = generators::path(6, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let err = solve(&g, &mut rng).unwrap_err();
        assert_eq!(
            err,
            Error::InsufficientConnectivity {
                required: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn weight_stays_within_logarithmic_factor_of_lower_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for n in [16usize, 40, 80] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 3 * n, 30, &mut rng);
            let sol = solve(&g, &mut rng).unwrap();
            let lb = lower_bounds::k_ecss_lower_bound(&g, 2);
            let ratio = sol.weight as f64 / lb as f64;
            let bound = 4.0 * (n as f64).log2() + 4.0;
            assert!(
                ratio <= bound,
                "n = {n}: ratio {ratio:.2} exceeds {bound:.2}"
            );
        }
    }

    #[test]
    fn ledger_includes_mst_and_tap_phases() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::random_weighted_k_edge_connected(36, 2, 40, 20, &mut rng);
        let sol = solve(&g, &mut rng).unwrap();
        assert!(sol.ledger.phase("2ecss/mst") > 0);
        assert!(sol.ledger.phase("tap/iterations") > 0);
        assert!(sol.ledger.total() >= sol.ledger.phase("2ecss/mst"));
    }

    #[test]
    fn rounds_scale_sublinearly_on_low_diameter_graphs() {
        // For a fixed small diameter, rounds should grow roughly like
        // sqrt(n) * polylog rather than linearly in m.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let small = generators::random_weighted_k_edge_connected(64, 2, 256, 50, &mut rng);
        let large = generators::random_weighted_k_edge_connected(256, 2, 1024, 50, &mut rng);
        let r_small = solve(&small, &mut rng).unwrap().ledger.total();
        let r_large = solve(&large, &mut rng).unwrap().ledger.total();
        // Quadrupling n should much less than quadruple the rounds.
        assert!(
            (r_large as f64) < 3.5 * r_small as f64,
            "rounds grew from {r_small} to {r_large}, faster than ~sqrt scaling"
        );
    }
}
