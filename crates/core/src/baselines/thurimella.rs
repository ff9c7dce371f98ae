//! Thurimella's sparse-certificate 2-approximation for unweighted k-ECSS
//! (\[36\] in the paper).
//!
//! Repeatedly compute a maximal spanning forest of the remaining graph and
//! remove its edges; the union of the first `k` forests is k-edge-connected
//! (if the input is) and has at most `k (n - 1)` edges, which is a
//! 2-approximation for the *unweighted* problem because any k-ECSS has at
//! least `k n / 2` edges. The distributed implementation in the paper costs
//! `O(k (D + √n log* n))` rounds — one MST computation per forest — which is
//! the cost charged to the ledger here.
//!
//! The algorithm has **no guarantee for weighted instances**: experiment E8
//! includes a weighted family where it is a factor `Θ(n)` from optimal, which
//! is exactly the motivation the paper gives for its weighted algorithms.

use super::BaselineSolution;
use crate::error::{Error, Result};
use congest::{CostModel, RoundLedger};
use graphs::{mst, EdgeSet, Graph};

/// The result of the sparse-certificate baseline.
#[derive(Clone, Debug)]
pub struct ThurimellaSolution {
    /// The union of the `k` maximal spanning forests.
    pub edges: EdgeSet,
    /// Total weight (meaningful only as a report; the algorithm ignores
    /// weights).
    pub weight: u64,
    /// CONGEST rounds charged: `k` forest computations.
    pub ledger: RoundLedger,
}

impl From<ThurimellaSolution> for BaselineSolution {
    fn from(s: ThurimellaSolution) -> Self {
        BaselineSolution {
            edges: s.edges,
            weight: s.weight,
        }
    }
}

/// Computes the union of `k` successive maximal spanning forests of `graph`.
/// This is a sparse certificate of any graph, connected or not; the k-ECSS
/// solver is [`k_ecss`].
///
/// The cost model's diameter comes from [`graphs::bfs::diameter_hint`]:
/// exact on test/bench-sized instances, double-sweep approximate beyond
/// 4096 vertices so that ≥10⁵-vertex instances stay forest-bound instead of
/// all-pairs-BFS-bound.
pub fn sparse_certificate(graph: &Graph, k: usize) -> ThurimellaSolution {
    forests(graph, k, false).expect("only a k-ECSS request refuses a disconnected graph")
}

/// The baseline as a k-ECSS solver: the sparse certificate of a connected
/// graph.
///
/// # Errors
///
/// [`Error::InsufficientConnectivity`] with `actual: 0` when the graph is
/// disconnected. The first forest decides it: it spans exactly when it has
/// `n - 1` edges, so a connected graph pays no extra check.
pub fn k_ecss(graph: &Graph, k: usize) -> Result<ThurimellaSolution> {
    forests(graph, k, true)
}

/// The union of `k` maximal spanning forests; with `require_connected`, an
/// error as soon as the first forest does not span.
fn forests(graph: &Graph, k: usize, require_connected: bool) -> Result<ThurimellaSolution> {
    let diameter = graphs::bfs::diameter_hint(graph).unwrap_or(graph.n());
    let model = CostModel::new(graph.n(), diameter);
    // Observational only (DESIGN.md §11) — never feeds back into the bytes.
    let _solve_span = kecss_obs::span("solve");
    let mut ledger = RoundLedger::new(model);
    let mut remaining = graph.full_edge_set();
    let mut certificate = graph.empty_edge_set();
    for round in 0..k {
        let _span = kecss_obs::span("forest");
        let forest = mst::maximal_spanning_forest_in(graph, &remaining);
        if require_connected && round == 0 && forest.len() + 1 < graph.n() {
            return Err(Error::InsufficientConnectivity {
                required: k,
                actual: 0,
            });
        }
        ledger.charge("thurimella/forest", model.mst_kutten_peleg());
        certificate.union_with(&forest);
        remaining = remaining.difference(&forest);
        if forest.is_empty() {
            break;
        }
    }
    let weight = graph.weight_of(&certificate);
    Ok(ThurimellaSolution {
        edges: certificate,
        weight,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{connectivity, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn certificate_preserves_k_connectivity() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for k in 1..=4 {
            let g = generators::random_k_edge_connected(20, k, 40, &mut rng);
            let sol = sparse_certificate(&g, k);
            assert!(
                connectivity::is_k_edge_connected_in(&g, &sol.edges, k),
                "certificate must stay {k}-edge-connected"
            );
            assert!(sol.edges.len() <= k * (g.n() - 1), "certificate too large");
        }
    }

    #[test]
    fn certificate_is_a_two_approximation_for_unweighted() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for k in 2..=3 {
            let g = generators::random_k_edge_connected(24, k, 60, &mut rng);
            let sol = sparse_certificate(&g, k);
            // Any k-ECSS has at least kn/2 edges.
            let lower = (k * g.n()) as f64 / 2.0;
            assert!((sol.edges.len() as f64) <= 2.0 * lower);
        }
    }

    #[test]
    fn rounds_scale_linearly_in_k() {
        let g = generators::harary(4, 30, 1);
        let s2 = sparse_certificate(&g, 2);
        let s4 = sparse_certificate(&g, 4);
        assert_eq!(s4.ledger.total(), 2 * s2.ledger.total());
    }

    #[test]
    fn weighted_instances_can_be_very_suboptimal() {
        // Cycle of cheap edges plus a clique of expensive edges: the
        // certificate picks forests greedily by edge id (ignoring weight) and
        // ends up paying for expensive edges even though the cheap cycle is a
        // feasible 2-ECSS.
        let n = 12;
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, 1_000);
        }
        for u in 0..n {
            for v in (u + 1)..n {
                if (u + 1) % n != v && (v + 1) % n != u {
                    g.add_edge(u, v, 1);
                }
            }
        }
        // Feasible cheap-ish solution exists (the expensive cycle costs 12k,
        // but clique edges cost 1): the point is only that the certificate
        // does not optimize weight at all, while the weighted 2-ECSS
        // algorithm does. Just sanity-check feasibility here.
        let sol = sparse_certificate(&g, 2);
        assert!(connectivity::is_k_edge_connected_in(&g, &sol.edges, 2));
    }

    #[test]
    fn stops_early_when_edges_run_out() {
        let g = generators::path(5, 1);
        let sol = sparse_certificate(&g, 3);
        assert_eq!(sol.edges.len(), 4);
    }
}
