//! Distributed approximation of minimum k-edge-connected spanning subgraphs.
//!
//! This crate reproduces the algorithms of
//! *Distributed Approximation of Minimum k-edge-connected Spanning Subgraphs*
//! (Michal Dory, PODC 2018) in the CONGEST model:
//!
//! | Paper result | API entry point | Guarantee |
//! |---|---|---|
//! | Theorem 1.1 — weighted 2-ECSS | [`two_ecss::solve`] | O(log n)-approx, O((D+√n) log² n) rounds |
//! | Theorem 3.12 — weighted TAP | [`tap::solve`] | O(log n)-approx, O((D+√n) log² n) rounds |
//! | Theorem 1.2 — weighted k-ECSS | [`kecss::solve`] | O(k log n)-approx (expected), O(k(D log³ n + n)) rounds |
//! | Theorem 1.3 — unweighted 3-ECSS | [`three_ecss::solve`] | O(log n)-approx (expected), O(D log³ n) rounds |
//!
//! Every algorithm returns both the computed subgraph (as a
//! [`graphs::EdgeSet`] over the input graph) and a [`congest::RoundLedger`]
//! recording the CONGEST rounds charged, broken down by phase, so the
//! benchmark harness can reproduce the round-complexity claims.
//!
//! The supporting machinery is also public:
//!
//! * [`cycle_space`] — Pritchard–Thurimella cycle-space sampling (Section 5.1).
//! * [`cuts`] — pluggable [`cuts::CutEnumerator`] strategies (exact
//!   specializations, general label classes, randomized contraction) for the
//!   cuts that must be covered, at *any* cut size.
//! * [`decomposition`] — the segment / skeleton-tree decomposition of the MST
//!   (Section 3.2, Figure 1).
//! * [`cover`] — cost-effectiveness and its rounding (Section 2.1).
//! * [`baselines`] — prior work and reference solvers used in the evaluation.
//! * [`lower_bounds`] — certified lower bounds on OPT for ratio measurements.
//!
//! # Quickstart
//!
//! ```
//! use graphs::generators;
//! use kecss::two_ecss;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generators::random_weighted_k_edge_connected(24, 2, 30, 100, &mut rng);
//! let solution = two_ecss::solve(&g, &mut rng).expect("input is 2-edge-connected");
//! assert!(graphs::connectivity::is_k_edge_connected_in(&g, &solution.subgraph, 2));
//! println!("weight {} in {} rounds", solution.weight, solution.ledger.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augk;
pub mod baselines;
pub mod cover;
pub mod cuts;
pub mod cycle_space;
pub mod decomposition;
pub mod error;
pub mod kecss;
pub mod lower_bounds;
pub mod metrics;
pub mod tap;
pub mod three_ecss;
pub mod two_ecss;
pub mod verification;

pub use error::{Error, Result};

use congest::CostModel;
use graphs::Graph;

/// The cost model every entry point that is not handed one charges `graph`
/// with: its vertex count and the accounting diameter
/// [`graphs::bfs::diameter_hint`] (exact up to
/// [`graphs::bfs::EXACT_DIAMETER_MAX_N`] vertices, the double sweep above).
/// The solvers and [`verification::verify_exact`] all call it, so a solve and
/// its verification charge one D, computed once per graph, at every n.
pub(crate) fn inferred_model(graph: &Graph) -> CostModel {
    CostModel::new(
        graph.n(),
        graphs::bfs::diameter_hint(graph).unwrap_or(graph.n()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{bfs_two_ecss, thurimella};
    use kecss_runtime::Executor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A square `0 1 2 3` with a path of `p` vertices hanging off each of the
    /// corners 1, 2 and 3, and leaves on vertex 0 up to `n` vertices; every
    /// edge is tripled, so the graph is 3-edge-connected. The double sweep
    /// from vertex 0 lands on the tip of the path at corner 2, whose
    /// eccentricity is `2p + 1`, while the tips at corners 1 and 3 are
    /// `2p + 2` apart.
    fn square_with_tails(p: usize, n: usize) -> Graph {
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        for (tail, corner) in [1, 2, 3].into_iter().enumerate() {
            let first = 4 + tail * p;
            edges.push((corner, first));
            edges.extend((first..first + p - 1).map(|v| (v, v + 1)));
        }
        edges.extend((4 + 3 * p..n).map(|leaf| (0, leaf)));
        Graph::from_edges(n, edges.into_iter().flat_map(|(u, v)| [(u, v, 1); 3]))
    }

    #[test]
    fn every_inferring_entry_point_and_the_verifier_charge_one_diameter() {
        let p = 4;
        let g = square_with_tails(p, graphs::bfs::EXACT_DIAMETER_MAX_N + 4);
        let tip = |corner: usize| 4 + (corner - 1) * p + p - 1;
        assert_eq!(graphs::bfs::bfs(&g, tip(1)).dist[tip(3)], 2 * p + 2);
        let model = inferred_model(&g);
        assert_eq!(model, CostModel::new(g.n(), 2 * p + 1), "the double sweep");

        // The k of each call is the cheapest one that runs its entry point
        // to the end: the model is inferred before any k-specific work.
        let rng = || ChaCha8Rng::seed_from_u64(3);
        let two = two_ecss::solve(&g, &mut rng()).unwrap();
        let h = &two.subgraph;
        let tree = graphs::mst::kruskal(&g);
        let exec = Executor::Sequential;
        let charged = [
            ("two_ecss::solve", two.ledger),
            (
                "tap::solve",
                tap::solve(&g, &tree, &mut rng()).unwrap().ledger,
            ),
            (
                "kecss::solve",
                kecss::solve(&g, 1, &mut rng()).unwrap().ledger,
            ),
            (
                "augk::augment",
                augk::augment(&g, h, 2, &mut rng()).unwrap().ledger,
            ),
            (
                "augk::augment_with_exec",
                augk::augment_with_exec(&g, h, 2, &mut rng(), &exec)
                    .unwrap()
                    .ledger,
            ),
            (
                "three_ecss::solve",
                three_ecss::solve(&g, &mut rng()).unwrap().ledger,
            ),
            (
                "three_ecss::solve_weighted",
                three_ecss::solve_weighted(&g, &mut rng()).unwrap().ledger,
            ),
            (
                "thurimella::k_ecss",
                thurimella::k_ecss(&g, 3).unwrap().ledger,
            ),
            ("bfs_two_ecss::solve", bfs_two_ecss::solve(&g).ledger),
            (
                "verification::verify_exact",
                verification::verify_exact(&g, h, 2, &mut rng()).ledger,
            ),
        ];
        for (entry, ledger) in charged {
            assert_eq!(ledger.model(), model, "{entry}");
        }
    }
}
