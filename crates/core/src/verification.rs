//! Distributed verification of 2- and 3-edge-connectivity via cycle-space
//! sampling.
//!
//! The paper's related-work discussion (and Section 5) points out that the
//! Pritchard–Thurimella labels give an `O(D)`-round verifier for 2- and
//! 3-edge-connectivity: after labelling a spanning connected subgraph `H`,
//!
//! * an edge `e` is a **bridge** iff `φ(e) = 0` (the singleton `{e}` is an
//!   induced cut iff its XOR vanishes), so `H` is 2-edge-connected iff no
//!   edge's label is zero;
//! * two edges form a **cut pair** iff their labels are equal, so `H` is
//!   3-edge-connected iff additionally all labels are distinct.
//!
//! Both checks have one-sided error: a "not k-edge-connected" verdict is
//! always correct (real bridges / cut pairs always produce the witnessing
//! labels), while a "k-edge-connected" verdict holds with probability at
//! least `1 − n⁻ᶜ` for `Ω(log n)`-bit labels.
//!
//! The service's exact mode, [`verify_exact`], runs no labels. Its verdict
//! is the deterministic max-flow check's alone: a label rejection is always
//! correct and a label acceptance would be re-checked, so the labels can
//! never change it. It charges the label verifier's rounds all the same,
//! from the one output the ledger reads, the height of a BFS tree of `H`
//! (DESIGN.md §2).

use crate::cycle_space::{labelling_rounds, Circulation};
use crate::inferred_model;
use congest::RoundLedger;
use graphs::{connectivity, EdgeSet, Graph, RootedTree};
use rand::Rng;

/// The exact k-edge-connectivity check every solver and verifier in this
/// crate runs. At `k >= 3` it is a *sweep* of `n - 1` capped max-flows, the
/// costliest check there is, so each one is counted in the
/// `solver_connectivity_sweeps_total` counter.
pub(crate) fn is_k_edge_connected_in(graph: &Graph, h: &EdgeSet, k: usize) -> bool {
    if k >= 3 {
        kecss_obs::counter("solver_connectivity_sweeps_total").inc();
    }
    connectivity::is_k_edge_connected_in(graph, h, k)
}

/// The verdict of a connectivity verification, together with the CONGEST
/// rounds the distributed verifier would spend.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Whether the subgraph was accepted as k-edge-connected.
    pub accepted: bool,
    /// A witness for rejection: the edges of a cut of size `< k`, when one was
    /// found (`None` when accepted).
    pub witness: Option<Vec<graphs::EdgeId>>,
    /// CONGEST rounds charged by the verifier (`O(D)`).
    pub ledger: RoundLedger,
}

/// Verifies that the spanning connected subgraph `h` of `graph` is
/// 2-edge-connected, in `O(D)` rounds (labelling + one aggregation).
///
/// The verdict has one-sided error: rejections are always correct; an
/// acceptance is correct with high probability (and is exact for the label
/// width used here on all practical instance sizes).
///
/// # Panics
///
/// Panics if `h` is not connected and spanning.
pub fn verify_two_edge_connected<R: Rng>(graph: &Graph, h: &EdgeSet, rng: &mut R) -> Verdict {
    let (circulation, _tree, mut ledger) = label(graph, h, rng);
    let mut witness = None;
    for id in h.iter() {
        if circulation.label(id) == Some(0) {
            witness = Some(vec![id]);
            break;
        }
    }
    // One aggregation over the BFS tree to combine the per-vertex verdicts.
    let aggregate = ledger.model().convergecast(1);
    ledger.charge("verify/aggregate", aggregate);
    Verdict {
        accepted: witness.is_none(),
        witness,
        ledger,
    }
}

/// Verifies that the spanning connected subgraph `h` of `graph` is
/// 3-edge-connected, in `O(D)` rounds.
///
/// Rejections are always correct and come with a witnessing cut of size 1 or
/// 2; acceptances hold with high probability.
///
/// # Panics
///
/// Panics if `h` is not connected and spanning.
pub fn verify_three_edge_connected<R: Rng>(graph: &Graph, h: &EdgeSet, rng: &mut R) -> Verdict {
    let (circulation, _tree, mut ledger) = label(graph, h, rng);
    let index = circulation.index();
    let mut witness = None;
    // A zero label is a bridge; a label shared with an earlier edge is a cut
    // pair with the first edge carrying it.
    for id in h.iter() {
        if circulation.label(id) == Some(0) {
            witness = Some(vec![id]);
            break;
        }
        let class = index.class_of(id).expect("edge of h has a label");
        let first = index.class(class)[0];
        if first != id {
            witness = Some(vec![first, id]);
            break;
        }
    }
    let aggregate = ledger.model().convergecast(1);
    ledger.charge("verify/aggregate", aggregate);
    Verdict {
        accepted: witness.is_none(),
        witness,
        ledger,
    }
}

/// Exact verification: the deterministic max-flow check decides, and the
/// ledger charges what the distributed verifier would spend.
///
/// For k ∈ {2, 3} that is the label verifier of
/// [`verify_two_edge_connected`] / [`verify_three_edge_connected`]: a BFS
/// tree, labels in its height plus one round (capped at two BFS sweeps) and
/// one aggregation. Those charges need only the height of a BFS tree of `h`,
/// so no label is sampled. For other k there is no label verifier, and `h`
/// is broadcast instead. A disconnected `h` is rejected, for every k.
///
/// `_rng` is not read: the verdict and the charges are deterministic.
pub fn verify_exact<R: Rng>(graph: &Graph, h: &EdgeSet, k: usize, _rng: &mut R) -> Verdict {
    let model = inferred_model(graph);
    let mut ledger = RoundLedger::new(model);
    if matches!(k, 2 | 3) {
        let height = match graph.n() {
            0 => 0,
            _ => graphs::bfs::bfs_in(graph, h, 0).eccentricity() as u64,
        };
        ledger.charge("verify/bfs_tree", model.bfs_construction());
        ledger.charge(
            "verify/labels",
            (height + 1).min(2 * model.bfs_construction()),
        );
        ledger.charge("verify/aggregate", model.convergecast(1));
    } else {
        ledger.charge("verify/exact_fallback", model.broadcast(h.len() as u64));
    }
    Verdict {
        accepted: is_k_edge_connected_in(graph, h, k),
        witness: None,
        ledger,
    }
}

fn label<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    rng: &mut R,
) -> (Circulation, RootedTree, RoundLedger) {
    assert!(
        connectivity::is_connected_in(graph, h),
        "verification requires a connected spanning subgraph"
    );
    let model = inferred_model(graph);
    let mut ledger = RoundLedger::new(model);
    let bfs = graphs::bfs::bfs_in(graph, h, 0);
    let tree = RootedTree::new(graph, &bfs.tree_edges(graph), 0);
    ledger.charge("verify/bfs_tree", model.bfs_construction());
    let circulation = Circulation::sample(graph, h, &tree, 64, rng);
    ledger.charge(
        "verify/labels",
        labelling_rounds(&tree).min(2 * model.bfs_construction()),
    );
    (circulation, tree, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn accepts_two_edge_connected_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::cycle(12, 1);
        let v = verify_two_edge_connected(&g, &g.full_edge_set(), &mut rng);
        assert!(v.accepted);
        assert!(v.witness.is_none());
        assert!(v.ledger.total() > 0);
    }

    #[test]
    fn rejects_bridges_with_a_witness() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 1);
        let bridge = g.add_edge(2, 3, 1);
        g.add_edge(3, 4, 1);
        g.add_edge(4, 5, 1);
        g.add_edge(5, 3, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let v = verify_two_edge_connected(&g, &g.full_edge_set(), &mut rng);
        assert!(!v.accepted);
        assert_eq!(v.witness, Some(vec![bridge]));
    }

    #[test]
    fn three_edge_connectivity_verdicts_match_ground_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in [8usize, 14, 20] {
            let yes = generators::harary(3, n, 1);
            assert!(verify_three_edge_connected(&yes, &yes.full_edge_set(), &mut rng).accepted);
            let no = generators::cycle(n, 1);
            let verdict = verify_three_edge_connected(&no, &no.full_edge_set(), &mut rng);
            assert!(!verdict.accepted);
            let witness = verdict.witness.unwrap();
            assert!(
                !connectivity::is_connected_after_removal(&no, &no.full_edge_set(), &witness),
                "the rejection witness must be a real cut"
            );
        }
    }

    #[test]
    fn rejection_witnesses_are_always_real_cuts() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for seed in 0..10u64 {
            let mut inner = ChaCha8Rng::seed_from_u64(seed);
            let g = generators::random_k_edge_connected(12, 2, 3, &mut inner);
            let h = g.full_edge_set();
            let verdict = verify_three_edge_connected(&g, &h, &mut rng);
            if let Some(witness) = &verdict.witness {
                assert!(!connectivity::is_connected_after_removal(&g, &h, witness));
            } else {
                assert!(connectivity::is_k_edge_connected_in(&g, &h, 3));
            }
        }
    }

    #[test]
    fn exact_mode_agrees_with_the_max_flow_verifier() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // k = 1 is the `mst` path and k = 5 rejects the 4-connected graph.
        for k in 1..=5usize {
            for n in [10usize, 16] {
                let g = generators::harary(4, n, 1);
                let verdict = verify_exact(&g, &g.full_edge_set(), k, &mut rng);
                assert_eq!(verdict.accepted, connectivity::is_k_edge_connected(&g, k));
            }
        }
    }

    /// [`verify_exact`] as first written: the label verifier, its
    /// acceptance re-checked by the max-flow verifier. The oracle for the
    /// exact mode that samples no labels.
    fn verify_exact_with_labels<R: Rng>(
        graph: &Graph,
        h: &EdgeSet,
        k: usize,
        rng: &mut R,
    ) -> Verdict {
        let mut verdict = match k {
            2 => verify_two_edge_connected(graph, h, rng),
            3 => verify_three_edge_connected(graph, h, rng),
            _ => {
                let model = inferred_model(graph);
                let mut ledger = RoundLedger::new(model);
                ledger.charge("verify/exact_fallback", model.broadcast(h.len() as u64));
                return Verdict {
                    accepted: connectivity::is_k_edge_connected_in(graph, h, k),
                    witness: None,
                    ledger,
                };
            }
        };
        if verdict.accepted && !connectivity::is_k_edge_connected_in(graph, h, k) {
            verdict.accepted = false;
            verdict.witness = None;
        }
        verdict
    }

    #[test]
    fn exact_mode_matches_the_label_verifier_it_replaces() {
        use rand::Rng as _;
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut verdicts = [0usize; 2];
        for seed in 0..16u64 {
            let mut inner = ChaCha8Rng::seed_from_u64(seed);
            let n = 8 + 3 * seed as usize;
            let g = generators::random_k_edge_connected(n, 4, 2 * n, &mut inner);
            // A random connected spanning subgraph: a spanning tree plus
            // each other edge with probability 1/2.
            let mut h = graphs::mst::kruskal(&g);
            for id in g.edge_ids() {
                if inner.gen_bool(0.5) {
                    h.insert(id);
                }
            }
            for k in 1..=5 {
                let fast = verify_exact(&g, &h, k, &mut rng);
                let oracle = verify_exact_with_labels(&g, &h, k, &mut rng);
                assert_eq!(fast.accepted, oracle.accepted, "seed {seed}, k = {k}");
                assert_eq!(
                    fast.ledger.breakdown(),
                    oracle.ledger.breakdown(),
                    "seed {seed}, k = {k}"
                );
                verdicts[usize::from(fast.accepted)] += 1;
            }
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn exact_mode_rejects_a_disconnected_subgraph_for_every_k() {
        let g = generators::harary(4, 12, 1);
        let mut h = g.full_edge_set();
        for &(_, e) in g.neighbors(5) {
            h.remove(e);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for k in 1..=6 {
            assert!(!verify_exact(&g, &h, k, &mut rng).accepted, "k = {k}");
        }
    }

    #[test]
    fn verification_rounds_are_a_few_bfs_sweeps() {
        let g = generators::torus(5, 5, 1);
        let d = graphs::bfs::diameter(&g).unwrap() as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let v = verify_three_edge_connected(&g, &g.full_edge_set(), &mut rng);
        assert!(v.ledger.total() <= 6 * (d + 1));
    }

    #[test]
    #[should_panic(expected = "connected spanning subgraph")]
    fn rejects_disconnected_inputs() {
        let g = Graph::new(3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        verify_two_edge_connected(&g, &g.full_edge_set(), &mut rng);
    }
}
