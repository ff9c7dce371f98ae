//! The sequential greedy set-cover augmentation (the algorithm of Section 2.1
//! before parallelization): repeatedly add the edge with maximum
//! cost-effectiveness until every cut is covered.
//!
//! This is the classical `O(log n)`-approximation; the distributed algorithms
//! are compared against it to show they lose only a constant factor in
//! quality while being exponentially faster in rounds.

use super::BaselineSolution;
use crate::cover;
use crate::cuts::{AutoEnumerator, CutEnumerator, CutFamily};
use crate::error::{Error, Result};
use crate::verification;
use graphs::{EdgeSet, Graph, RootedTree};
use kecss_runtime::Executor;

/// Greedy weighted TAP: cover all tree edges of `tree_edges` with non-tree
/// edges, always picking the edge maximizing (newly covered) / weight.
///
/// # Panics
///
/// Panics if the graph is not 2-edge-connected (some tree edge cannot be
/// covered).
pub fn tap(graph: &Graph, tree_edges: &EdgeSet) -> BaselineSolution {
    let tree = RootedTree::new(graph, tree_edges, 0);
    let non_tree: Vec<(graphs::EdgeId, usize, usize, u64)> = graph
        .edges()
        .filter(|(id, _)| !tree_edges.contains(*id))
        .map(|(id, e)| (id, e.u, e.v, e.weight))
        .collect();
    let mut covered = vec![false; graph.n()];
    covered[tree.root()] = true; // the root has no parent edge
    let mut uncovered = graph.n() - 1;
    let mut chosen = graph.empty_edge_set();

    while uncovered > 0 {
        let mut best: Option<(f64, graphs::EdgeId)> = None;
        let mut best_path: Vec<usize> = Vec::new();
        for &(id, u, v, w) in &non_tree {
            if chosen.contains(id) {
                continue;
            }
            let path: Vec<usize> = tree
                .path_edge_children(u, v)
                .into_iter()
                .filter(|&c| !covered[c])
                .collect();
            if path.is_empty() {
                continue;
            }
            let value = cover::exact(path.len(), w);
            let better = match best {
                None => true,
                Some((bv, bid)) => value > bv || (value == bv && id < bid),
            };
            if better {
                best = Some((value, id));
                best_path = path;
            }
        }
        let (_, id) = best.expect("graph must be 2-edge-connected: every tree edge has a cover");
        chosen.insert(id);
        for c in best_path {
            covered[c] = true;
            uncovered -= 1;
        }
    }

    let weight = graph.weight_of(&chosen);
    BaselineSolution {
        edges: chosen,
        weight,
    }
}

/// Greedy augmentation of a `(size+1 - 1) = size`-cut family: cover every cut
/// of the family with edges outside `h`, maximizing (newly covered) / weight.
///
/// This is the sequential counterpart of `Aug_k` with `size = k - 1`.
/// Returns `None` when some cut of the family has no covering edge outside
/// `h`: that cut is then a cut of `graph` as well.
pub fn augment_cuts(graph: &Graph, h: &EdgeSet, family: &CutFamily) -> Option<BaselineSolution> {
    let mut covered = vec![false; family.len()];
    let mut uncovered = family.len();
    let mut chosen = graph.empty_edge_set();
    let candidates: Vec<(graphs::EdgeId, usize, usize, u64)> = graph
        .edges()
        .filter(|(id, _)| !h.contains(*id))
        .map(|(id, e)| (id, e.u, e.v, e.weight))
        .collect();

    while uncovered > 0 {
        let mut best: Option<(f64, graphs::EdgeId)> = None;
        let mut best_covers: Vec<usize> = Vec::new();
        for &(id, u, v, w) in &candidates {
            if chosen.contains(id) {
                continue;
            }
            let covers: Vec<usize> = (0..family.len())
                .filter(|&c| !covered[c] && family.crossed_by(c, u, v))
                .collect();
            if covers.is_empty() {
                continue;
            }
            let value = cover::exact(covers.len(), w);
            let better = match best {
                None => true,
                Some((bv, bid)) => value > bv || (value == bv && id < bid),
            };
            if better {
                best = Some((value, id));
                best_covers = covers;
            }
        }
        let (_, id) = best?;
        chosen.insert(id);
        for c in best_covers {
            covered[c] = true;
            uncovered -= 1;
        }
    }

    let weight = graph.weight_of(&chosen);
    Some(BaselineSolution {
        edges: chosen,
        weight,
    })
}

/// Greedy weighted k-ECSS: MST for the first connectivity level, then greedy
/// cut augmentation level by level (the sequential analogue of Claim 2.1).
/// Any `k >= 1` is supported (the pluggable cut enumerators lifted the former
/// `k <= 4` cap).
///
/// # Panics
///
/// Panics where [`k_ecss_with_enumerator`] returns an error: `k == 0`, or a
/// graph that is not k-edge-connected.
pub fn k_ecss(graph: &Graph, k: usize) -> BaselineSolution {
    k_ecss_with_enumerator(graph, k, &Executor::Sequential, &AutoEnumerator::default())
        .expect("greedy k-ECSS needs k >= 1 and a k-edge-connected graph")
}

/// The most general greedy entry point: explicit executor and
/// [`CutEnumerator`] strategy. Like `Aug_k`, each level's cover is certified
/// exactly and re-enumerated with a fresh salt if a randomized enumerator
/// missed a cut, so the returned subgraph is always genuinely
/// k-edge-connected. Bit-identical for every executor (the greedy selection
/// itself is deterministic and stays sequential).
///
/// # Errors
///
/// * [`Error::ZeroK`] if `k == 0`;
/// * [`Error::InsufficientConnectivity`] if the graph is not
///   k-edge-connected. No extra check finds this: a minimum spanning
///   forest with fewer than `n - 1` edges means the graph is disconnected,
///   and at level `i`, a cut of the `(i-1)`-edge-connected `H` that no edge
///   covers is an `(i-1)`-cut of the graph, so the graph is exactly
///   `(i-1)`-edge-connected;
/// * whatever the enumerator reports, and [`Error::IncompleteEnumeration`]
///   if certification keeps failing.
pub fn k_ecss_with_enumerator(
    graph: &Graph,
    k: usize,
    exec: &Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<BaselineSolution> {
    if k == 0 {
        return Err(Error::ZeroK);
    }
    // Observational only (DESIGN.md §11) — never feeds back into the bytes.
    let _solve_span = kecss_obs::span("solve");
    const MAX_ATTEMPTS: u64 = 8;
    let mut h = {
        let _span = kecss_obs::span("mst");
        graphs::mst::kruskal(graph)
    };
    // A spanning forest with fewer than n - 1 edges is not a tree: the
    // graph is disconnected.
    if h.len() + 1 < graph.n() {
        return Err(Error::InsufficientConnectivity {
            required: k,
            actual: 0,
        });
    }
    for level in 2..=k {
        let mut attempt = 0u64;
        loop {
            let family = CutFamily::enumerate_with_enumerator(
                graph,
                &h,
                level - 1,
                enumerator,
                attempt,
                exec,
            )?;
            let added =
                augment_cuts(graph, &h, &family).ok_or(Error::InsufficientConnectivity {
                    required: k,
                    actual: level - 1,
                })?;
            h.union_with(&added.edges);
            if verification::is_k_edge_connected_in(graph, &h, level) {
                break;
            }
            attempt += 1;
            if attempt >= MAX_ATTEMPTS {
                return Err(Error::IncompleteEnumeration {
                    size: level - 1,
                    attempts: attempt,
                });
            }
        }
    }
    let weight = graph.weight_of(&h);
    Ok(BaselineSolution { edges: h, weight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{connectivity, generators, mst};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn greedy_tap_covers_every_tree_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [8, 16, 32] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 40, &mut rng);
            let tree = mst::kruskal(&g);
            let sol = tap(&g, &tree);
            let union = tree.union(&sol.edges);
            assert!(
                connectivity::is_two_edge_connected_in(&g, &union),
                "n = {n}"
            );
            assert_eq!(sol.weight, g.weight_of(&sol.edges));
        }
    }

    #[test]
    fn greedy_tap_on_cycle_picks_the_single_closing_edge() {
        let g = generators::cycle(6, 2);
        let tree = mst::kruskal(&g);
        let sol = tap(&g, &tree);
        assert_eq!(sol.edges.len(), 1);
        assert_eq!(sol.weight, 2);
    }

    #[test]
    fn greedy_prefers_cheap_wide_covers() {
        // A path 0-1-2-3 plus an expensive parallel cover per edge and one
        // cheap edge covering everything: greedy must take the cheap one.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        let expensive1 = g.add_edge(0, 1, 10);
        let expensive2 = g.add_edge(1, 2, 10);
        let cheap = g.add_edge(0, 3, 3);
        let _ = expensive1;
        let _ = expensive2;
        let tree = graphs::EdgeSet::from_ids(
            g.m(),
            [graphs::EdgeId(0), graphs::EdgeId(1), graphs::EdgeId(2)],
        );
        let sol = tap(&g, &tree);
        assert!(sol.edges.contains(cheap));
        assert_eq!(sol.weight, 3);
    }

    #[test]
    fn greedy_k_ecss_produces_k_connected_subgraph() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for k in 2..=3 {
            let g = generators::random_weighted_k_edge_connected(14, k, 20, 12, &mut rng);
            let sol = k_ecss(&g, k);
            assert!(
                connectivity::is_k_edge_connected_in(&g, &sol.edges, k),
                "k = {k}: greedy result must be {k}-edge-connected"
            );
        }
    }

    #[test]
    fn greedy_k_ecss_works_past_the_former_cap() {
        let g = generators::harary(5, 12, 1);
        let sol = k_ecss(&g, 5);
        assert!(connectivity::is_k_edge_connected_in(&g, &sol.edges, 5));
    }

    #[test]
    fn augment_cuts_covers_the_family() {
        let g = generators::cycle(8, 1);
        // H = the cycle; cover all its cut pairs to reach 3-edge-connectivity…
        // which is impossible in the cycle alone, so use a richer graph.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g2 = generators::random_k_edge_connected(10, 3, 5, &mut rng);
        let h = mst::kruskal(&g2);
        // Augment connectivity 1 -> 2: cover all bridges of H.
        let family = CutFamily::enumerate(&g2, &h, 1).unwrap();
        let sol = augment_cuts(&g2, &h, &family).unwrap();
        let union = h.union(&sol.edges);
        assert!(connectivity::is_two_edge_connected_in(&g2, &union));
        drop(g);
    }

    #[test]
    fn greedy_k_ecss_rejects_bad_input_with_an_error() {
        let cycle = generators::cycle(6, 1);
        let exec = Executor::Sequential;
        let auto = AutoEnumerator::default();
        assert_eq!(
            k_ecss_with_enumerator(&cycle, 0, &exec, &auto).unwrap_err(),
            Error::ZeroK
        );
        for k in 3..=4 {
            assert_eq!(
                k_ecss_with_enumerator(&cycle, k, &exec, &auto).unwrap_err(),
                Error::InsufficientConnectivity {
                    required: k,
                    actual: 2
                }
            );
        }
        // On a 3-edge-connected graph, levels 2 and 3 succeed and level 4
        // meets the first cut no edge covers.
        let harary = generators::harary(3, 10, 1);
        assert_eq!(
            k_ecss_with_enumerator(&harary, 5, &exec, &auto).unwrap_err(),
            Error::InsufficientConnectivity {
                required: 5,
                actual: 3
            }
        );
    }

    #[test]
    fn forest_baselines_refuse_a_disconnected_graph() {
        use crate::baselines::thurimella;
        // Two components: 0-1 and 2-3.
        let g = Graph::from_edges(4, [(0, 1, 1), (2, 3, 1)]);
        let exec = Executor::Sequential;
        let auto = AutoEnumerator::default();
        for k in 1..=3 {
            let disconnected = Error::InsufficientConnectivity {
                required: k,
                actual: 0,
            };
            assert_eq!(
                k_ecss_with_enumerator(&g, k, &exec, &auto).unwrap_err(),
                disconnected,
                "greedy, k = {k}"
            );
            assert_eq!(
                thurimella::k_ecss(&g, k).unwrap_err(),
                disconnected,
                "thurimella, k = {k}"
            );
        }
        // A connected graph is solved as before.
        let path = generators::path(4, 1);
        assert_eq!(
            k_ecss_with_enumerator(&path, 1, &exec, &auto)
                .unwrap()
                .edges
                .len(),
            3
        );
        assert_eq!(thurimella::k_ecss(&path, 1).unwrap().edges.len(), 3);
    }
}
