//! The max-flow enumerator of minimum cuts (Picard–Queyranne, 1980).
//!
//! Take a BFS order of `H` from vertex 0, and for each vertex `v` the set
//! `P(v)` of the vertices before it. [`FlowEnumerator`] runs the prefix sweep
//! of the connectivity verifier ([`graphs::maxflow::PrefixSweep`]), one unit
//! max-flow from `v` to `P(v)` per vertex, capped at `s + 1` for cut size
//! `s`:
//!
//! * a flow below `s` proves `λ(H) < s`, and the request is refused;
//! * a flow of exactly `s` makes the minimum `v`–`P(v)` cuts minimum cuts of
//!   `H`. Their sides containing `v` are the residual closures of the flow,
//!   listed by include/exclude branching
//!   ([`graphs::maxflow::PrefixSweep::closures`]).
//!
//! Every minimum cut `δ(S)` of `H`, with vertex 0 outside `S`, is listed
//! exactly once: at the first vertex of `S` in BFS order, the only one whose
//! prefix lies outside `S`. The enumerator draws no randomness and runs no
//! removal test: `δ(X)` of a closure `X` is a cut by construction, and
//! max-flow/min-cut duality fixes its size at `s`.

use super::{check_request, Cut, CutEnumerator};
use crate::error::{Error, Result};
use graphs::maxflow::PrefixSweep;
use graphs::{EdgeSet, Graph, NodeId};
use kecss_runtime::Executor;

/// The deterministic, complete enumerator of the minimum cuts of an
/// `s`-edge-connected `H`, from capped max-flows (see the module docs).
///
/// It ignores `salt` (it draws no randomness) and `exec` (it runs
/// sequentially). When `H` has a cut of fewer than `size` edges it returns
/// [`Error::InvalidCutRequest`]: it lists minimum cuts only. When `H` is
/// more than `size`-edge-connected the family is empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowEnumerator;

impl CutEnumerator for FlowEnumerator {
    fn name(&self) -> &'static str {
        "flow"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        _salt: u64,
        _exec: &Executor,
    ) -> Result<Vec<Cut>> {
        check_request(graph, h, size)?;
        minimum_cuts(graph, h, size).ok_or_else(|| Error::InvalidCutRequest {
            reason: format!(
                "the subgraph has a cut of fewer than {size} edges; \
                 the flow enumerator lists minimum cuts only"
            ),
        })
    }
}

/// Every cut of `size` edges of the connected subgraph `(V, h)`, sorted, when
/// `h` is `size`-edge-connected; `None` when a flow shows a smaller cut.
/// The cuts are counted under `strategy="flow"`.
pub(super) fn minimum_cuts(graph: &Graph, h: &EdgeSet, size: usize) -> Option<Vec<Cut>> {
    if graph.n() < 2 {
        return Some(Vec::new());
    }
    // No graph that fits in memory has a cut of 2^32 edges.
    let s = u32::try_from(size).ok()?;
    let mut sweep = PrefixSweep::new(graph, h).expect("the request's subgraph is connected");
    let mut cuts = Vec::new();
    for i in 1..graph.n() {
        let flow = sweep.flow(i, s.saturating_add(1));
        if flow < s {
            return None;
        }
        if flow == s {
            sweep.closures(|side, inside| {
                let cut = boundary(graph, h, side, inside);
                assert_eq!(
                    cut.len(),
                    size,
                    "a residual closure's cut is the flow value"
                );
                cuts.push(cut);
            });
        }
    }
    cuts.sort_unstable();
    let n = cuts.len() as u64;
    kecss_obs::counter_with("solver_enum_candidates_total", &[("strategy", "flow")]).add(n);
    kecss_obs::counter_with("solver_enum_cuts_total", &[("strategy", "flow")]).add(n);
    Some(cuts)
}

/// The edges of `h` leaving `side`, sorted; `inside` marks `side`.
fn boundary(graph: &Graph, h: &EdgeSet, side: &[NodeId], inside: &[bool]) -> Cut {
    let mut cut: Cut = side
        .iter()
        .flat_map(|&v| graph.neighbors(v))
        .filter(|&&(w, id)| !inside[w] && h.contains(id))
        .map(|&(_, id)| id)
        .collect();
    cut.sort_unstable();
    cut
}

#[cfg(test)]
mod tests {
    use super::super::tests::naive_induced_cuts;
    use super::*;
    use graphs::{connectivity, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn flow_matches_brute_force_on_small_graphs() {
        // A cycle, where every pair is a minimum cut and one flow has many
        // closures; Q4, whose minimum cuts are its 16 vertex stars; three
        // parallel edges; and random k-edge-connected graphs.
        let mut parallel = Graph::new(2);
        for _ in 0..3 {
            parallel.add_edge(0, 1, 1);
        }
        let mut graphs = vec![
            generators::cycle(7, 1),
            generators::hypercube(4, 1),
            parallel,
        ];
        for seed in 0..24u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let k = 2 + (seed as usize % 3);
            let n = 5 + (seed as usize % 6);
            // Harary graphs of odd k need an even n.
            let n = if k % 2 == 1 { n + n % 2 } else { n };
            graphs.push(generators::random_k_edge_connected(n, k, 3, &mut rng));
        }
        for (i, g) in graphs.iter().enumerate() {
            let h = g.full_edge_set();
            let lambda = connectivity::edge_connectivity(g);
            let cuts = FlowEnumerator
                .cuts(g, &h, lambda, 0, &Executor::Sequential)
                .unwrap();
            assert!(!cuts.is_empty());
            assert_eq!(
                cuts,
                naive_induced_cuts(g, &h, lambda),
                "graph {i}: n = {}, λ = {lambda}",
                g.n()
            );
        }
    }
}
