//! `Aug_k` — augmenting a `(k-1)`-edge-connected subgraph to
//! k-edge-connectivity (Section 4 of the paper, the engine behind
//! Theorem 1.2).
//!
//! The input is a k-edge-connected graph `G` and a `(k-1)`-edge-connected
//! spanning subgraph `H`; the goal is a minimum-weight set of edges `A` such
//! that `H ∪ A` is k-edge-connected, i.e. a set covering every cut of size
//! `k - 1` of `H`.
//!
//! The distributed algorithm follows the framework of Section 2.1 with the
//! "probability guessing" symmetry breaking of Section 4:
//!
//! 1. every edge outside `H ∪ A` computes its rounded cost-effectiveness
//!    (all vertices know `H` and `A`, so this is local);
//! 2. the edges in the maximum class are candidates;
//! 3. each candidate becomes *active* with probability `p_i`, where `p_i`
//!    starts at `2^-b(m)` and doubles every `M·b(n)` iterations (and resets
//!    whenever the maximum class drops), with `b(x) = ⌊log₂ x⌋ + 1` the bit
//!    length of `x`;
//! 4. an MST of `G` is computed under the reweighting {edges of `A` → 0,
//!    active candidates → 1, others → 2}; the active candidates that appear
//!    in this MST join `A` (Claims 4.1–4.3 guarantee `A` stays a forest and
//!    every cut coverable by an active candidate gets covered). Locally the
//!    MST is not built: weight-2 edges sort after every active candidate and
//!    never decide one, so an active candidate is in the MST exactly when it
//!    joins two components of `A` plus the candidates admitted before it in
//!    id order. One union–find forest of `A`, grown in place across
//!    iterations, answers that with one `union` per active candidate;
//! 5. repeat until every `(k-1)`-cut is covered.
//!
//! The approximation ratio is `O(log n)` in expectation (Lemma 4.6), and the
//! round complexity is `O(D log³ n + n)` (Lemma 4.4): `O(log³ n)` iterations,
//! each costing an MST plus `O(D)` aggregation plus broadcasting the
//! `n_i ≤ n` newly added edges.

use crate::cover::Rounded;
use crate::cuts::{AutoEnumerator, CutEnumerator, CutFamily};
use crate::error::{Error, Result};
use crate::verification;
use congest::{CostModel, RoundLedger};
use graphs::dsu::DisjointSets;
use graphs::{connectivity, EdgeId, EdgeSet, Graph};
use kecss_runtime::Executor;
use rand::Rng;

/// The phase-length multiplier `M` of the probability schedule: the activation
/// probability doubles every `M · (⌊log₂ n⌋ + 1)` iterations at the same
/// cost-effectiveness class (the bit length of `n`, one more than `⌈log₂ n⌉`
/// when `n` is a power of two). The paper leaves the constant unspecified;
/// `M = 2` keeps the w.h.p. argument of Lemma 4.5 comfortable while bounding
/// iteration counts in practice.
pub const PHASE_MULTIPLIER: u64 = 2;

/// Safety cap on iterations (`O(log³ n)` is expected; the cap flags bugs).
const ITERATION_SAFETY_CAP: u64 = 500_000;

/// How many times the exact post-certification re-enumerates with fresh
/// randomness before giving up with [`Error::IncompleteEnumeration`]. The
/// deterministic enumerators certify on the first attempt; the contraction
/// enumerator doubles its trial count per attempt, so the total work stays
/// bounded while the miss probability vanishes geometrically.
const MAX_ENUMERATION_ATTEMPTS: u64 = 8;

/// The result of one `Aug_k` run.
#[derive(Clone, Debug)]
pub struct AugkSolution {
    /// The edges added to the augmentation (`A`).
    pub added: EdgeSet,
    /// Total weight of `A`.
    pub weight: u64,
    /// Number of candidate/activation iterations executed.
    pub iterations: u64,
    /// Number of `(k-1)`-cuts of `H` that had to be covered.
    pub cuts_covered: usize,
    /// CONGEST rounds charged.
    pub ledger: RoundLedger,
}

/// The geometric "probability guessing" schedule of Section 4.
///
/// Exposed so the unweighted 3-ECSS algorithm (Section 5) can reuse it.
#[derive(Clone, Debug)]
pub struct ProbabilitySchedule {
    /// Current activation probability `p_i = 2^{-exponent}`.
    exponent: u32,
    start_exponent: u32,
    iterations_in_phase: u64,
    phase_length: u64,
    current_class: Option<Rounded>,
}

impl ProbabilitySchedule {
    /// Creates the schedule for a graph with `n` vertices and `m` edges.
    pub fn new(n: usize, m: usize) -> Self {
        let start_exponent = usize::BITS - m.max(2).leading_zeros();
        let log_n = (usize::BITS - n.max(2).leading_zeros()) as u64;
        ProbabilitySchedule {
            exponent: start_exponent,
            start_exponent,
            iterations_in_phase: 0,
            phase_length: PHASE_MULTIPLIER * log_n,
            current_class: None,
        }
    }

    /// The activation probability for the next iteration, given the current
    /// maximum rounded cost-effectiveness class. Resets to the initial value
    /// whenever the class changes, and doubles after every completed phase.
    pub fn probability(&mut self, class: Rounded) -> f64 {
        if self.current_class != Some(class) {
            self.current_class = Some(class);
            self.exponent = self.start_exponent;
            self.iterations_in_phase = 0;
        } else if self.iterations_in_phase >= self.phase_length && self.exponent > 0 {
            self.exponent -= 1;
            self.iterations_in_phase = 0;
        }
        self.iterations_in_phase += 1;
        0.5f64.powi(self.exponent as i32)
    }

    /// The current activation probability without advancing the schedule.
    pub fn current_probability(&self) -> f64 {
        0.5f64.powi(self.exponent as i32)
    }
}

/// Augments the `(k-1)`-edge-connected spanning subgraph `h` of `graph` to
/// k-edge-connectivity, inferring the cost model from the graph diameter.
///
/// # Errors
///
/// * [`Error::ZeroK`] / [`Error::UnsupportedK`] for `k < 2` (there is no
///   upper limit on `k`: the cut enumerators handle arbitrary sizes);
/// * [`Error::InvalidSubgraph`] if `h` is not a spanning `(k-1)`-edge-connected
///   subgraph;
/// * [`Error::InsufficientConnectivity`] if `graph` itself is not
///   k-edge-connected.
pub fn augment<R: Rng>(graph: &Graph, h: &EdgeSet, k: usize, rng: &mut R) -> Result<AugkSolution> {
    let model = CostModel::new(graph.n(), graphs::bfs::diameter(graph).unwrap_or(graph.n()));
    let auto = AutoEnumerator::default();
    augment_with_enumerator(graph, h, k, model, rng, &Executor::Sequential, &auto)
}

/// Same as [`augment`], running the cut enumeration/verification and the
/// per-candidate coverage counting through `exec`. Those computations are
/// pure (they never touch `rng`), so for a fixed seed the result is
/// bit-identical to [`augment`] for every executor.
///
/// # Errors
///
/// Same conditions as [`augment`].
pub fn augment_with_exec<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    rng: &mut R,
    exec: &Executor,
) -> Result<AugkSolution> {
    let model = CostModel::new(graph.n(), graphs::bfs::diameter(graph).unwrap_or(graph.n()));
    augment_with_enumerator(graph, h, k, model, rng, exec, &AutoEnumerator::default())
}

/// The most general entry point: [`augment_with_exec`] with an explicit
/// cost model and [`CutEnumerator`] strategy.
///
/// Randomized enumerators (contraction) may miss cuts; this driver is
/// nevertheless *exact*: after the covering loop it certifies
/// `H ∪ A` k-edge-connected with the max-flow verifier, and on a miss it
/// re-enumerates with a fresh salt (escalating the enumerator's effort),
/// covers the missed cuts and re-certifies, up to a bounded number of
/// attempts. Deterministic enumerators certify on the first attempt, so the
/// legacy `k ≤ 4` behavior is unchanged bit for bit.
///
/// # Errors
///
/// Same conditions as [`augment`], plus whatever the enumerator reports
/// ([`Error::InvalidCutRequest`], [`Error::CandidateOverflow`]) and
/// [`Error::IncompleteEnumeration`] if certification keeps failing.
pub fn augment_with_enumerator<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<AugkSolution> {
    validate(graph, h, k)?;
    augment_proven(graph, h, k, model, rng, exec, enumerator)
}

/// [`augment_with_enumerator`] for a caller that has already proved what
/// `validate` checks: `k >= 2`, `graph` k-edge-connected and `h` a spanning
/// `(k-1)`-edge-connected subgraph. The k-ECSS driver has: its precheck
/// proves the first for every level, and each level's certify proves the
/// second for the next.
///
/// # Errors
///
/// Same conditions as [`augment_with_enumerator`], less the input checks.
pub(crate) fn augment_proven<R: Rng>(
    graph: &Graph,
    h: &EdgeSet,
    k: usize,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
    enumerator: &dyn CutEnumerator,
) -> Result<AugkSolution> {
    let mut ledger = RoundLedger::new(model);

    // All vertices learn the complete structure of H (|H| = O(kn) edges).
    ledger.charge("augk/learn_h", model.broadcast(h.len() as u64));

    let candidates_pool: Vec<(EdgeId, usize, usize, u64)> = graph
        .edges()
        .filter(|(id, _)| !h.contains(*id))
        .map(|(id, e)| (id, e.u, e.v, e.weight))
        .collect();

    let mut added = graph.empty_edge_set();
    let mut schedule = ProbabilitySchedule::new(graph.n(), graph.m());
    let mut iterations = 0u64;
    let mut cuts_covered = 0usize;

    let mut attempt = 0u64;
    loop {
        kecss_obs::counter("solver_augment_attempts_total").inc();
        // The cuts of size k-1 of H; with full knowledge of H every vertex
        // can enumerate them locally (local computation is free in CONGEST).
        // The candidate removal tests are independent per candidate, so they
        // run through the executor.
        let family = {
            let _span = kecss_obs::span("enumerate");
            if attempt == 0 {
                CutFamily::enumerate_with_enumerator(graph, h, k - 1, enumerator, 0, exec)?
            } else {
                // Certification failed: re-enumerate with a fresh salt and keep
                // only the cuts A does not already cover (their precomputed
                // bipartitions carry over).
                let mut fresh = CutFamily::enumerate_with_enumerator(
                    graph,
                    h,
                    k - 1,
                    enumerator,
                    attempt,
                    exec,
                )?;
                let already_covered: Vec<bool> = (0..fresh.len())
                    .map(|c| {
                        added.iter().any(|id| {
                            let e = graph.edge(id);
                            fresh.crossed_by(c, e.u, e.v)
                        })
                    })
                    .collect();
                fresh.retain(|c| !already_covered[c]);
                fresh
            }
        };
        cuts_covered += family.len();

        {
            let _span = kecss_obs::span("cover");
            cover_family(
                graph,
                k,
                &candidates_pool,
                &family,
                &mut added,
                &mut schedule,
                &mut iterations,
                &mut ledger,
                model,
                rng,
                exec,
            )?;
        }

        // Exact post-certification: H ∪ A is k-edge-connected iff every
        // induced (k-1)-cut of H is covered, so a pass proves the (possibly
        // randomized) enumeration missed nothing that matters.
        let certified = {
            let _span = kecss_obs::span("certify");
            verification::is_k_edge_connected_in(graph, &h.union(&added), k)
        };
        if certified {
            break;
        }
        attempt += 1;
        kecss_obs::counter("solver_augment_retries_total").inc();
        kecss_obs::event("augment_retry", &[("attempt", &attempt.to_string())]);
        if attempt >= MAX_ENUMERATION_ATTEMPTS {
            return Err(Error::IncompleteEnumeration {
                size: k - 1,
                attempts: attempt,
            });
        }
    }

    let weight = graph.weight_of(&added);
    Ok(AugkSolution {
        added,
        weight,
        iterations,
        cuts_covered,
        ledger,
    })
}

/// The covering loop of Section 4 for one enumerated cut family: iterate the
/// probability-guessing candidate activation and reweighted-MST selection
/// until every cut of `family` is covered by `added`.
#[allow(clippy::too_many_arguments)]
fn cover_family<R: Rng>(
    graph: &Graph,
    k: usize,
    candidates_pool: &[(EdgeId, usize, usize, u64)],
    family: &CutFamily,
    added: &mut EdgeSet,
    schedule: &mut ProbabilitySchedule,
    iterations: &mut u64,
    ledger: &mut RoundLedger,
    model: CostModel,
    rng: &mut R,
    exec: &Executor,
) -> Result<()> {
    let mut covered = vec![false; family.len()];
    let mut uncovered = family.len();

    // Per-candidate counts of *uncovered* cuts crossed. Maintained
    // incrementally: when a cut becomes covered, every candidate crossing it
    // is decremented, so the total maintenance cost over the whole run is
    // O(#cuts · #candidates) instead of that much per iteration. The initial
    // counting is independent per candidate and runs through the executor.
    let mut coverage: Vec<usize> = exec.map(candidates_pool, |&(_, u, v, _)| {
        (0..family.len())
            .filter(|&c| family.crossed_by(c, u, v))
            .count()
    });

    // The components of A, grown in place by line 4's admissions. A is not
    // empty when an earlier family's certification failed.
    let mut forest = DisjointSets::new(graph.n());
    for id in added.iter() {
        let e = graph.edge(id);
        forest.union(e.u, e.v);
    }

    // The maximum class and its members outside A (pool indices, id order).
    // Only an admission changes `coverage` or A, so both are recomputed only
    // after an iteration that admitted an edge.
    let mut target_class = None;
    let mut members: Vec<usize> = Vec::new();

    while uncovered > 0 {
        assert!(
            *iterations < ITERATION_SAFETY_CAP,
            "Aug_k exceeded the iteration safety cap; this indicates a bug"
        );
        *iterations += 1;

        // Lines 1-2: rounded cost-effectiveness and the maximum class.
        let class = match target_class {
            Some(class) => class,
            None => {
                let best = candidates_pool
                    .iter()
                    .zip(&coverage)
                    .filter_map(|(&(_, _, _, w), &c)| Rounded::of(c, w))
                    .max();
                let Some(best) = best else {
                    // Some cut cannot be covered by any remaining edge:
                    // impossible for a k-edge-connected input.
                    return Err(Error::InsufficientConnectivity {
                        required: k,
                        actual: connectivity::edge_connectivity(graph),
                    });
                };
                members.clear();
                members.extend((0..candidates_pool.len()).filter(|&i| {
                    let (id, _, _, w) = candidates_pool[i];
                    !added.contains(id) && Rounded::of(coverage[i], w) == Some(best)
                }));
                target_class = Some(best);
                best
            }
        };
        ledger.charge(
            "augk/max_cost_effectiveness",
            model.convergecast(1) + model.broadcast(1),
        );

        // Line 3: candidates of the maximum class become active with
        // probability p_i. Line 4: MST under the reweighting {A → 0,
        // active → 1, other → 2}; an active candidate is in it iff it joins
        // two components of A plus the candidates admitted before it in id
        // order, and then joins A. The draws never depend on the unions, so
        // both share one pass.
        let p = schedule.probability(class);
        ledger.charge("augk/mst", model.mst_kutten_peleg());
        let mut n_i = 0u64;
        for &i in &members {
            let (id, u, v, _) = candidates_pool[i];
            if !rng.gen_bool(p) || !forest.union(u, v) {
                continue;
            }
            added.insert(id);
            n_i += 1;
            for (c, cov) in covered.iter_mut().enumerate() {
                if !*cov && family.crossed_by(c, u, v) {
                    *cov = true;
                    uncovered -= 1;
                    // Decrement every candidate that crossed this cut.
                    for (j, &(_, cu, cv, _)) in candidates_pool.iter().enumerate() {
                        if family.crossed_by(c, cu, cv) {
                            coverage[j] = coverage[j].saturating_sub(1);
                        }
                    }
                }
            }
        }
        if n_i > 0 {
            target_class = None;
        }
        // Broadcasting the n_i newly added edges so every vertex keeps full
        // knowledge of A (Lemma 4.4 charges O(D + n_i) for this).
        ledger.charge("augk/broadcast_added", model.broadcast(n_i));
        ledger.charge("augk/termination", model.convergecast(1));
    }
    Ok(())
}

fn validate(graph: &Graph, h: &EdgeSet, k: usize) -> Result<()> {
    if k == 0 {
        return Err(Error::ZeroK);
    }
    if k < 2 {
        // Aug_k is defined for k >= 2; use an MST for the first level. There
        // is no upper limit: the pluggable enumerators handle any cut size.
        return Err(Error::UnsupportedK { k, min: 2 });
    }
    if !verification::is_k_edge_connected_in(graph, h, k - 1) {
        return Err(Error::InvalidSubgraph {
            reason: format!("H must be ({}-edge-connected and spanning", k - 1),
        });
    }
    if !verification::is_k_edge_connected_in(graph, &graph.full_edge_set(), k) {
        return Err(Error::InsufficientConnectivity {
            required: k,
            actual: connectivity::edge_connectivity(graph),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::cuts::ContractEnumerator;
    use graphs::{generators, mst};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A minimum spanning forest of all of `graph` under `weight_fn` (Kruskal,
    /// ties by edge id).
    fn kruskal_reweighted(graph: &Graph, weight_fn: impl Fn(EdgeId) -> u64) -> EdgeSet {
        let mut ids: Vec<EdgeId> = graph.edge_ids().collect();
        ids.sort_by_key(|&id| (weight_fn(id), id));
        let mut dsu = DisjointSets::new(graph.n());
        let mut forest = graph.empty_edge_set();
        for id in ids {
            let e = graph.edge(id);
            if dsu.union(e.u, e.v) {
                forest.insert(id);
            }
        }
        forest
    }

    /// The oracle for [`cover_family`]: the loop as first written, with a
    /// full Kruskal over all m edges in every iteration that has an active
    /// candidate, and two scans of the candidate pool in every iteration.
    #[allow(clippy::too_many_arguments)]
    fn reference_cover_family<R: Rng>(
        graph: &Graph,
        h: &EdgeSet,
        k: usize,
        candidates_pool: &[(EdgeId, usize, usize, u64)],
        family: &CutFamily,
        added: &mut EdgeSet,
        schedule: &mut ProbabilitySchedule,
        iterations: &mut u64,
        ledger: &mut RoundLedger,
        model: CostModel,
        rng: &mut R,
    ) -> Result<()> {
        let mut covered = vec![false; family.len()];
        let mut uncovered = family.len();
        let mut coverage: Vec<usize> = candidates_pool
            .iter()
            .map(|&(_, u, v, _)| {
                (0..family.len())
                    .filter(|&c| family.crossed_by(c, u, v))
                    .count()
            })
            .collect();

        while uncovered > 0 {
            assert!(*iterations < ITERATION_SAFETY_CAP);
            *iterations += 1;

            let mut best_class: Option<Rounded> = None;
            for (i, &(_, _, _, w)) in candidates_pool.iter().enumerate() {
                if let Some(class) = Rounded::of(coverage[i], w) {
                    best_class = Some(best_class.map_or(class, |b| b.max(class)));
                }
            }
            let Some(target_class) = best_class else {
                return Err(Error::InsufficientConnectivity {
                    required: k,
                    actual: connectivity::edge_connectivity(graph),
                });
            };
            ledger.charge(
                "augk/max_cost_effectiveness",
                model.convergecast(1) + model.broadcast(1),
            );

            let p = schedule.probability(target_class);
            let active: Vec<usize> = candidates_pool
                .iter()
                .enumerate()
                .filter(|(i, (id, _, _, w))| {
                    !added.contains(*id) && Rounded::of(coverage[*i], *w) == Some(target_class)
                })
                .filter(|_| rng.gen_bool(p))
                .map(|(i, _)| i)
                .collect();

            ledger.charge("augk/mst", model.mst_kutten_peleg());
            let mut n_i = 0u64;
            if !active.is_empty() {
                let mut is_active = vec![false; graph.m()];
                for &i in &active {
                    is_active[candidates_pool[i].0.index()] = true;
                }
                let reweighted = kruskal_reweighted(graph, |id| {
                    if added.contains(id) {
                        0
                    } else if !h.contains(id) && is_active[id.index()] {
                        1
                    } else {
                        2
                    }
                });
                for &i in &active {
                    let (id, u, v, _) = candidates_pool[i];
                    if reweighted.contains(id) {
                        added.insert(id);
                        n_i += 1;
                        for (c, cov) in covered.iter_mut().enumerate() {
                            if !*cov && family.crossed_by(c, u, v) {
                                *cov = true;
                                uncovered -= 1;
                                for (j, &(_, cu, cv, _)) in candidates_pool.iter().enumerate() {
                                    if family.crossed_by(c, cu, cv) {
                                        coverage[j] = coverage[j].saturating_sub(1);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            ledger.charge("augk/broadcast_added", model.broadcast(n_i));
            ledger.charge("augk/termination", model.convergecast(1));
        }
        Ok(())
    }

    /// Everything one cover run leaves behind: `A`, the iteration count, the
    /// ledger's breakdown and the next word of the RNG stream.
    type CoverOutcome = (EdgeSet, u64, Vec<(String, u64)>, u64);

    /// Covers `family` from `added` with [`cover_family`] (or the reference)
    /// and a generator seeded with `seed`.
    fn run_cover(
        g: &Graph,
        h: &EdgeSet,
        k: usize,
        family: &CutFamily,
        added: &EdgeSet,
        seed: u64,
        reference: bool,
    ) -> CoverOutcome {
        let pool: Vec<(EdgeId, usize, usize, u64)> = g
            .edges()
            .filter(|(id, _)| !h.contains(*id))
            .map(|(id, e)| (id, e.u, e.v, e.weight))
            .collect();
        let model = CostModel::new(g.n(), graphs::bfs::diameter(g).unwrap_or(g.n()));
        let mut added = added.clone();
        let mut schedule = ProbabilitySchedule::new(g.n(), g.m());
        let mut iterations = 0;
        let mut ledger = RoundLedger::new(model);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if reference {
            reference_cover_family(
                g,
                h,
                k,
                &pool,
                family,
                &mut added,
                &mut schedule,
                &mut iterations,
                &mut ledger,
                model,
                &mut rng,
            )
        } else {
            cover_family(
                g,
                k,
                &pool,
                family,
                &mut added,
                &mut schedule,
                &mut iterations,
                &mut ledger,
                model,
                &mut rng,
                &Executor::Sequential,
            )
        }
        .unwrap();
        (added, iterations, ledger.breakdown(), rng.next_u64())
    }

    #[test]
    fn augments_mst_to_two_edge_connectivity() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [10, 24, 48] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 40, &mut rng);
            let h = mst::kruskal(&g);
            let sol = augment(&g, &h, 2, &mut rng).unwrap();
            let union = h.union(&sol.added);
            assert!(
                connectivity::is_k_edge_connected_in(&g, &union, 2),
                "n = {n}"
            );
            assert_eq!(sol.weight, g.weight_of(&sol.added));
        }
    }

    #[test]
    fn augments_two_connected_subgraph_to_three() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_k_edge_connected(14, 3, 20, &mut rng);
        // Start from a 2-edge-connected subgraph: the sparse certificate.
        let h = baselines::thurimella::sparse_certificate(&g, 2).edges;
        let sol = augment(&g, &h, 3, &mut rng).unwrap();
        let union = h.union(&sol.added);
        assert!(connectivity::is_k_edge_connected_in(&g, &union, 3));
    }

    #[test]
    fn augments_past_the_former_cap() {
        // k = 5 needs size-4 cut enumeration, which the hardcoded
        // pre-refactor enumerators could not do.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let g = generators::random_k_edge_connected(12, 5, 10, &mut rng);
        let h = baselines::thurimella::sparse_certificate(&g, 4).edges;
        assert!(connectivity::is_k_edge_connected_in(&g, &h, 4));
        let sol = augment(&g, &h, 5, &mut rng).unwrap();
        let union = h.union(&sol.added);
        assert!(connectivity::is_k_edge_connected_in(&g, &union, 5));
    }

    #[test]
    fn cover_loop_matches_the_full_kruskal_reference() {
        let mut graph_rng = ChaCha8Rng::seed_from_u64(17);
        for k in 2..=5 {
            for n in [12, 16, 20] {
                let g = generators::random_weighted_k_edge_connected(n, k, n, 9, &mut graph_rng);
                // H is what k-ECSS hands to level k: its level k - 1 result.
                let h = crate::kecss::solve(&g, k - 1, &mut graph_rng)
                    .unwrap()
                    .subgraph;
                let family = CutFamily::enumerate(&g, &h, k - 1).unwrap();
                // From an empty A, and from the state a failed certification
                // leaves: A is a maximal forest of the candidates that do not
                // cross cut c0, and only the cuts A does not cover (c0 among
                // them) remain to be covered.
                let mut starts = vec![(g.empty_edge_set(), family.clone())];
                for c0 in [0, family.len() / 2, family.len() - 1] {
                    let mut a = g.empty_edge_set();
                    let mut forest = DisjointSets::new(g.n());
                    for (id, e) in g.edges() {
                        if !h.contains(id)
                            && !family.crossed_by(c0, e.u, e.v)
                            && forest.union(e.u, e.v)
                        {
                            a.insert(id);
                        }
                    }
                    let mut rest = family.clone();
                    rest.retain(|c| {
                        !a.iter().any(|id| {
                            let e = g.edge(id);
                            family.crossed_by(c, e.u, e.v)
                        })
                    });
                    assert!(!a.is_empty() && !rest.is_empty());
                    starts.push((a, rest));
                }
                for (a, fam) in &starts {
                    for seed in 1..=3 {
                        let fast = run_cover(&g, &h, k, fam, a, seed, false);
                        let reference = run_cover(&g, &h, k, fam, a, seed, true);
                        assert_eq!(fast, reference, "k = {k}, n = {n}, |A| = {}", a.len());
                    }
                }
            }
        }
    }

    /// `harary(4, n, 1)` with its Hamiltonian cycle as the 2-edge-connected H.
    fn harary_with_cycle(n: usize) -> (Graph, EdgeSet) {
        let g = generators::harary(4, n, 1);
        let cycle = g
            .edges()
            .filter(|(_, e)| e.u.abs_diff(e.v) == 1 || e.u.abs_diff(e.v) == n - 1)
            .map(|(id, _)| id);
        let h = EdgeSet::from_ids(g.m(), cycle);
        (g, h)
    }

    #[test]
    fn contraction_enumerator_is_certified_exact() {
        // Four contraction trials miss 2-cuts of the cycle, so certification
        // fails and the loop re-enumerates, covering the missed cuts from the
        // A it already has, until H ∪ A is exactly 3-edge-connected. The
        // pinned edges, iterations and rounds were recorded with the full
        // Kruskal cover loop.
        let (g, h) = harary_with_cycle(16);
        let model = CostModel::new(g.n(), graphs::bfs::diameter(&g).unwrap_or(g.n()));
        let retries = kecss_obs::counter("solver_augment_retries_total");
        let pinned: [(u64, &[usize], u64, u64); 4] = [
            (1, &[1, 5, 7, 11, 13, 15, 17, 21, 23, 29, 31], 117, 3658),
            (2, &[1, 3, 5, 9, 11, 15, 17, 19, 23, 25, 31], 88, 2759),
            (3, &[3, 5, 9, 11, 13, 15, 17, 19, 23, 25, 27, 29], 103, 3225),
            (4, &[1, 5, 7, 11, 13, 17, 19, 21, 23, 29, 31], 112, 3503),
        ];
        for (seed, added, iterations, rounds) in pinned {
            let before = retries.get();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let sol = augment_with_enumerator(
                &g,
                &h,
                3,
                model,
                &mut rng,
                &Executor::Sequential,
                &ContractEnumerator::with_trials(4),
            )
            .unwrap();
            assert!(
                !kecss_obs::enabled() || retries.get() > before,
                "seed {seed}: certification never failed"
            );
            let ids: Vec<usize> = sol.added.iter().map(EdgeId::index).collect();
            assert_eq!(ids, added, "seed {seed}");
            assert_eq!(sol.iterations, iterations, "seed {seed}");
            assert_eq!(sol.ledger.total(), rounds, "seed {seed}");
            assert!(connectivity::is_k_edge_connected_in(
                &g,
                &h.union(&sol.added),
                3
            ));
        }
    }

    #[test]
    fn certification_gives_up_after_the_attempt_cap() {
        // Starting from one contraction trial, doubled per attempt, the
        // enumeration keeps missing 2-cuts of the cycle of harary(4, 12):
        // after MAX_ENUMERATION_ATTEMPTS failed certifications `augment`
        // reports it instead of returning a subgraph that is not
        // 3-edge-connected.
        let (g, h) = harary_with_cycle(12);
        let model = CostModel::new(g.n(), graphs::bfs::diameter(&g).unwrap_or(g.n()));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = augment_with_enumerator(
            &g,
            &h,
            3,
            model,
            &mut rng,
            &Executor::Sequential,
            &ContractEnumerator::with_trials(1),
        )
        .unwrap_err();
        assert_eq!(
            err,
            Error::IncompleteEnumeration {
                size: 2,
                attempts: MAX_ENUMERATION_ATTEMPTS,
            }
        );
    }

    #[test]
    fn augmentation_is_forest_like() {
        // Claim 4.1: the added edge set never contains a cycle, so it has at
        // most n - 1 edges.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_weighted_k_edge_connected(30, 2, 60, 25, &mut rng);
        let h = mst::kruskal(&g);
        let sol = augment(&g, &h, 2, &mut rng).unwrap();
        assert!(sol.added.len() < g.n());
        // No cycles: adding the edges one by one to a DSU never closes a loop.
        let mut dsu = graphs::dsu::DisjointSets::new(g.n());
        for id in sol.added.iter() {
            let e = g.edge(id);
            assert!(dsu.union(e.u, e.v), "added edges must form a forest");
        }
    }

    #[test]
    fn already_connected_subgraph_needs_no_augmentation() {
        let g = generators::harary(2, 8, 1);
        let h = g.full_edge_set();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sol = augment(&g, &h, 2, &mut rng).unwrap();
        assert!(sol.added.is_empty());
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.cuts_covered, 0);
    }

    #[test]
    fn weight_is_within_logarithmic_factor_of_greedy() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut worst: f64 = 0.0;
        for _ in 0..6 {
            let g = generators::random_weighted_k_edge_connected(16, 2, 24, 20, &mut rng);
            let h = mst::kruskal(&g);
            let sol = augment(&g, &h, 2, &mut rng).unwrap();
            let family = CutFamily::enumerate(&g, &h, 1).unwrap();
            let greedy = baselines::greedy::augment_cuts(&g, &h, &family).unwrap();
            if greedy.weight > 0 {
                worst = worst.max(sol.weight as f64 / greedy.weight as f64);
            }
        }
        assert!(worst <= 6.0, "Aug_k is {worst:.2}x the greedy cost");
    }

    #[test]
    fn iteration_count_is_polylogarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [32usize, 64, 128] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 100, &mut rng);
            let h = mst::kruskal(&g);
            let sol = augment(&g, &h, 2, &mut rng).unwrap();
            let log_n = (n as f64).log2();
            assert!(
                (sol.iterations as f64) <= 20.0 * log_n.powi(3),
                "n = {n}: {} iterations exceeds O(log^3 n)",
                sol.iterations
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(augment(&g, &h, 0, &mut rng).unwrap_err(), Error::ZeroK);
        assert!(matches!(
            augment(&g, &h, 1, &mut rng).unwrap_err(),
            Error::UnsupportedK { k: 1, min: 2 }
        ));
        // k = 9 is no longer capped: the cycle simply is not 8-edge-connected,
        // so the subgraph validation rejects it.
        assert!(matches!(
            augment(&g, &h, 9, &mut rng).unwrap_err(),
            Error::InvalidSubgraph { .. }
        ));
        // The cycle is not 3-edge-connected.
        assert!(matches!(
            augment(&g, &h, 3, &mut rng).unwrap_err(),
            Error::InsufficientConnectivity { required: 3, .. }
        ));
        // H not (k-1)-connected: a spanning tree for k = 3.
        let g3 = generators::harary(3, 8, 1);
        let tree = mst::kruskal(&g3);
        assert!(matches!(
            augment(&g3, &tree, 3, &mut rng).unwrap_err(),
            Error::InvalidSubgraph { .. }
        ));
    }

    #[test]
    fn ledger_records_mst_and_broadcast_phases() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::random_weighted_k_edge_connected(20, 2, 30, 15, &mut rng);
        let h = mst::kruskal(&g);
        let sol = augment(&g, &h, 2, &mut rng).unwrap();
        assert!(sol.ledger.phase("augk/learn_h") > 0);
        assert!(sol.ledger.phase("augk/mst") > 0);
        assert!(sol.ledger.total() > 0);
    }

    #[test]
    fn parallel_augmentation_is_bit_identical_for_a_fixed_seed() {
        // The executor only parallelizes pure verification work, so with the
        // same seed every thread count must produce the same solution.
        let mut seed_rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::random_weighted_k_edge_connected(24, 2, 40, 30, &mut seed_rng);
        let h = mst::kruskal(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let sequential = augment(&g, &h, 2, &mut rng).unwrap();
        for threads in [2, 4, 8] {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let exec = Executor::from_threads(threads);
            let parallel = augment_with_exec(&g, &h, 2, &mut rng, &exec).unwrap();
            assert_eq!(parallel.added, sequential.added, "t = {threads}");
            assert_eq!(parallel.weight, sequential.weight, "t = {threads}");
            assert_eq!(parallel.iterations, sequential.iterations, "t = {threads}");
        }
    }

    #[test]
    fn probability_schedule_doubles_and_resets() {
        let mut s = ProbabilitySchedule::new(16, 64);
        let class_a = Rounded::Exponent(3);
        let class_b = Rounded::Exponent(1);
        let p0 = s.probability(class_a);
        assert!(p0 <= 1.0 / 64.0);
        // Stay in the same class long enough to see the probability double.
        let mut last = p0;
        for _ in 0..(PHASE_MULTIPLIER * 5 * 10) {
            last = s.probability(class_a);
        }
        assert!(last > p0);
        assert!(last <= 1.0);
        // A class change resets the schedule.
        let reset = s.probability(class_b);
        assert!((reset - p0).abs() < 1e-12);
        assert!(s.current_probability() > 0.0);
    }
}
