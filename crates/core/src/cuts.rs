//! Enumeration of the small cuts that the augmentation algorithms must cover,
//! behind a pluggable [`CutEnumerator`] strategy architecture.
//!
//! `Aug_k` (Section 4) covers all cuts of size `k - 1` of a
//! `(k-1)`-edge-connected spanning subgraph `H`. Three strategies enumerate
//! those cuts, all sharing one contract — every candidate is *verified* by an
//! exact removal test (batch-parallel through a [`kecss_runtime::Executor`]),
//! so reported cuts are exact rather than w.h.p.:
//!
//! * [`ExactEnumerator`] — the specialized enumerators for sizes 1–3:
//!   bridges (Tarjan), cut pairs via cycle-space label classes (Section 5.2),
//!   and label triples XOR-ing to zero (Corollary 5.3).
//! * [`LabelEnumerator`] — the *general* label-class enumerator for arbitrary
//!   size: sample a random cycle-space labelling
//!   ([`Circulation::xor_zero_subsets`]) and enumerate the size-`s` edge
//!   subsets whose labels XOR to zero. An induced cut XORs to zero with
//!   certainty (a circulation crosses every cut evenly), so after
//!   verification this enumerator is **deterministically complete** for the
//!   induced cuts — its only failure mode is combinatorial cost, bounded by a
//!   candidate budget.
//! * [`ContractEnumerator`] — flat Karger-style repeated contraction (plus
//!   deterministic vertex-star and edge-pair seeds): `Θ(n² log n)`
//!   independent trials, each contracting from the full graph. Kept as the
//!   ablation baseline for the recursive variant below.
//! * [`KargerSteinEnumerator`] — the recursive Karger–Stein variant
//!   (DESIGN.md §12): contract to `⌈n/√2⌉ + 1` super-vertices, recurse twice
//!   with seeds derived from the recursion *path*, enumerate bipartitions
//!   exhaustively at the base. Sharing contraction prefixes cuts the total
//!   work to `O(n² log² n)` per repetition round; the independent repetition
//!   roots run on the [`Executor`] with results merged in path order, so
//!   `Threaded(n)` stays bit-identical to `Sequential`. Complete w.h.p.;
//!   `Aug_k` additionally certifies the augmented subgraph exactly and
//!   re-enumerates with fresh randomness on a miss, so the pipeline's
//!   *output* is always exact (the same contract the flat fallback had).
//!
//! [`AutoEnumerator`] picks per size: exact specializations for `1..=3`, the
//! label enumerator above that, Karger–Stein when the label budget trips.
//! This lifts the former `k <= 4` cap of the whole k-ECSS pipeline: any `k`
//! is now reachable (DESIGN.md §6).
//!
//! Because a `(k-1)`-edge-connected graph has at most `binom(n, 2)` minimum
//! cuts (the paper cites [19, 6]), the enumeration is polynomial in the
//! regime the driver uses it in (`size = λ(H)`); the verification step only
//! runs on filtered candidates, so false positives cost little.

mod karger_stein;

pub use karger_stein::KargerSteinEnumerator;

use crate::cycle_space::Circulation;
use crate::error::{Error, Result};
use graphs::{connectivity, dsu::DisjointSets, EdgeId, EdgeSet, Graph, NodeId, RootedTree};
use kecss_runtime::Executor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// The largest cut size the [`ExactEnumerator`] specializations handle.
/// Larger sizes go through [`LabelEnumerator`] / [`ContractEnumerator`]
/// (which is what [`AutoEnumerator`] arranges), so this is **not** a cap on
/// the pipeline's `k` any more.
pub const EXACT_MAX_CUT_SIZE: usize = 3;

/// Default budget on label-class candidate visits before the pool counts as
/// "exploded" and [`AutoEnumerator`] falls back to contraction.
pub const DEFAULT_LABEL_BUDGET: u64 = 4_000_000;

/// A single cut: the edge ids, sorted.
pub type Cut = Vec<EdgeId>;

/// Whether removing `cut` from the subgraph `(V, h)` disconnects it.
pub fn disconnects(graph: &Graph, h: &EdgeSet, cut: &[EdgeId]) -> bool {
    !connectivity::is_connected_after_removal(graph, h, cut)
}

/// Whether the edge `e` (an edge of `graph`, not necessarily of `h`) covers
/// the cut `cut` of the subgraph `(V, h)`: i.e. `(h \ cut) ∪ {e}` is
/// connected (Definition 2.1).
pub fn covers(graph: &Graph, h: &EdgeSet, cut: &[EdgeId], e: EdgeId) -> bool {
    let mut sub = h.clone();
    for c in cut {
        sub.remove(*c);
    }
    sub.insert(e);
    connectivity::is_connected_in(graph, &sub)
}

/// A strategy for enumerating the cuts of exactly `size` edges of a connected
/// subgraph `(V, h)`.
///
/// # Contract
///
/// * The result is sorted (each cut's ids ascending, cuts in lexicographic
///   order) and every reported cut is *verified*: its removal genuinely
///   disconnects `(V, h)`.
/// * When `h` is `size`-edge-connected — the regime the `Aug_k` driver always
///   calls from — the cuts of size `size` are exactly the minimum cuts, and
///   every implementation aims to report all of them ([`ExactEnumerator`] and
///   [`LabelEnumerator`] deterministically, [`ContractEnumerator`] w.h.p.).
///   When `h` has smaller cuts, non-induced edge subsets that happen to
///   disconnect (e.g. a bridge plus an arbitrary edge) are *not* reported,
///   matching the pre-refactor behavior.
/// * `salt` perturbs any internal randomness; implementations must be
///   deterministic functions of `(graph, h, size, salt)`, so results are
///   bit-identical for every `exec` (DESIGN.md §8). Either keep all RNG
///   draws on the calling thread, or — like [`KargerSteinEnumerator`] — give
///   every parallel work item an RNG seeded purely from `(salt, item path)`
///   and merge results in item order (DESIGN.md §12). Retrying with a fresh
///   `salt` re-rolls a randomized enumerator (and escalates its effort);
///   deterministic enumerators may ignore it.
///
/// # Errors
///
/// * [`Error::InvalidCutRequest`] if `size == 0`, `h` is disconnected, or the
///   strategy does not implement the requested size;
/// * [`Error::CandidateOverflow`] if a candidate budget was exceeded.
pub trait CutEnumerator: Sync {
    /// The strategy's display name (`exact`, `label`, `contract`, `auto`).
    fn name(&self) -> &'static str;

    /// Enumerates every cut of exactly `size` edges of `(V, h)`, verifying
    /// the candidates' removal tests through `exec`.
    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>>;
}

/// Which [`CutEnumerator`] strategy to use; the CLI's `--enumerator` flag
/// parses into this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EnumeratorPolicy {
    /// [`ExactEnumerator`]: sizes 1–3 only.
    Exact,
    /// [`LabelEnumerator`]: any size, bounded by the candidate budget.
    Label,
    /// [`ContractEnumerator`]: any size, randomized flat contraction.
    Contract,
    /// [`KargerSteinEnumerator`]: any size, recursive contraction.
    Ks,
    /// [`AutoEnumerator`]: exact below 4, label above, Karger–Stein fallback.
    #[default]
    Auto,
}

impl EnumeratorPolicy {
    /// Parses a policy name as used by the CLI flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(EnumeratorPolicy::Exact),
            "label" => Some(EnumeratorPolicy::Label),
            "contract" => Some(EnumeratorPolicy::Contract),
            "ks" => Some(EnumeratorPolicy::Ks),
            "auto" => Some(EnumeratorPolicy::Auto),
            _ => None,
        }
    }

    /// The policy's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            EnumeratorPolicy::Exact => "exact",
            EnumeratorPolicy::Label => "label",
            EnumeratorPolicy::Contract => "contract",
            EnumeratorPolicy::Ks => "ks",
            EnumeratorPolicy::Auto => "auto",
        }
    }

    /// Builds the corresponding enumerator with default parameters.
    pub fn build(self) -> Box<dyn CutEnumerator + Send + Sync> {
        match self {
            EnumeratorPolicy::Exact => Box::new(ExactEnumerator),
            EnumeratorPolicy::Label => Box::new(LabelEnumerator::default()),
            EnumeratorPolicy::Contract => Box::new(ContractEnumerator::default()),
            EnumeratorPolicy::Ks => Box::new(KargerSteinEnumerator::default()),
            EnumeratorPolicy::Auto => Box::new(AutoEnumerator::default()),
        }
    }
}

/// Validates the common preconditions shared by every enumerator.
fn check_request(graph: &Graph, h: &EdgeSet, size: usize) -> Result<()> {
    if size == 0 {
        return Err(Error::InvalidCutRequest {
            reason: "cut size must be at least 1".into(),
        });
    }
    if !connectivity::is_connected_in(graph, h) {
        return Err(Error::InvalidCutRequest {
            reason: "cut enumeration requires a connected subgraph".into(),
        });
    }
    Ok(())
}

/// Keeps the candidates whose removal disconnects `(V, h)`, running the
/// (independent) removal tests through `exec` in batches. Counts the batch
/// in the per-strategy `solver_enum_*` metrics (observation only — the
/// verdicts and their order are untouched).
fn verify_candidates(
    graph: &Graph,
    h: &EdgeSet,
    candidates: Vec<Cut>,
    exec: &Executor,
    strategy: &'static str,
) -> Vec<Cut> {
    kecss_obs::counter_with("solver_enum_candidates_total", &[("strategy", strategy)])
        .add(candidates.len() as u64);
    let verdicts = exec.map(&candidates, |cut| disconnects(graph, h, cut));
    let out: Vec<Cut> = candidates
        .into_iter()
        .zip(verdicts)
        .filter_map(|(cut, is_cut)| is_cut.then_some(cut))
        .collect();
    kecss_obs::counter_with("solver_enum_cuts_total", &[("strategy", strategy)])
        .add(out.len() as u64);
    out
}

/// The base seed of the enumeration labellings. With `salt = 0` the sampled
/// circulation is bit-identical to the pre-refactor enumerators'.
const LABEL_SEED: u64 = 0x6b65_6373_735f_6375;

fn labels_for(graph: &Graph, h: &EdgeSet, salt: u64) -> Circulation {
    // The seed is arbitrary: label equality is only used to *filter*
    // candidates, every candidate is verified exactly, and real induced cuts
    // always pass the filter (one-sided error). `salt` re-rolls the labels on
    // certification retries.
    let mut rng = ChaCha8Rng::seed_from_u64(LABEL_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let bfs = graphs::bfs::bfs_in(graph, h, 0);
    let tree = RootedTree::new(graph, &bfs.tree_edges(graph), bfs.root);
    Circulation::sample(graph, h, &tree, 64, &mut rng)
}

/// The exact specializations for cut sizes 1–3 (the pre-refactor
/// enumerators): bridges, label-class cut pairs, XOR-zero label triples.
///
/// Deterministically complete on its sizes; requests for size > 3 return
/// [`Error::InvalidCutRequest`] — use [`LabelEnumerator`],
/// [`ContractEnumerator`] or [`AutoEnumerator`] instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactEnumerator;

impl CutEnumerator for ExactEnumerator {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        check_request(graph, h, size)?;
        match size {
            1 => {
                let bridges: Vec<Cut> = connectivity::bridges_in(graph, h)
                    .into_iter()
                    .map(|b| vec![b])
                    .collect();
                let n = bridges.len() as u64;
                kecss_obs::counter_with("solver_enum_candidates_total", &[("strategy", "exact")])
                    .add(n);
                kecss_obs::counter_with("solver_enum_cuts_total", &[("strategy", "exact")]).add(n);
                Ok(bridges)
            }
            2 => Ok(cut_pairs(graph, h, salt, exec)),
            3 => Ok(cut_triples(graph, h, salt, exec)),
            _ => Err(Error::InvalidCutRequest {
                reason: format!(
                    "the exact enumerator handles cut sizes 1..={EXACT_MAX_CUT_SIZE}, \
                     got {size}; use the 'label', 'contract' or 'auto' strategy"
                ),
            }),
        }
    }
}

/// All cuts of size exactly 2 (cut pairs) of the connected subgraph `(V, h)`.
fn cut_pairs(graph: &Graph, h: &EdgeSet, salt: u64, exec: &Executor) -> Vec<Cut> {
    let circulation = labels_for(graph, h, salt);
    let candidates = circulation
        .cut_pairs()
        .into_iter()
        .map(|(a, b)| vec![a, b])
        .collect();
    let mut out = verify_candidates(graph, h, candidates, exec, "exact");
    out.sort();
    out
}

/// All cuts of size exactly 3 of the connected subgraph `(V, h)`.
fn cut_triples(graph: &Graph, h: &EdgeSet, salt: u64, exec: &Executor) -> Vec<Cut> {
    let circulation = labels_for(graph, h, salt);
    let ids: Vec<EdgeId> = h.iter().collect();
    let labels: Vec<u64> = ids
        .iter()
        .map(|&id| circulation.label(id).expect("edge of h has a label"))
        .collect();
    let mut candidates = Vec::new();
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            // Complete the pair with every later edge carrying the XOR of
            // its labels.
            let Some(completions) = circulation.edges_with_label(labels[i] ^ labels[j]) else {
                continue;
            };
            let (a, b) = (ids[i], ids[j]);
            for &c in &completions[completions.partition_point(|&c| c <= b)..] {
                candidates.push(vec![a, b, c]);
            }
        }
    }
    let mut out = verify_candidates(graph, h, candidates, exec, "exact");
    out.sort();
    out
}

/// The general cycle-space label enumerator for arbitrary cut size
/// (Corollary 5.3 generalized): enumerate the size-`s` edge subsets of `h`
/// whose sampled 64-bit labels XOR to zero, then verify each by an exact
/// removal test. Induced cuts XOR to zero with certainty, so the result is
/// deterministically complete for the induced cuts of `(V, h)` — at a
/// combinatorial candidate-generation cost of `O(binom(|h|, size - 1))`,
/// bounded by `budget`.
#[derive(Clone, Copy, Debug)]
pub struct LabelEnumerator {
    /// Maximum candidate visits before [`Error::CandidateOverflow`].
    pub budget: u64,
}

impl Default for LabelEnumerator {
    fn default() -> Self {
        LabelEnumerator {
            budget: DEFAULT_LABEL_BUDGET,
        }
    }
}

impl LabelEnumerator {
    /// A label enumerator with an explicit candidate budget.
    pub fn with_budget(budget: u64) -> Self {
        LabelEnumerator { budget }
    }
}

impl CutEnumerator for LabelEnumerator {
    fn name(&self) -> &'static str {
        "label"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        check_request(graph, h, size)?;
        let circulation = labels_for(graph, h, salt);
        let Some(candidates) = circulation.xor_zero_subsets(size, self.budget) else {
            kecss_obs::counter_with("solver_enum_overflow_total", &[("strategy", "label")]).inc();
            return Err(Error::CandidateOverflow {
                size,
                budget: self.budget,
            });
        };
        let mut out = verify_candidates(graph, h, candidates, exec, "label");
        out.sort();
        Ok(out)
    }
}

/// The base seed of the contraction trials (mixed with the salt).
const CONTRACT_SEED: u64 = 0xc027_7ac7_10e5_eed5;

/// `⌈log2 n⌉` (1 for `n <= 2`) — the integer log the contraction effort
/// formulas are built from, keeping the hot path float-free and
/// platform-independent.
pub(crate) fn ceil_log2(n: usize) -> u64 {
    u64::from(u64::BITS - (n.max(2) as u64 - 1).leading_zeros())
}

/// An integer upper bound on `⌈ln n⌉`: `⌈0.693 · ⌈log2 n⌉⌉`. Agrees with the
/// float formula at every power of two (in particular the bench workloads'
/// sizes) and is never smaller, so the w.h.p. trial-count argument carries
/// over unchanged.
pub(crate) fn ceil_ln(n: usize) -> u64 {
    (ceil_log2(n) * 693).div_ceil(1000)
}

/// Inserts the deterministic candidate seeds shared by the contraction
/// enumerators into `candidates`: vertex stars `δ(v)` and adjacent-pair
/// boundaries `δ({u, v})` whose crossing size matches. These cover the
/// common minimum cuts of near-regular graphs before any random trial runs.
fn seed_candidates(graph: &Graph, h: &EdgeSet, size: usize, candidates: &mut BTreeSet<Cut>) {
    let star = |v: NodeId| -> Vec<EdgeId> {
        graph
            .neighbors(v)
            .iter()
            .filter(|(_, id)| h.contains(*id))
            .map(|&(_, id)| id)
            .collect()
    };
    for v in 0..graph.n() {
        let mut s = star(v);
        if s.len() == size {
            s.sort();
            candidates.insert(s);
        }
    }
    for id in h.iter() {
        let e = graph.edge(id);
        let mut boundary: Vec<EdgeId> = star(e.u)
            .into_iter()
            .chain(star(e.v))
            .filter(|&b| {
                let be = graph.edge(b);
                !(be.has_endpoint(e.u) && be.has_endpoint(e.v))
            })
            .collect();
        if boundary.len() == size {
            boundary.sort();
            candidates.insert(boundary);
        }
    }
}

/// Flat Karger-style randomized contraction for arbitrary cut size:
/// repeatedly contract uniformly random edges of `h` until two
/// super-vertices remain; the crossing edges form an induced cut, kept when
/// its size matches. The deterministic candidate seeds of
/// `seed_candidates` run first. Every candidate is still verified by the
/// exact removal test.
///
/// With `trials = Θ(n² log n)` every minimum cut is found w.h.p. (each
/// survives one contraction with probability `≥ 2/(n(n-1))`); the default
/// trial count uses that formula. The `salt` doubles the trial count on each
/// certification retry (up to 32×) in addition to re-seeding the RNG, so the
/// `Aug_k` retry loop escalates rather than replays.
///
/// This is the ablation baseline for [`KargerSteinEnumerator`], which shares
/// contraction prefixes through recursion instead of restarting every trial
/// from the full graph. The trial loop reuses one shuffle order, one
/// [`DisjointSets`] forest and one cut buffer across all trials — no
/// per-trial allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContractEnumerator {
    /// Number of contraction trials; `None` uses [`ContractEnumerator::default_trials`].
    pub trials: Option<u64>,
}

impl ContractEnumerator {
    /// A contraction enumerator with an explicit trial count.
    pub fn with_trials(trials: u64) -> Self {
        ContractEnumerator {
            trials: Some(trials),
        }
    }

    /// The default trial count for an `n`-vertex subgraph: `2 n² ⌈ln n⌉`,
    /// at least 512, with the log computed by the integer bound `ceil_ln`
    /// (no floats on the hot path).
    pub fn default_trials(n: usize) -> u64 {
        let n = n as u64;
        (2 * n * n * ceil_ln(n as usize)).max(512)
    }
}

impl CutEnumerator for ContractEnumerator {
    fn name(&self) -> &'static str {
        "contract"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        check_request(graph, h, size)?;
        let n = graph.n();
        let ids: Vec<EdgeId> = h.iter().collect();
        // The endpoints of every edge of h, hoisted out of the trial loop.
        let ends: Vec<(NodeId, NodeId)> = ids
            .iter()
            .map(|&id| {
                let e = graph.edge(id);
                (e.u, e.v)
            })
            .collect();
        // BTreeSet: dedups across trials and yields candidates in sorted
        // (deterministic) order for the batch verification.
        let mut candidates: BTreeSet<Cut> = BTreeSet::new();
        seed_candidates(graph, h, size, &mut candidates);

        // Randomized contraction trials. All RNG draws stay on the calling
        // thread (DESIGN.md §8); only the removal verification parallelizes.
        // The shuffle order, the union-find forest and the candidate buffer
        // are allocated once and reset per trial.
        let base = self.trials.unwrap_or_else(|| Self::default_trials(n));
        let trials = base.saturating_mul(1u64 << salt.min(5));
        let mut rng =
            ChaCha8Rng::seed_from_u64(CONTRACT_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut order: Vec<usize> = (0..ids.len()).collect();
        let mut dsu = DisjointSets::new(n);
        let mut cut_buf: Cut = Vec::with_capacity(size);
        for trial in 0..trials {
            order.shuffle(&mut rng);
            if trial > 0 {
                dsu.reset();
            }
            for &i in &order {
                if dsu.component_count() == 2 {
                    break;
                }
                let (u, v) = ends[i];
                dsu.union(u, v);
            }
            if dsu.component_count() != 2 {
                continue;
            }
            cut_buf.clear();
            cut_buf.extend(
                ids.iter()
                    .zip(&ends)
                    .filter(|&(_, &(u, v))| dsu.find(u) != dsu.find(v))
                    .map(|(&id, _)| id),
            );
            if cut_buf.len() == size && !candidates.contains(cut_buf.as_slice()) {
                candidates.insert(cut_buf.clone());
            }
        }

        let candidates: Vec<Cut> = candidates.into_iter().collect();
        let mut out = verify_candidates(graph, h, candidates, exec, "contract");
        out.sort();
        Ok(out)
    }
}

/// The per-size policy: [`ExactEnumerator`] for sizes `1..=3`,
/// [`LabelEnumerator`] above, and the [`KargerSteinEnumerator`] fallback
/// when the label-class candidate pool explodes (the flat
/// [`ContractEnumerator`] stays available as the `contract` ablation
/// strategy). This is the default everywhere.
#[derive(Clone, Copy, Debug)]
pub struct AutoEnumerator {
    /// Budget for the label stage (see [`LabelEnumerator`]).
    pub label_budget: u64,
    /// Repetition override for the Karger–Stein fallback (see
    /// [`KargerSteinEnumerator`]).
    pub repetitions: Option<u64>,
}

impl Default for AutoEnumerator {
    fn default() -> Self {
        AutoEnumerator {
            label_budget: DEFAULT_LABEL_BUDGET,
            repetitions: None,
        }
    }
}

impl CutEnumerator for AutoEnumerator {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn cuts(
        &self,
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        salt: u64,
        exec: &Executor,
    ) -> Result<Vec<Cut>> {
        if size <= EXACT_MAX_CUT_SIZE {
            return ExactEnumerator.cuts(graph, h, size, salt, exec);
        }
        match LabelEnumerator::with_budget(self.label_budget).cuts(graph, h, size, salt, exec) {
            Err(Error::CandidateOverflow { .. }) => {
                kecss_obs::counter_with(
                    "solver_enum_fallback_total",
                    &[("from", "label"), ("to", "ks")],
                )
                .inc();
                kecss_obs::event("enum_fallback", &[("from", "label"), ("to", "ks")]);
                KargerSteinEnumerator {
                    repetitions: self.repetitions,
                }
                .cuts(graph, h, size, salt, exec)
            }
            other => other,
        }
    }
}

/// Enumerates every cut of exactly `size` edges of the connected subgraph
/// `(V, h)` with the default [`AutoEnumerator`] policy.
///
/// The subgraph being `size`-edge-connected *or better is not required*:
/// cuts smaller than `size` may exist and are not reported; the augmentation
/// driver always calls this with `size = k - 1` on a `(k-1)`-edge-connected
/// `H`, where the reported cuts are exactly the minimum cuts.
///
/// # Errors
///
/// [`Error::InvalidCutRequest`] if `size` is 0 or `h` is disconnected.
pub fn cuts_of_size(graph: &Graph, h: &EdgeSet, size: usize) -> Result<Vec<Cut>> {
    cuts_of_size_with(graph, h, size, &Executor::Sequential)
}

/// Same as [`cuts_of_size`], verifying the filtered candidates through
/// `exec`: the removal test of each candidate is independent, so candidates
/// are checked in parallel. The result is bit-identical to the sequential
/// enumeration for every executor (candidates are generated, verified and
/// collected in a fixed order).
///
/// # Errors
///
/// Same conditions as [`cuts_of_size`].
pub fn cuts_of_size_with(
    graph: &Graph,
    h: &EdgeSet,
    size: usize,
    exec: &Executor,
) -> Result<Vec<Cut>> {
    AutoEnumerator::default().cuts(graph, h, size, 0, exec)
}

/// A family of cuts of a subgraph `H`, with the bipartition of each cut
/// precomputed so that "does edge `e` cover cut `C`?" is an `O(1)` query.
///
/// For a minimal cut `C` of a connected `H`, `H \ C` has exactly two
/// connected components; an edge covers the cut iff its endpoints lie in
/// different components.
#[derive(Clone, Debug)]
pub struct CutFamily {
    cuts: Vec<Cut>,
    /// `sides[c][v]` — the side of vertex `v` for cut `c`.
    sides: Vec<Vec<bool>>,
}

impl CutFamily {
    /// Enumerates all cuts of exactly `size` edges of `(V, h)` with the
    /// default [`AutoEnumerator`] and precomputes their bipartitions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cuts_of_size`].
    ///
    /// # Panics
    ///
    /// Panics if some enumerated cut does not split `H` into exactly two
    /// components (which cannot happen for minimum cuts of a
    /// `size`-edge-connected `H`).
    pub fn enumerate(graph: &Graph, h: &EdgeSet, size: usize) -> Result<Self> {
        Self::enumerate_with(graph, h, size, &Executor::Sequential)
    }

    /// Same as [`CutFamily::enumerate`], running both the candidate removal
    /// tests and the per-cut bipartitions through `exec` (each cut's
    /// bipartition is an independent connected-components computation).
    /// Bit-identical to the sequential enumeration for every executor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CutFamily::enumerate`].
    pub fn enumerate_with(
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        exec: &Executor,
    ) -> Result<Self> {
        Self::enumerate_with_enumerator(graph, h, size, &AutoEnumerator::default(), 0, exec)
    }

    /// The most general entry point: enumerate through an explicit
    /// [`CutEnumerator`] strategy and `salt`.
    ///
    /// # Errors
    ///
    /// Whatever `enumerator` returns for the request.
    pub fn enumerate_with_enumerator(
        graph: &Graph,
        h: &EdgeSet,
        size: usize,
        enumerator: &dyn CutEnumerator,
        salt: u64,
        exec: &Executor,
    ) -> Result<Self> {
        let cuts = enumerator.cuts(graph, h, size, salt, exec)?;
        Ok(Self::from_cuts_with(graph, h, cuts, exec))
    }

    /// Builds a family from explicitly provided cuts.
    ///
    /// # Panics
    ///
    /// Panics if some cut does not split `(V, h)` into exactly two components.
    pub fn from_cuts(graph: &Graph, h: &EdgeSet, cuts: Vec<Cut>) -> Self {
        Self::from_cuts_with(graph, h, cuts, &Executor::Sequential)
    }

    /// Same as [`CutFamily::from_cuts`], computing the bipartitions through
    /// `exec`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CutFamily::from_cuts`].
    pub fn from_cuts_with(graph: &Graph, h: &EdgeSet, cuts: Vec<Cut>, exec: &Executor) -> Self {
        let sides = exec.map(&cuts, |cut| bipartition(graph, h, cut));
        CutFamily { cuts, sides }
    }

    /// Keeps only the cuts whose index satisfies `keep`, carrying their
    /// precomputed bipartitions along (no recomputation).
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let flags: Vec<bool> = (0..self.cuts.len()).map(&mut keep).collect();
        let mut cut_index = 0;
        self.cuts.retain(|_| {
            cut_index += 1;
            flags[cut_index - 1]
        });
        let mut side_index = 0;
        self.sides.retain(|_| {
            side_index += 1;
            flags[side_index - 1]
        });
    }

    /// Number of cuts in the family.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// The `i`-th cut.
    pub fn cut(&self, i: usize) -> &[EdgeId] {
        &self.cuts[i]
    }

    /// All cuts.
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Whether the edge with endpoints `u`, `v` covers the `i`-th cut.
    pub fn crossed_by(&self, i: usize, u: NodeId, v: NodeId) -> bool {
        self.sides[i][u] != self.sides[i][v]
    }

    /// The indices of the cuts covered by an edge `{u, v}`.
    pub fn covered_by(&self, u: NodeId, v: NodeId) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.crossed_by(i, u, v))
            .collect()
    }
}

/// The two-sided partition of `V` obtained by removing `cut` from `(V, h)`.
///
/// # Panics
///
/// Panics if the removal does not yield exactly two components.
fn bipartition(graph: &Graph, h: &EdgeSet, cut: &[EdgeId]) -> Vec<bool> {
    let mut sub = h.clone();
    for c in cut {
        sub.remove(*c);
    }
    let (labels, count) = connectivity::connected_components_in(graph, &sub);
    assert_eq!(
        count, 2,
        "a minimal cut must split the subgraph into exactly two components, got {count}"
    );
    let reference = labels[0];
    labels.iter().map(|&l| l == reference).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    /// Exhaustive ground truth: all `size`-subsets of `h` that disconnect
    /// and are *induced* (split into exactly two components). Shared with
    /// the `karger_stein` submodule's tests.
    pub(crate) fn naive_induced_cuts(g: &Graph, h: &EdgeSet, size: usize) -> Vec<Cut> {
        let ids: Vec<EdgeId> = h.iter().collect();
        let mut out = Vec::new();
        fn rec(
            g: &Graph,
            h: &EdgeSet,
            ids: &[EdgeId],
            size: usize,
            start: usize,
            subset: &mut Vec<EdgeId>,
            out: &mut Vec<Cut>,
        ) {
            if subset.len() == size {
                let mut sub = h.clone();
                for c in subset.iter() {
                    sub.remove(*c);
                }
                let (_, count) = connectivity::connected_components_in(g, &sub);
                if count == 2 {
                    out.push(subset.clone());
                }
                return;
            }
            for i in start..ids.len() {
                subset.push(ids[i]);
                rec(g, h, ids, size, i + 1, subset, out);
                subset.pop();
            }
        }
        let mut buf = Vec::new();
        rec(g, h, &ids, size, 0, &mut buf, &mut out);
        out.sort();
        out
    }

    #[test]
    fn bridges_are_the_size_one_cuts() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 0, 1);
        let bridge = g.add_edge(2, 3, 1);
        let cuts = cuts_of_size(&g, &g.full_edge_set(), 1).unwrap();
        assert_eq!(cuts, vec![vec![bridge]]);
    }

    #[test]
    fn cycle_has_all_pairs_as_cuts() {
        let g = generators::cycle(5, 1);
        let cuts = cuts_of_size(&g, &g.full_edge_set(), 2).unwrap();
        assert_eq!(cuts.len(), 5 * 4 / 2);
    }

    #[test]
    fn cut_pairs_match_naive_enumeration() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for n in [8, 12] {
            let g = generators::random_k_edge_connected(n, 2, 4, &mut rng);
            let h = g.full_edge_set();
            let fast = cuts_of_size(&g, &h, 2).unwrap();
            let ids: Vec<EdgeId> = h.iter().collect();
            let mut naive = Vec::new();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    if disconnects(&g, &h, &[ids[i], ids[j]]) {
                        naive.push(vec![ids[i], ids[j]]);
                    }
                }
            }
            naive.sort();
            assert_eq!(fast, naive, "n = {n}");
        }
    }

    #[test]
    fn triples_on_k4_are_the_vertex_stars() {
        // K4 is 3-edge-connected; its size-3 cuts are exactly the four
        // vertex-isolating cuts δ(v).
        let g = generators::complete(4, 1);
        let h = g.full_edge_set();
        assert_eq!(connectivity::edge_connectivity(&g), 3);
        let cuts = cuts_of_size(&g, &h, 3).unwrap();
        assert_eq!(cuts.len(), 4);
        for cut in &cuts {
            assert!(disconnects(&g, &h, cut));
            // A vertex star: all three edges share a vertex.
            let edges: Vec<_> = cut.iter().map(|&id| g.edge(id)).collect();
            let shared = (0..4).find(|&v| edges.iter().all(|e| e.has_endpoint(v)));
            assert!(shared.is_some(), "cut {cut:?} is not a vertex star");
        }
    }

    #[test]
    fn triples_match_naive_enumeration_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::random_k_edge_connected(10, 3, 2, &mut rng);
        let h = g.full_edge_set();
        let fast = cuts_of_size(&g, &h, 3).unwrap();
        let ids: Vec<EdgeId> = h.iter().collect();
        let mut naive = Vec::new();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                for l in (j + 1)..ids.len() {
                    let cut = vec![ids[i], ids[j], ids[l]];
                    if disconnects(&g, &h, &cut) {
                        naive.push(cut);
                    }
                }
            }
        }
        naive.sort();
        assert_eq!(fast, naive);
    }

    #[test]
    fn covers_matches_definition() {
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let cut = vec![EdgeId(0), EdgeId(3)];
        assert!(disconnects(&g, &h, &cut));
        // An edge of the cut itself covers it (re-inserting it reconnects).
        assert!(covers(&g, &h, &cut, EdgeId(0)));
    }

    #[test]
    fn cut_family_cover_queries_match_covers() {
        let mut g = graphs::Graph::new(6);
        // 6-cycle plus one chord.
        for v in 0..6 {
            g.add_edge(v, (v + 1) % 6, 1);
        }
        let chord = g.add_edge(0, 3, 1);
        let mut h = g.full_edge_set();
        h.remove(chord);
        let family = CutFamily::enumerate(&g, &h, 2).unwrap();
        assert_eq!(family.len(), 6 * 5 / 2);
        assert!(!family.is_empty());
        for i in 0..family.len() {
            let cut = family.cut(i).to_vec();
            let e = g.edge(chord);
            assert_eq!(
                family.crossed_by(i, e.u, e.v),
                covers(&g, &h, &cut, chord),
                "cut {cut:?}"
            );
        }
        let covered = family.covered_by(0, 3);
        assert!(!covered.is_empty());
    }

    #[test]
    fn zero_size_and_disconnected_requests_are_errors() {
        let g = generators::cycle(4, 1);
        let err = cuts_of_size(&g, &g.full_edge_set(), 0).unwrap_err();
        assert!(matches!(err, Error::InvalidCutRequest { .. }));
        let mut disconnected = Graph::new(4);
        disconnected.add_edge(0, 1, 1);
        disconnected.add_edge(2, 3, 1);
        let err = cuts_of_size(&disconnected, &disconnected.full_edge_set(), 1).unwrap_err();
        assert!(matches!(err, Error::InvalidCutRequest { .. }));
    }

    #[test]
    fn exact_enumerator_rejects_large_sizes_but_auto_handles_them() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let err = ExactEnumerator.cuts(&g, &h, 4, 0, &exec).unwrap_err();
        assert!(matches!(err, Error::InvalidCutRequest { .. }));
        // The 3x4 torus is 4-edge-connected; auto must enumerate its 4-cuts.
        let cuts = cuts_of_size(&g, &h, 4).unwrap();
        assert!(!cuts.is_empty());
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn label_enumerator_matches_naive_induced_cuts_size_four() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::random_k_edge_connected(9, 4, 3, &mut rng);
        let h = g.full_edge_set();
        let cuts = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &Executor::Sequential)
            .unwrap();
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn contract_enumerator_matches_naive_induced_cuts_size_four() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::random_k_edge_connected(9, 4, 3, &mut rng);
        let h = g.full_edge_set();
        let cuts = ContractEnumerator::default()
            .cuts(&g, &h, 4, 0, &Executor::Sequential)
            .unwrap();
        assert_eq!(cuts, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn label_budget_overflow_is_reported_and_auto_falls_back() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let tiny = LabelEnumerator::with_budget(8);
        let err = tiny.cuts(&g, &h, 4, 0, &exec).unwrap_err();
        assert!(matches!(err, Error::CandidateOverflow { size: 4, .. }));
        let auto = AutoEnumerator {
            label_budget: 8,
            repetitions: None,
        };
        let via_fallback = auto.cuts(&g, &h, 4, 0, &exec).unwrap();
        assert_eq!(via_fallback, naive_induced_cuts(&g, &h, 4));
    }

    #[test]
    fn strategies_agree_on_legacy_sizes() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let exec = Executor::Sequential;
        for (n, k, size) in [(10, 2, 1), (10, 2, 2), (10, 3, 3)] {
            let g = generators::random_k_edge_connected(n, k, 4, &mut rng);
            let mut h = g.full_edge_set();
            if size < k {
                let id = h.iter().next().unwrap();
                let mut candidate = h.clone();
                candidate.remove(id);
                if connectivity::is_connected_in(&g, &candidate) {
                    h = candidate;
                }
            }
            let exact = ExactEnumerator.cuts(&g, &h, size, 0, &exec).unwrap();
            let label = LabelEnumerator::default()
                .cuts(&g, &h, size, 0, &exec)
                .unwrap();
            let contract = ContractEnumerator::default()
                .cuts(&g, &h, size, 0, &exec)
                .unwrap();
            assert_eq!(label, exact, "label vs exact, size {size}");
            assert_eq!(contract, exact, "contract vs exact, size {size}");
        }
    }

    #[test]
    fn salt_changes_labels_but_not_results() {
        let g = generators::torus(3, 4, 1);
        let h = g.full_edge_set();
        let exec = Executor::Sequential;
        let base = LabelEnumerator::default()
            .cuts(&g, &h, 4, 0, &exec)
            .unwrap();
        for salt in 1..4 {
            let salted = LabelEnumerator::default()
                .cuts(&g, &h, 4, salt, &exec)
                .unwrap();
            assert_eq!(salted, base, "salt {salt}");
        }
    }

    #[test]
    fn policy_parse_and_build_round_trip() {
        for (name, policy) in [
            ("exact", EnumeratorPolicy::Exact),
            ("label", EnumeratorPolicy::Label),
            ("contract", EnumeratorPolicy::Contract),
            ("ks", EnumeratorPolicy::Ks),
            ("auto", EnumeratorPolicy::Auto),
        ] {
            assert_eq!(EnumeratorPolicy::parse(name), Some(policy));
            assert_eq!(policy.name(), name);
            assert_eq!(policy.build().name(), name);
        }
        assert_eq!(EnumeratorPolicy::parse("magic"), None);
        assert_eq!(EnumeratorPolicy::default(), EnumeratorPolicy::Auto);
    }

    #[test]
    fn no_cut_pairs_in_three_connected_graph() {
        let g = generators::harary(3, 8, 1);
        assert!(cuts_of_size(&g, &g.full_edge_set(), 2).unwrap().is_empty());
    }

    #[test]
    fn parallel_enumeration_is_bit_identical_to_sequential() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for (n, k, size) in [(12, 2, 1), (12, 2, 2), (10, 3, 3), (9, 4, 4)] {
            let g = generators::random_k_edge_connected(n, k, 4, &mut rng);
            let mut h = g.full_edge_set();
            if size < k {
                // Drop one edge so smaller cuts exist without disconnecting.
                let id = h.iter().next().unwrap();
                let mut candidate = h.clone();
                candidate.remove(id);
                if connectivity::is_connected_in(&g, &candidate) {
                    h = candidate;
                }
            }
            let sequential = cuts_of_size(&g, &h, size).unwrap();
            for threads in [2, 4, 8] {
                let exec = Executor::from_threads(threads);
                assert_eq!(
                    cuts_of_size_with(&g, &h, size, &exec).unwrap(),
                    sequential,
                    "size = {size}, t = {threads}"
                );
                let fam_seq = CutFamily::enumerate(&g, &h, size).unwrap();
                let fam_par = CutFamily::enumerate_with(&g, &h, size, &exec).unwrap();
                assert_eq!(fam_par.cuts, fam_seq.cuts);
                assert_eq!(fam_par.sides, fam_seq.sides);
            }
        }
    }

    #[test]
    fn retain_keeps_cuts_and_sides_in_lockstep() {
        let g = generators::cycle(5, 1);
        let h = g.full_edge_set();
        let mut family = CutFamily::enumerate(&g, &h, 2).unwrap();
        let full = family.clone();
        assert_eq!(family.len(), 10);
        family.retain(|i| i % 3 == 0);
        assert_eq!(family.len(), 4);
        for (kept, original) in [(0usize, 0usize), (1, 3), (2, 6), (3, 9)] {
            assert_eq!(family.cut(kept), full.cut(original));
            assert_eq!(family.sides[kept], full.sides[original]);
        }
    }

    #[test]
    fn from_cuts_builds_family() {
        let g = generators::cycle(4, 1);
        let h = g.full_edge_set();
        let family = CutFamily::from_cuts(&g, &h, vec![vec![EdgeId(0), EdgeId(2)]]);
        assert_eq!(family.len(), 1);
        assert_eq!(family.cuts().len(), 1);
        assert!(family.crossed_by(0, 0, 2) || family.crossed_by(0, 1, 3));
    }
}
