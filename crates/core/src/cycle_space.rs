//! Cycle-space sampling (Pritchard–Thurimella), Section 5.1 of the paper.
//!
//! A *binary circulation* is an edge set in which every vertex has even
//! degree; the fundamental cycles of any spanning tree form a basis of the
//! cycle space (Claim 5.2). Sampling a random `b`-bit circulation assigns
//! every edge a `b`-bit label `φ(e)` such that, with probability at least
//! `1 - 2^{-b}` per query (Corollary 5.3), a set of edges `F` is an induced
//! edge cut if and only if the XOR of its labels is zero. Specialized to cut
//! pairs in a 2-edge-connected graph (Property 5.1): `{e, f}` is a cut pair
//! iff `φ(e) = φ(f)`.
//!
//! The labels are computable distributively in `O(D)` rounds by a single
//! leaf-to-root scan of a BFS tree (Lemma 5.5); this module computes the same
//! labels centrally and the callers charge the `O(D)` cost to their round
//! ledger.

use graphs::{EdgeId, EdgeSet, Graph, RootedTree};
use rand::Rng;
use std::sync::OnceLock;

/// A sampled random `b`-bit circulation over a 2-edge-connected subgraph `H`,
/// exposing the per-edge labels `φ(e)`.
#[derive(Clone, Debug)]
pub struct Circulation {
    labels: Vec<Option<u64>>,
    bits: u32,
    /// The labelled edges grouped by label, built on first use: a check that
    /// only reads single labels (the bridge test `φ(e) = 0`) never pays for it.
    index: OnceLock<LabelIndex>,
    /// Per vertex, the XOR of the labels of its incident non-tree edges, then
    /// of its subtree; kept so that a resample allocates nothing.
    subtree: Vec<u64>,
}

impl Circulation {
    /// Samples a random `bits`-bit circulation of the subgraph `h` of `graph`,
    /// using `tree` (a spanning tree of `h`) as the fundamental-cycle basis.
    ///
    /// Every non-tree edge of `h` receives an independent uniform `bits`-bit
    /// label; every tree edge receives the XOR of the labels of the non-tree
    /// edges whose fundamental cycle contains it.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64, or if `tree` contains an edge
    /// outside `h`.
    pub fn sample<R: Rng>(
        graph: &Graph,
        h: &EdgeSet,
        tree: &RootedTree,
        bits: u32,
        rng: &mut R,
    ) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "label width must be between 1 and 64 bits"
        );
        let mut circulation = Circulation {
            labels: Vec::new(),
            bits,
            index: OnceLock::new(),
            subtree: Vec::new(),
        };
        circulation.resample(graph, h, tree, rng);
        circulation
    }

    /// Redraws this circulation over `h` in its own buffers, with the same
    /// draws, in the same order, as [`Circulation::sample`] makes. An index
    /// built before is rebuilt in its own vectors.
    ///
    /// # Panics
    ///
    /// Panics if `tree` contains an edge outside `h`.
    pub(crate) fn resample<R: Rng>(
        &mut self,
        graph: &Graph,
        h: &EdgeSet,
        tree: &RootedTree,
        rng: &mut R,
    ) {
        let mask = if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        self.labels.clear();
        self.labels.resize(graph.m(), None);
        let acc = &mut self.subtree;
        acc.clear();
        acc.resize(graph.n(), 0);
        // Accumulate, per vertex, the XOR of the labels of incident non-tree
        // edges. A tree edge is the parent edge of one of its endpoints; each
        // is met once, so all of them are in `h` iff the count reaches
        // |tree| − 1.
        let mut tree_edges_in_h = 0;
        for id in h.iter() {
            let e = graph.edge(id);
            if tree.parent_edge(e.u) == Some(id) || tree.parent_edge(e.v) == Some(id) {
                tree_edges_in_h += 1;
                continue;
            }
            let label = rng.gen::<u64>() & mask;
            self.labels[id.index()] = Some(label);
            acc[e.u] ^= label;
            acc[e.v] ^= label;
        }
        assert_eq!(tree_edges_in_h + 1, tree.len(), "tree edge outside H");
        // Tree edge {v, p(v)} label = XOR of acc over the subtree of v: a
        // non-tree edge contributes to the subtree XOR once iff exactly one of
        // its endpoints lies in the subtree, i.e. iff its fundamental cycle
        // uses the tree edge.
        for &v in tree.bfs_order().iter().rev() {
            if let Some(p) = tree.parent(v) {
                let edge = tree
                    .parent_edge(v)
                    .expect("non-root vertex has a parent edge");
                self.labels[edge.index()] = Some(acc[v]);
                acc[p] ^= acc[v];
            }
        }
        if let Some(index) = self.index.get_mut() {
            index.rebuild(&self.labels);
        }
    }

    /// The label width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The label of an edge of `H`, or `None` for edges outside `H`.
    pub fn label(&self, edge: EdgeId) -> Option<u64> {
        self.labels.get(edge.index()).copied().flatten()
    }

    /// The XOR of the labels of a set of edges (all must belong to `H`).
    ///
    /// # Panics
    ///
    /// Panics if any edge has no label (is outside `H`).
    pub fn xor_of(&self, edges: &[EdgeId]) -> u64 {
        edges
            .iter()
            .map(|e| self.label(*e).expect("edge outside the labelled subgraph"))
            .fold(0, |a, b| a ^ b)
    }

    /// The edges of `H` grouped by label, built on the first call.
    pub(crate) fn index(&self) -> &LabelIndex {
        self.index.get_or_init(|| LabelIndex::build(&self.labels))
    }

    /// The edges of `H` carrying `label`, in id order, or `None` when no edge
    /// does.
    pub fn edges_with_label(&self, label: u64) -> Option<&[EdgeId]> {
        let index = self.index();
        index.find(label).map(|class| index.class(class))
    }

    /// The edges of `H` grouped by label, each group in id order and the
    /// groups in order of their first edge. Under Property 5.1 (which holds
    /// w.h.p. for `bits = Ω(log n)`), two edges of a 2-edge-connected `H`
    /// form a cut pair iff they share a label, so every group of size ≥ 2 is
    /// an equivalence class of cut pairs and the graph is 3-edge-connected iff
    /// all groups are singletons.
    pub fn label_classes(&self) -> impl ExactSizeIterator<Item = &[EdgeId]> + '_ {
        let index = self.index();
        (0..index.class_count()).map(|class| index.class(class))
    }

    /// All cut pairs implied by the labels: every unordered pair within a
    /// label class of size ≥ 2.
    pub fn cut_pairs(&self) -> Vec<(EdgeId, EdgeId)> {
        let mut pairs = Vec::new();
        for class in self.label_classes() {
            for i in 0..class.len() {
                for j in (i + 1)..class.len() {
                    pairs.push((class[i], class[j]));
                }
            }
        }
        pairs
    }

    /// Enumerates every subset of exactly `size` edges of `H` whose labels
    /// XOR to zero — the generalized label-class characterization of
    /// Corollary 5.3: an *induced* cut always XORs to zero (a circulation
    /// crosses every cut an even number of times, with certainty), and a
    /// non-cut XORs to zero only with probability `2^{-bits}` per subset.
    /// The size-2 case degenerates to the label classes of
    /// [`Circulation::label_classes`]; size 3 to XOR-completing triples.
    ///
    /// Subsets are generated in lexicographic edge-id order: the first
    /// `size - 1` edges are chosen in increasing id order and the last edge
    /// is found by a label lookup, so the total work is
    /// `O(binom(|H|, size - 1))` plus the matches. `budget` caps the number
    /// of visited partial subsets and candidate completions; `None` is
    /// returned when the cap is exceeded (the candidate pool "explodes"),
    /// signalling the caller to fall back to a sampling enumerator.
    ///
    /// A visit is one chosen prefix edge, or one edge of the label class a
    /// full prefix looks up (whether or not it comes after the prefix). The
    /// prefixes alone take `binom(|H|, size - 1) - 1` visits, one per
    /// nonempty prefix the loop bounds allow (the hockey-stick identity), so a
    /// budget below that returns `None` before visiting anything.
    pub fn xor_zero_subsets(&self, size: usize, budget: u64) -> Option<Vec<Vec<EdgeId>>> {
        assert!(size >= 1, "subset size must be at least 1");
        let labelled = self.labels.iter().flatten().count() as u64;
        if size == 1 {
            // One visit per edge.
            if labelled > budget {
                return None;
            }
            let bridges = self.edges_with_label(0).unwrap_or_default();
            return Some(bridges.iter().map(|&e| vec![e]).collect());
        }
        let prefix_visits = binomial(labelled, size as u64 - 1).saturating_sub(1);
        let completions_left = budget.checked_sub(prefix_visits)?;
        let (ids, labels): (Vec<EdgeId>, Vec<u64>) = self
            .labels
            .iter()
            .enumerate()
            .filter_map(|(i, label)| label.map(|label| (EdgeId(i), label)))
            .unzip();
        let mut search = SubsetSearch {
            index: self.index(),
            ids: &ids,
            labels: &labels,
            size,
            completions_left,
            prefix: Vec::with_capacity(size),
            out: Vec::new(),
        };
        search.extend(0, 0).then_some(search.out)
    }
}

/// The labelled edges of a [`Circulation`] grouped by label.
///
/// Classes get dense ids in order of their first edge, and each class's edges
/// are stored contiguously in id order. A label finds its class through an
/// open-addressing table with linear probing, whose home slot is the label's
/// own low bits: the labels are uniform words from the sampler's RNG (XORs of
/// them on tree edges), never outside input, so they need no hashing.
#[derive(Clone, Debug)]
pub(crate) struct LabelIndex {
    /// The class of every edge of the graph; `NO_CLASS` for unlabelled edges.
    class_of: Vec<u32>,
    /// Class `c` holds `edges[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    edges: Vec<EdgeId>,
    /// The label of each class.
    class_label: Vec<u64>,
    /// A class id per slot, `NO_CLASS` when empty. At most one slot in
    /// `SLOTS_PER_EDGE` is used, so most lookups of an absent label stop at
    /// an empty home slot on a branch the CPU predicts.
    slots: Vec<u32>,
}

const NO_CLASS: u32 = u32::MAX;

/// Table slots per labelled edge, before rounding up to a power of two.
const SLOTS_PER_EDGE: usize = 8;

impl LabelIndex {
    fn build(labels: &[Option<u64>]) -> Self {
        let mut index = LabelIndex {
            class_of: Vec::new(),
            start: Vec::new(),
            edges: Vec::new(),
            class_label: Vec::new(),
            slots: Vec::new(),
        };
        index.rebuild(labels);
        index
    }

    /// Regroups `labels` in this index's own vectors.
    fn rebuild(&mut self, labels: &[Option<u64>]) {
        let labelled = labels.iter().flatten().count();
        assert!(
            labelled < NO_CLASS as usize,
            "too many labelled edges for the label index"
        );
        self.class_of.clear();
        self.class_of.resize(labels.len(), NO_CLASS);
        // Class sizes first, then the end of each class.
        self.start.clear();
        self.edges.clear();
        self.edges.resize(labelled, EdgeId(0));
        self.class_label.clear();
        self.slots.clear();
        self.slots
            .resize((SLOTS_PER_EDGE * labelled).next_power_of_two(), NO_CLASS);
        for (edge, label) in labels.iter().enumerate() {
            let Some(label) = *label else { continue };
            let class = match self.probe(label) {
                Ok(class) => class,
                Err(slot) => {
                    let class = self.class_label.len() as u32;
                    self.slots[slot] = class;
                    self.class_label.push(label);
                    self.start.push(0);
                    class
                }
            };
            self.class_of[edge] = class;
            self.start[class as usize] += 1;
        }
        let mut sum = 0;
        for entry in &mut self.start {
            sum += *entry;
            *entry = sum;
        }
        // Placing the edges from the back, each class's end moves down to its
        // start, and every class stays in id order.
        for (edge, &class) in self.class_of.iter().enumerate().rev() {
            if class != NO_CLASS {
                let start = &mut self.start[class as usize];
                *start -= 1;
                self.edges[*start as usize] = EdgeId(edge);
            }
        }
        self.start.push(sum);
    }

    /// The class of every edge, `NO_CLASS` for an unlabelled edge. Classes
    /// are numbered densely in order of their first edge, so two indexes
    /// group the same edges exactly when these slices are equal.
    pub(crate) fn partition(&self) -> &[u32] {
        &self.class_of
    }

    /// The number of distinct labels.
    pub(crate) fn class_count(&self) -> usize {
        self.class_label.len()
    }

    /// The edges of a class, in id order.
    pub(crate) fn class(&self, class: usize) -> &[EdgeId] {
        &self.edges[self.start[class] as usize..self.start[class + 1] as usize]
    }

    /// The class of an edge, or `None` for an unlabelled edge.
    pub(crate) fn class_of(&self, edge: EdgeId) -> Option<usize> {
        match self.class_of.get(edge.index()) {
            Some(&class) if class != NO_CLASS => Some(class as usize),
            _ => None,
        }
    }

    /// The class of the edges carrying `label`, if any.
    pub(crate) fn find(&self, label: u64) -> Option<usize> {
        self.probe(label).ok().map(|class| class as usize)
    }

    /// `Ok(class)` when `label` is present, otherwise `Err(slot)` with the
    /// empty slot where it would go.
    fn probe(&self, label: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = label as usize & mask;
        loop {
            let class = self.slots[slot];
            if class == NO_CLASS {
                return Err(slot);
            }
            if self.class_label[class as usize] == label {
                return Ok(class);
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// `binom(n, r)`, saturating at `u64::MAX`.
fn binomial(n: u64, r: u64) -> u64 {
    if r > n {
        return 0;
    }
    let r = r.min(n - r);
    let mut value: u128 = 1;
    for i in 0..r {
        // Exact: the product is `binom(n, i + 1) · (i + 1)`. The values rise
        // with `i` up to `r ≤ n / 2`, so the first to overflow decides.
        value = value * u128::from(n - i) / u128::from(i + 1);
        if value > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    value as u64
}

/// The prefix recursion of [`Circulation::xor_zero_subsets`] for sizes ≥ 2,
/// run once the prefix visits are known to fit the budget.
struct SubsetSearch<'a> {
    index: &'a LabelIndex,
    ids: &'a [EdgeId],
    labels: &'a [u64],
    size: usize,
    /// The budget left for completion visits.
    completions_left: u64,
    prefix: Vec<EdgeId>,
    out: Vec<Vec<EdgeId>>,
}

impl SubsetSearch<'_> {
    /// Extends the prefix (already XOR-ing to `acc`) with edges at indices
    /// `>= start`. The last prefix edge is chosen in a loop that completes
    /// each prefix through the label lookup. Returns `false` as soon as the
    /// completions exceed the budget.
    fn extend(&mut self, start: usize, acc: u64) -> bool {
        let needed = self.size - self.prefix.len(); // including the completing edge
        if self.ids.len() < needed {
            return true;
        }
        let end = self.ids.len() - needed;
        if needed > 2 {
            for i in start..=end {
                self.prefix.push(self.ids[i]);
                let ok = self.extend(i + 1, acc ^ self.labels[i]);
                self.prefix.pop();
                if !ok {
                    return false;
                }
            }
            return true;
        }
        for (&last, &label) in self.ids[start..=end].iter().zip(&self.labels[start..=end]) {
            // The completing edge carries the prefix's XOR and comes after it.
            let Some(class) = self.index.find(acc ^ label) else {
                continue;
            };
            let class = self.index.class(class);
            let Some(left) = self.completions_left.checked_sub(class.len() as u64) else {
                return false;
            };
            self.completions_left = left;
            for &edge in &class[class.partition_point(|&e| e <= last)..] {
                let mut subset = Vec::with_capacity(self.size);
                subset.extend_from_slice(&self.prefix);
                subset.extend([last, edge]);
                self.out.push(subset);
            }
        }
        true
    }
}

/// The number of CONGEST rounds charged for computing the labels
/// distributively: one leaf-to-root scan of the spanning tree plus the local
/// random choices (Lemma 5.5), i.e. `O(depth(tree))`.
pub fn labelling_rounds(tree: &RootedTree) -> u64 {
    tree.height() as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{connectivity, generators, mst};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn spanning_tree(graph: &Graph, h: &EdgeSet) -> RootedTree {
        let bfs = graphs::bfs::bfs_in(graph, h, 0);
        RootedTree::new(graph, &bfs.tree_edges(graph), 0)
    }

    /// Exact (slow) cut-pair test by removal.
    fn is_cut_pair(graph: &Graph, h: &EdgeSet, a: EdgeId, b: EdgeId) -> bool {
        !connectivity::is_connected_after_removal(graph, h, &[a, b])
    }

    #[test]
    fn cycle_graph_has_all_equal_labels() {
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        let labels: Vec<u64> = h.iter().map(|e| c.label(e).unwrap()).collect();
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "every pair of cycle edges is a cut pair"
        );
        assert_eq!(c.cut_pairs().len(), 6 * 5 / 2);
    }

    #[test]
    fn three_edge_connected_graph_has_distinct_labels() {
        let g = generators::complete(6, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        assert!(
            c.cut_pairs().is_empty(),
            "K6 is 5-edge-connected: no cut pairs"
        );
        assert!(c.label_classes().all(|cl| cl.len() == 1));
    }

    #[test]
    fn labels_match_exact_cut_pairs_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [8, 12, 16] {
            let g = generators::random_k_edge_connected(n, 2, 3, &mut rng);
            let h = g.full_edge_set();
            let tree = spanning_tree(&g, &h);
            let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
            // With 64-bit labels, false positives are vanishingly unlikely at
            // this size; check both directions pairwise.
            let ids: Vec<EdgeId> = h.iter().collect();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    let same = c.label(ids[i]) == c.label(ids[j]);
                    let real = is_cut_pair(&g, &h, ids[i], ids[j]);
                    assert_eq!(same, real, "pair ({:?}, {:?}) n={n}", ids[i], ids[j]);
                }
            }
        }
    }

    #[test]
    fn xor_of_a_cut_is_zero() {
        // In the 6-cycle, any two edges form a cut; their XOR must be zero.
        let g = generators::cycle(6, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        assert_eq!(c.xor_of(&[EdgeId(0), EdgeId(3)]), 0);
    }

    #[test]
    fn one_bit_labels_cannot_separate_everything() {
        // With b = 1 many non-cut pairs collide; this is the error-probability
        // regime that experiment E7 sweeps.
        let g = generators::complete(8, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let c = Circulation::sample(&g, &h, &tree, 1, &mut rng);
        // There are no real cut pairs, but with 1-bit labels collisions are
        // essentially certain among 28 edges.
        assert!(!c.cut_pairs().is_empty());
    }

    #[test]
    fn labels_only_exist_for_h_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::cycle(5, 1);
        let mut h = g.full_edge_set();
        h.remove(EdgeId(4));
        // H is now a path (spanning, connected).
        let tree = spanning_tree(&g, &h);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        assert_eq!(c.label(EdgeId(4)), None);
        assert!(c.label(EdgeId(0)).is_some());
    }

    #[test]
    fn tree_edge_label_is_xor_of_covering_nontree_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = generators::random_k_edge_connected(10, 2, 5, &mut rng);
        let h = g.full_edge_set();
        let tree_edges = mst::kruskal(&g);
        let tree = RootedTree::new(&g, &tree_edges, 0);
        let c = Circulation::sample(&g, &h, &tree, 64, &mut rng);
        for child in tree.edge_children() {
            let t = tree.parent_edge(child).unwrap();
            let mut expected = 0u64;
            for (id, e) in g.edges() {
                if tree_edges.contains(id) || !h.contains(id) {
                    continue;
                }
                if tree.path_edges(e.u, e.v).contains(&t) {
                    expected ^= c.label(id).unwrap();
                }
            }
            assert_eq!(c.label(t), Some(expected));
        }
    }

    /// The `HashMap` version of [`Circulation::xor_zero_subsets`] that the
    /// label index replaced, kept as an oracle. Also returns the visits it
    /// made: all of them when it completes.
    fn xor_zero_subsets_oracle(
        c: &Circulation,
        h: &EdgeSet,
        size: usize,
        budget: u64,
    ) -> (Option<Vec<Vec<EdgeId>>>, u64) {
        let ids: Vec<EdgeId> = h.iter().collect();
        let labels: Vec<u64> = ids.iter().map(|&id| c.label(id).unwrap()).collect();
        let mut visited = 0u64;
        let mut out = Vec::new();
        if size == 1 {
            for (i, &label) in labels.iter().enumerate() {
                visited += 1;
                if visited > budget {
                    return (None, visited);
                }
                if label == 0 {
                    out.push(vec![ids[i]]);
                }
            }
            return (Some(out), visited);
        }
        let mut by_label: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &label) in labels.iter().enumerate() {
            by_label.entry(label).or_default().push(i);
        }
        let mut prefix = Vec::with_capacity(size);
        let complete = oracle_extend(
            &ids,
            &labels,
            &by_label,
            size,
            0,
            0,
            &mut prefix,
            &mut visited,
            budget,
            &mut out,
        );
        (complete.then_some(out), visited)
    }

    #[allow(clippy::too_many_arguments)]
    fn oracle_extend(
        ids: &[EdgeId],
        labels: &[u64],
        by_label: &std::collections::HashMap<u64, Vec<usize>>,
        size: usize,
        start: usize,
        acc: u64,
        prefix: &mut Vec<EdgeId>,
        visited: &mut u64,
        budget: u64,
        out: &mut Vec<Vec<EdgeId>>,
    ) -> bool {
        if prefix.len() == size - 1 {
            if let Some(completions) = by_label.get(&acc) {
                for &j in completions {
                    *visited += 1;
                    if *visited > budget {
                        return false;
                    }
                    if j >= start {
                        let mut subset = prefix.clone();
                        subset.push(ids[j]);
                        out.push(subset);
                    }
                }
            }
            return true;
        }
        let needed = size - prefix.len();
        if ids.len() < needed {
            return true;
        }
        for i in start..=(ids.len() - needed) {
            *visited += 1;
            if *visited > budget {
                return false;
            }
            prefix.push(ids[i]);
            let ok = oracle_extend(
                ids,
                labels,
                by_label,
                size,
                i + 1,
                acc ^ labels[i],
                prefix,
                visited,
                budget,
                out,
            );
            prefix.pop();
            if !ok {
                return false;
            }
        }
        true
    }

    /// The prefix visits of the enumeration's loop bounds, counted one by one.
    fn count_prefix_visits(n: usize, size: usize, start: usize, chosen: usize) -> u64 {
        let needed = size - chosen;
        if chosen == size - 1 || n < needed {
            return 0;
        }
        (start..=n - needed)
            .map(|i| 1 + count_prefix_visits(n, size, i + 1, chosen + 1))
            .sum()
    }

    #[test]
    fn prefix_visits_follow_the_hockey_stick_identity() {
        for n in 0..=13usize {
            for size in 2..=6usize {
                assert_eq!(
                    count_prefix_visits(n, size, 0, 0),
                    binomial(n as u64, size as u64 - 1).saturating_sub(1),
                    "|H| = {n}, size {size}"
                );
            }
        }
    }

    #[test]
    fn binomial_matches_pascal_and_saturates() {
        let mut row = vec![1u64];
        for n in 1..=62u64 {
            let mut next = vec![1u64; n as usize + 1];
            for r in 1..n as usize {
                next[r] = row[r - 1] + row[r];
            }
            row = next;
            for (r, &value) in row.iter().enumerate() {
                assert_eq!(binomial(n, r as u64), value, "binom({n}, {r})");
            }
            assert_eq!(binomial(n, n + 1), 0);
        }
        assert_eq!(binomial(448, 6), 10_857_619_219_552);
        assert_eq!(binomial(1 << 40, 4), u64::MAX);
        assert_eq!(binomial(u64::MAX, 1), u64::MAX);
        assert_eq!(binomial(u64::MAX, u64::MAX - 1), u64::MAX);
    }

    #[test]
    fn xor_zero_subsets_match_the_hash_map_oracle_around_both_thresholds() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for round in 0..24u64 {
            let n = 5 + (round % 5) as usize;
            let g = generators::random_k_edge_connected(n, 2, (round % 7) as usize, &mut rng);
            let h = g.full_edge_set();
            let tree = spanning_tree(&g, &h);
            // 1-bit labels collide heavily, so completions outnumber prefixes.
            for bits in [64, 1] {
                let c = Circulation::sample(&g, &h, &tree, bits, &mut rng);
                for size in 1..=5usize {
                    let prefixes = if size == 1 {
                        0
                    } else {
                        binomial(h.len() as u64, size as u64 - 1) - 1
                    };
                    let (all, total) = xor_zero_subsets_oracle(&c, &h, size, u64::MAX);
                    assert!(all.is_some() && total >= prefixes);
                    for budget in [
                        0,
                        prefixes.saturating_sub(1),
                        prefixes,
                        prefixes + 1,
                        total.saturating_sub(1),
                        total,
                        total + 1,
                        u64::MAX,
                    ] {
                        let (expected, _) = xor_zero_subsets_oracle(&c, &h, size, budget);
                        assert_eq!(
                            c.xor_zero_subsets(size, budget),
                            expected,
                            "n {n}, bits {bits}, size {size}, budget {budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn index_probes_past_shared_home_slots_and_wraps() {
        // Five labelled edges. `a` and `a + s` share home slot 3; `b` and
        // `b + s` share the last slot, and the second wraps round to slot 0.
        let s = (SLOTS_PER_EDGE as u64 * 5).next_power_of_two();
        let (a, b) = (3, s - 1);
        let labels = [
            Some(a),
            None,
            Some(a + s),
            Some(b),
            Some(b + s),
            Some(a),
            None,
        ];
        let index = LabelIndex::build(&labels);
        assert_eq!(index.slots.len() as u64, s);
        assert_eq!(index.class_count(), 4);
        let classes: Vec<&[EdgeId]> = (0..4).map(|c| index.class(c)).collect();
        assert_eq!(
            classes,
            [
                &[EdgeId(0), EdgeId(5)][..],
                &[EdgeId(2)],
                &[EdgeId(3)],
                &[EdgeId(4)]
            ]
        );
        for (label, class) in [(a, 0), (a + s, 1), (b, 2), (b + s, 3)] {
            assert_eq!(index.find(label), Some(class), "label {label}");
        }
        for absent in [0, a + 2 * s, b + 2 * s, 1 << 40] {
            assert_eq!(index.find(absent), None, "label {absent}");
        }
        assert_eq!(index.class_of(EdgeId(5)), Some(0));
        assert_eq!(index.class_of(EdgeId(1)), None);
        assert_eq!(index.class_of(EdgeId(9)), None);
        assert_eq!(LabelIndex::build(&[None, None]).find(0), None);
    }

    #[test]
    fn partitions_compare_by_grouping_not_by_label() {
        let partition = |labels: &[Option<u64>]| LabelIndex::build(labels).partition().to_vec();
        let base = partition(&[Some(5), Some(9), Some(5), None, Some(7)]);
        // The same groups under other labels, one past the table's size.
        assert_eq!(
            base,
            partition(&[Some(100), Some(3), Some(100), None, Some(1 << 40)])
        );
        // A collision merges the classes of edges 0 and 1.
        assert_ne!(base, partition(&[Some(5), Some(5), Some(5), None, Some(7)]));
        // The class of edges 0 and 2 splits.
        assert_ne!(base, partition(&[Some(5), Some(9), Some(6), None, Some(7)]));
        // Edge 3 joins the labelled edges.
        assert_ne!(
            base,
            partition(&[Some(5), Some(9), Some(5), Some(8), Some(7)])
        );
    }

    #[test]
    fn resampling_in_place_draws_what_a_fresh_sample_draws() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let g = generators::random_k_edge_connected(24, 2, 30, &mut rng);
        let full = g.full_edge_set();
        let tree = spanning_tree(&g, &full);
        // The tree and every other edge first, then all of G.
        let mut h = tree.edge_set(&g);
        for id in g.edge_ids().step_by(2) {
            h.insert(id);
        }
        for bits in [64, 3] {
            let mut reused = Circulation::sample(&g, &h, &tree, bits, &mut rng);
            reused.index();
            for seed in 0..4 {
                let mut fresh_rng = ChaCha8Rng::seed_from_u64(seed);
                let fresh = Circulation::sample(&g, &full, &tree, bits, &mut fresh_rng);
                let mut reused_rng = ChaCha8Rng::seed_from_u64(seed);
                reused.resample(&g, &full, &tree, &mut reused_rng);
                assert_eq!(reused.labels, fresh.labels, "bits {bits}, seed {seed}");
                assert_eq!(reused_rng.next_u64(), fresh_rng.next_u64());
                assert_eq!(reused.index().partition(), fresh.index().partition());
                assert!(reused.label_classes().eq(fresh.label_classes()));
                for label in fresh.labels.iter().flatten() {
                    assert_eq!(reused.index().find(*label), fresh.index().find(*label));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tree edge outside H")]
    fn a_tree_edge_outside_h_is_refused() {
        let g = generators::cycle(5, 1);
        let mut h = g.full_edge_set();
        h.remove(EdgeId(4));
        // The path 4-0-1-2-3 (every edge but 3) is a spanning tree of the
        // cycle that contains edge 4, which is not in H.
        let mut tree_edges = g.full_edge_set();
        tree_edges.remove(EdgeId(3));
        let tree = RootedTree::new(&g, &tree_edges, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        Circulation::sample(&g, &h, &tree, 64, &mut rng);
    }

    #[test]
    fn labelling_rounds_is_tree_height() {
        let g = generators::path(9, 1);
        let tree = spanning_tree(&g, &g.full_edge_set());
        assert_eq!(labelling_rounds(&tree), 9);
    }

    #[test]
    #[should_panic(expected = "between 1 and 64")]
    fn zero_bit_labels_rejected() {
        let g = generators::cycle(4, 1);
        let h = g.full_edge_set();
        let tree = spanning_tree(&g, &h);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        Circulation::sample(&g, &h, &tree, 0, &mut rng);
    }
}
