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
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let mut labels: Vec<Option<u64>> = vec![None; graph.m()];
        // Accumulate, per vertex, the XOR of the labels of incident non-tree edges.
        let mut acc = vec![0u64; graph.n()];
        let tree_edges = tree.edge_set(graph);
        for id in h.iter() {
            if tree_edges.contains(id) {
                assert!(h.contains(id), "tree edge outside H");
                continue;
            }
            let label = rng.gen::<u64>() & mask;
            labels[id.index()] = Some(label);
            let e = graph.edge(id);
            acc[e.u] ^= label;
            acc[e.v] ^= label;
        }
        // Tree edge {v, p(v)} label = XOR of acc over the subtree of v: a
        // non-tree edge contributes to the subtree XOR once iff exactly one of
        // its endpoints lies in the subtree, i.e. iff its fundamental cycle
        // uses the tree edge.
        let mut subtree = acc;
        for &v in tree.bfs_order().iter().rev() {
            if let Some(p) = tree.parent(v) {
                let edge = tree
                    .parent_edge(v)
                    .expect("non-root vertex has a parent edge");
                labels[edge.index()] = Some(subtree[v]);
                subtree[p] ^= subtree[v];
            }
        }
        Circulation {
            labels,
            bits,
            index: OnceLock::new(),
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
        let labelled = labels.iter().flatten().count();
        assert!(
            labelled < NO_CLASS as usize,
            "too many labelled edges for the label index"
        );
        let mut index = LabelIndex {
            class_of: vec![NO_CLASS; labels.len()],
            // Class sizes first, then their prefix sums.
            start: Vec::new(),
            edges: vec![EdgeId(0); labelled],
            class_label: Vec::new(),
            slots: vec![NO_CLASS; (SLOTS_PER_EDGE * labelled).next_power_of_two()],
        };
        for (edge, label) in labels.iter().enumerate() {
            let Some(label) = *label else { continue };
            let class = match index.probe(label) {
                Ok(class) => class,
                Err(slot) => {
                    let class = index.class_label.len() as u32;
                    index.slots[slot] = class;
                    index.class_label.push(label);
                    index.start.push(0);
                    class
                }
            };
            index.class_of[edge] = class;
            index.start[class as usize] += 1;
        }
        let mut sum = 0;
        for entry in &mut index.start {
            sum += *entry;
            *entry = sum - *entry;
        }
        index.start.push(sum);
        // A second pass in id order keeps every class sorted.
        let mut next = index.start.clone();
        for (edge, &class) in index.class_of.iter().enumerate() {
            if class != NO_CLASS {
                index.edges[next[class as usize] as usize] = EdgeId(edge);
                next[class as usize] += 1;
            }
        }
        index
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
    use rand::SeedableRng;
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
