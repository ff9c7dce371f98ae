//! The core undirected weighted multigraph type and edge-set masks.
//!
//! Both types are optimized for the workspace's innermost loops:
//!
//! * [`Graph`] adjacency is a **frozen CSR** (compressed sparse row): one
//!   contiguous `(neighbor, edge id)` entry array plus per-vertex offsets,
//!   built lazily on the first adjacency query (or eagerly via
//!   [`Graph::freeze`]) and invalidated by [`Graph::add_edge`]. Queries hand
//!   out plain slices — no per-vertex heap allocations, no pointer chasing.
//!   The exact hop diameter ([`crate::bfs::diameter`]) and the accounting
//!   diameter ([`crate::bfs::diameter_hint`]) are cached next to it under
//!   the same contract.
//! * [`EdgeSet`] is a **word-packed bitset** over edge ids: 64 edges per
//!   `u64`, popcount-backed counting, word-wise set algebra and a
//!   trailing-zeros iterator, so masked scans cost `m / 64` word loads
//!   instead of `m` byte loads.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a vertex. Vertices of a graph with `n` vertices are the
/// integers `0..n`.
pub type NodeId = usize;

/// Edge weights. The paper assumes non-negative integer weights polynomial in
/// `n`, so a `u64` is sufficient and keeps all arithmetic exact.
pub type Weight = u64;

/// Stable identifier of an edge: the index of the edge in insertion order.
///
/// Edge identifiers are never invalidated; masked views of a graph are
/// expressed with [`EdgeSet`] rather than by removing edges.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The raw index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(value)
    }
}

/// An undirected edge `{u, v}` with a non-negative integer weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Non-negative weight, assumed polynomial in `n`.
    pub weight: Weight,
}

impl Edge {
    /// Returns the endpoint of the edge that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of the edge.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "vertex {x} is not an endpoint of edge {{{}, {}}}",
                self.u, self.v
            )
        }
    }

    /// Returns `true` if `x` is one of the endpoints.
    #[inline]
    pub fn has_endpoint(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }

    /// Returns the endpoints as an ordered pair `(min, max)`.
    #[inline]
    pub fn ordered(&self) -> (NodeId, NodeId) {
        (self.u.min(self.v), self.u.max(self.v))
    }
}

/// The frozen adjacency: CSR offsets plus one contiguous entry array. The
/// `targets` and `edge_ids` columns are interleaved as `(NodeId, EdgeId)`
/// pairs so one slice lookup serves both (the per-vertex order is exactly the
/// edge-insertion order the old `Vec<Vec<_>>` representation produced).
#[derive(Clone, Debug)]
struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `entries` for vertex `v`.
    offsets: Vec<usize>,
    /// `(neighbor, edge id)` pairs, grouped by vertex, edge-id order within a
    /// vertex.
    entries: Vec<(NodeId, EdgeId)>,
}

impl Csr {
    /// Builds the CSR from the edge list with a counting sort: one pass
    /// counts the degrees, then [`Csr::place`] lays out the entries. No
    /// per-vertex allocations.
    fn build(n: usize, edges: &[Edge]) -> Csr {
        let mut degrees = vec![0usize; n + 1];
        for e in edges {
            degrees[e.u + 1] += 1;
            degrees[e.v + 1] += 1;
        }
        Csr::place(degrees, edges).expect("degrees counted from the same edges")
    }

    /// The one placement loop. On entry `offsets[v + 1]` holds the degree
    /// of `v` (and `offsets[0]` is 0); a prefix sum turns them into the
    /// offsets, then each edge's two `(neighbor, edge id)` entries go to its
    /// endpoints' next free slots. Iterating edges in id order reproduces
    /// exactly the per-vertex ordering incremental `push`es gave. `None` if
    /// `edges` does not have those degrees.
    fn place(mut offsets: Vec<usize>, edges: &[Edge]) -> Option<Csr> {
        let n = offsets.len() - 1;
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..n].to_vec();
        let mut entries = vec![(0usize, EdgeId(0)); 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            *entries.get_mut(next[e.u])? = (e.v, EdgeId(i));
            next[e.u] += 1;
            *entries.get_mut(next[e.v])? = (e.u, EdgeId(i));
            next[e.v] += 1;
        }
        // Every vertex filled exactly its own range: the degrees were right.
        (next[..] == offsets[1..]).then_some(Csr { offsets, entries })
    }
}

/// An undirected, weighted multigraph with `n` vertices and stable edge ids.
///
/// Vertices are `0..n`. Parallel edges and self-loops are permitted by the
/// representation (the algorithms in this workspace never create self-loops,
/// and [`Graph::add_edge`] rejects them), which keeps edge identifiers simple.
///
/// # Adjacency representation
///
/// The edge list is the source of truth; adjacency is served from a frozen
/// CSR built on the first call to [`Graph::neighbors`] / [`Graph::degree`] /
/// [`Graph::find_edge`] (or eagerly via [`Graph::freeze`]) and **invalidated
/// by [`Graph::add_edge`]**. Build-then-query workloads — every workload in
/// this workspace — therefore build the CSR exactly once; interleaving
/// `add_edge` with adjacency queries is correct but rebuilds the CSR per
/// interleaving and should be avoided on hot paths.
///
/// The exact hop diameter is cached the same way: computed on the first
/// [`crate::bfs::diameter`] call, reset by [`Graph::add_edge`], kept by
/// [`Graph::set_weight`] (hops ignore weights) and by `clone`. So is the
/// double-sweep figure [`crate::bfs::diameter_hint`] computes above
/// [`crate::bfs::EXACT_DIAMETER_MAX_N`] vertices.
///
/// # Example
///
/// ```
/// use graphs::Graph;
///
/// let mut g = Graph::new(3);
/// let e = g.add_edge(0, 1, 7);
/// g.add_edge(1, 2, 3);
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.edge(e).weight, 7);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// Lazily built, reset by `add_edge`. `OnceLock` keeps queries `&self`
    /// (and the graph `Sync`) while guaranteeing a single build per freeze.
    csr: OnceLock<Csr>,
    /// The exact hop diameter (`None` when disconnected or empty), filled by
    /// [`crate::bfs::diameter`] and reset by `add_edge` like `csr`.
    diameter: OnceLock<Option<usize>>,
    /// The double-sweep diameter figure, filled by
    /// [`crate::bfs::diameter_hint`] on graphs too large for the exact one,
    /// and reset by `add_edge` like `csr`.
    diameter_hint: OnceLock<Option<usize>>,
}

/// Equality is structural on `(n, edge list)`; whether the CSR and diameter
/// caches happen to be filled is not observable.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            csr: OnceLock::new(),
            diameter: OnceLock::new(),
            diameter_hint: OnceLock::new(),
        }
    }

    /// Builds an already-frozen graph from its edge list and the degree
    /// counts a pass over the same edges took (`degrees[v + 1]` is the
    /// degree of `v`), laying out the CSR with the placement loop of the
    /// lazy build. `None` if the edges do not have those degrees.
    pub(crate) fn frozen(n: usize, edges: Vec<Edge>, degrees: Vec<usize>) -> Option<Graph> {
        debug_assert_eq!(degrees.len(), n + 1);
        let graph = Graph {
            edges,
            ..Graph::new(n)
        };
        let _ = graph.csr.set(Csr::place(degrees, &graph.edges)?);
        Some(graph)
    }

    /// Creates a graph with `n` vertices from an iterator of `(u, v, weight)`
    /// triples.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range or if an edge is a self-loop.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId, Weight)>,
    {
        let mut g = Graph::new(n);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}` with the given weight and returns its id.
    ///
    /// Invalidates the frozen adjacency (rebuilt on the next query) and the
    /// cached diameters.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range, or if `u == v` (self-loop).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        assert!(u < self.n, "endpoint {u} out of range (n = {})", self.n);
        assert!(v < self.n, "endpoint {v} out of range (n = {})", self.n);
        assert_ne!(u, v, "self-loops are not supported");
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { u, v, weight });
        self.csr = OnceLock::new();
        self.diameter = OnceLock::new();
        self.diameter_hint = OnceLock::new();
        id
    }

    /// Builds the CSR adjacency now (idempotent). Useful to pay the build
    /// cost at a chosen time — e.g. before handing the graph to concurrent
    /// readers — instead of on the first adjacency query.
    pub fn freeze(&self) {
        let _ = self.csr();
    }

    /// Whether the CSR adjacency is currently built (i.e. no `add_edge`
    /// happened since the last query/freeze).
    pub fn is_frozen(&self) -> bool {
        self.csr.get().is_some()
    }

    #[inline]
    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::build(self.n, &self.edges))
    }

    /// The frozen adjacency as raw CSR arrays: `offsets[v]..offsets[v + 1]`
    /// indexes the `(neighbor, edge id)` entries of vertex `v`. For kernels
    /// that sweep every vertex many times (the all-sources BFS).
    pub(crate) fn csr_arrays(&self) -> (&[usize], &[(NodeId, EdgeId)]) {
        let csr = self.csr();
        (&csr.offsets, &csr.entries)
    }

    /// The cached exact diameter, computed by `compute` if no value is cached
    /// since construction or the last `add_edge`.
    pub(crate) fn cached_diameter(
        &self,
        compute: impl FnOnce(&Graph) -> Option<usize>,
    ) -> Option<usize> {
        *self.diameter.get_or_init(|| compute(self))
    }

    /// The cached double-sweep diameter figure, under the same contract as
    /// [`Graph::cached_diameter`].
    pub(crate) fn cached_diameter_hint(
        &self,
        compute: impl FnOnce(&Graph) -> Option<usize>,
    ) -> Option<usize> {
        *self.diameter_hint.get_or_init(|| compute(self))
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// The weight of an edge.
    #[inline]
    pub fn weight(&self, id: EdgeId) -> Weight {
        self.edges[id.0].weight
    }

    /// Overwrites the weight of an edge (does not invalidate the adjacency or
    /// the cached diameters: none depends on weights).
    pub fn set_weight(&mut self, id: EdgeId, weight: Weight) {
        self.edges[id.0].weight = weight;
    }

    /// Iterator over `(EdgeId, &Edge)` in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Neighbors of `v` as `(neighbor, edge id)` pairs, including parallel
    /// edges, as one contiguous CSR slice. Per-vertex order equals edge
    /// insertion order.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let csr = self.csr();
        &csr.entries[csr.offsets[v]..csr.offsets[v + 1]]
    }

    /// Degree of `v` (counting parallel edges).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let csr = self.csr();
        csr.offsets[v + 1] - csr.offsets[v]
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Total weight of the edges in `set`.
    pub fn weight_of(&self, set: &EdgeSet) -> Weight {
        set.iter().map(|id| self.weight(id)).sum()
    }

    /// Looks up an edge id connecting `u` and `v`, if one exists.
    ///
    /// If there are parallel edges the one with the smallest id is returned.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.neighbors(u)
            .iter()
            .filter(|(nbr, _)| *nbr == v)
            .map(|&(_, id)| id)
            .min()
    }

    /// Returns the subgraph induced by the edge set as a new graph over the
    /// same vertex set. Edge ids are *not* preserved in the result; prefer
    /// passing [`EdgeSet`] masks to algorithms when id stability matters.
    pub fn edge_subgraph(&self, set: &EdgeSet) -> Graph {
        let mut g = Graph::new(self.n);
        for id in set.iter() {
            let e = self.edge(id);
            g.add_edge(e.u, e.v, e.weight);
        }
        g
    }

    /// An [`EdgeSet`] sized for this graph containing no edges.
    pub fn empty_edge_set(&self) -> EdgeSet {
        EdgeSet::new(self.m())
    }

    /// An [`EdgeSet`] sized for this graph containing every edge.
    pub fn full_edge_set(&self) -> EdgeSet {
        EdgeSet::full(self.m())
    }
}

/// Number of `u64` words covering a universe of `m` bits.
#[inline]
const fn words_for(m: usize) -> usize {
    m.div_ceil(64)
}

/// A set of edges of a particular graph, stored as a word-packed bitmap over
/// edge ids (64 edges per `u64`).
///
/// `EdgeSet` is the universal currency for "subgraph" in this workspace: the
/// spanning subgraph `H`, the augmentation `A`, candidate sets and MSTs are
/// all edge sets over the original input graph, which keeps edge identifiers
/// stable across every phase of the algorithms.
///
/// Set algebra ([`EdgeSet::union_with`], [`EdgeSet::intersect_with`],
/// [`EdgeSet::difference_with`], [`EdgeSet::is_subset_of`]) runs word-wise;
/// [`EdgeSet::len`] is popcount-backed; [`EdgeSet::iter`] scans set words
/// with trailing-zeros extraction. Invariant: bits at or above
/// [`EdgeSet::universe`] are always zero.
///
/// # Example
///
/// ```
/// use graphs::{EdgeSet, EdgeId};
///
/// let mut s = EdgeSet::new(4);
/// s.insert(EdgeId(1));
/// s.insert(EdgeId(3));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(EdgeId(3)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![EdgeId(1), EdgeId(3)]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct EdgeSet {
    words: Vec<u64>,
    universe: usize,
    count: usize,
}

impl EdgeSet {
    /// Creates an empty set over a universe of `m` edges.
    pub fn new(m: usize) -> Self {
        EdgeSet {
            words: vec![0; words_for(m)],
            universe: m,
            count: 0,
        }
    }

    /// Creates the full set over a universe of `m` edges.
    pub fn full(m: usize) -> Self {
        let mut s = EdgeSet {
            words: vec![!0u64; words_for(m)],
            universe: m,
            count: m,
        };
        s.mask_tail();
        s
    }

    /// Creates a set over a universe of `m` edges from an iterator of ids.
    pub fn from_ids<I>(m: usize, ids: I) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut s = EdgeSet::new(m);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Zeroes the bits above `universe` in the last word (the invariant all
    /// word-wise operations rely on).
    #[inline]
    fn mask_tail(&mut self) {
        let tail = self.universe % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Size of the universe (number of edge ids representable).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The backing `u64` words, 64 edge ids per word, least-significant bit
    /// first. Bits at or above [`EdgeSet::universe`] are zero. This is the
    /// raw currency of the word-wise hot paths (e.g. the exact removal test).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of edges in the set (maintained incrementally, recomputed by
    /// popcount after word-wise bulk operations).
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether the set contains `id`.
    #[inline]
    pub fn contains(&self, id: EdgeId) -> bool {
        id.0 < self.universe && (self.words[id.0 >> 6] >> (id.0 & 63)) & 1 == 1
    }

    /// Inserts `id`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn insert(&mut self, id: EdgeId) -> bool {
        assert!(id.0 < self.universe, "edge id {id} outside universe");
        let word = &mut self.words[id.0 >> 6];
        let bit = 1u64 << (id.0 & 63);
        if *word & bit != 0 {
            false
        } else {
            *word |= bit;
            self.count += 1;
            true
        }
    }

    /// Removes `id`, returning `true` if it was present.
    pub fn remove(&mut self, id: EdgeId) -> bool {
        if id.0 >= self.universe {
            return false;
        }
        let word = &mut self.words[id.0 >> 6];
        let bit = 1u64 << (id.0 & 63);
        if *word & bit != 0 {
            *word &= !bit;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Iterator over the edge ids in the set, in increasing order
    /// (trailing-zeros extraction over the set words).
    pub fn iter(&self) -> EdgeSetIter<'_> {
        EdgeSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Recomputes `count` from the words (after a word-wise bulk operation).
    #[inline]
    fn recount(&mut self) {
        self.count = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    #[inline]
    fn assert_same_universe(&self, other: &EdgeSet) {
        assert_eq!(self.universe, other.universe, "edge set universes differ");
    }

    /// In-place union with another set over the same universe (word-wise).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &EdgeSet) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self.recount();
    }

    /// In-place intersection with another set over the same universe
    /// (word-wise).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &EdgeSet) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        self.recount();
    }

    /// In-place difference `self \ other` over the same universe (word-wise).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference_with(&mut self, other: &EdgeSet) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        self.recount();
    }

    /// Returns the union of two sets over the same universe.
    pub fn union(&self, other: &EdgeSet) -> EdgeSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns the set difference `self \ other`.
    pub fn difference(&self, other: &EdgeSet) -> EdgeSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Returns the intersection of two sets over the same universe.
    pub fn intersection(&self, other: &EdgeSet) -> EdgeSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Whether `self` is a subset of `other` (word-wise `a & !b == 0`;
    /// universes may differ — ids beyond `other`'s universe are absent).
    pub fn is_subset_of(&self, other: &EdgeSet) -> bool {
        let shared = self.words.len().min(other.words.len());
        self.words[..shared]
            .iter()
            .zip(&other.words[..shared])
            .all(|(a, b)| a & !b == 0)
            && self.words[shared..].iter().all(|&w| w == 0)
    }

    /// The edge ids of the set collected into a vector.
    pub fn to_vec(&self) -> Vec<EdgeId> {
        self.iter().collect()
    }
}

/// Iterator over the set edge ids of an [`EdgeSet`], in increasing order.
#[derive(Clone, Debug)]
pub struct EdgeSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for EdgeSetIter<'_> {
    type Item = EdgeId;

    #[inline]
    fn next(&mut self) -> Option<EdgeId> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(EdgeId((self.word_idx << 6) | bit))
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<EdgeId> for EdgeSet {
    /// Builds an edge set whose universe is just large enough for the largest id.
    fn from_iter<T: IntoIterator<Item = EdgeId>>(iter: T) -> Self {
        let ids: Vec<EdgeId> = iter.into_iter().collect();
        let max = ids.iter().map(|id| id.0 + 1).max().unwrap_or(0);
        EdgeSet::from_ids(max, ids)
    }
}

impl Extend<EdgeId> for EdgeSet {
    fn extend<T: IntoIterator<Item = EdgeId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_updates_adjacency_and_degree() {
        let mut g = Graph::new(4);
        let e01 = g.add_edge(0, 1, 5);
        let e12 = g.add_edge(1, 2, 3);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.edge(e01).weight, 5);
        assert_eq!(g.edge(e12).other(2), 1);
        assert_eq!(g.neighbors(0), &[(1, e01)]);
    }

    #[test]
    fn freeze_invalidate_contract() {
        let mut g = Graph::new(3);
        let a = g.add_edge(0, 1, 1);
        assert!(!g.is_frozen());
        g.freeze();
        assert!(g.is_frozen());
        assert_eq!(g.neighbors(1), &[(0, a)]);
        // add_edge invalidates; the next query rebuilds with the new edge.
        let b = g.add_edge(1, 2, 1);
        assert!(!g.is_frozen());
        assert_eq!(g.neighbors(1), &[(0, a), (2, b)]);
        assert!(g.is_frozen());
        // Equality ignores the freeze state.
        let mut h = Graph::new(3);
        h.add_edge(0, 1, 1);
        h.add_edge(1, 2, 1);
        assert_eq!(g, h);
        h.freeze();
        assert_eq!(g, h);
    }

    #[test]
    fn diameter_cache_follows_the_freeze_contract() {
        let mut g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        assert_eq!(g.diameter.get(), None);
        assert_eq!(crate::bfs::diameter(&g), Some(3));
        assert_eq!(g.diameter.get(), Some(&Some(3)));
        // Hops ignore weights: set_weight keeps the cached value.
        g.set_weight(EdgeId(1), 50);
        assert_eq!(g.diameter.get(), Some(&Some(3)));
        let h = g.clone();
        assert_eq!(h.diameter.get(), Some(&Some(3)));
        // add_edge resets it; the next call recomputes.
        g.add_edge(0, 3, 1);
        assert_eq!(g.diameter.get(), None);
        assert_eq!(crate::bfs::diameter(&g), Some(2));
        assert_eq!(crate::bfs::diameter(&h), Some(3));
        // Equality ignores whether the cache is filled.
        let fresh = Graph::from_edges(4, [(0, 1, 1), (1, 2, 50), (2, 3, 1)]);
        assert_eq!(fresh, h);
    }

    #[test]
    fn diameter_hint_cache_follows_the_freeze_contract() {
        // A path just past the exact limit: the hint is the double sweep.
        let n = crate::bfs::EXACT_DIAMETER_MAX_N + 1;
        let mut g = Graph::from_edges(n, (1..n).map(|v| (v - 1, v, 1)));
        assert_eq!(g.diameter_hint.get(), None);
        assert_eq!(crate::bfs::diameter_hint(&g), Some(n - 1));
        assert_eq!(g.diameter_hint.get(), Some(&Some(n - 1)));
        assert_eq!(g.diameter.get(), None, "the exact kernel never ran");
        g.set_weight(EdgeId(3), 50);
        assert_eq!(g.diameter_hint.get(), Some(&Some(n - 1)));
        let h = g.clone();
        assert_eq!(h.diameter_hint.get(), Some(&Some(n - 1)));
        // add_edge resets it; the next call recomputes.
        g.add_edge(0, n - 1, 1);
        assert_eq!(g.diameter_hint.get(), None);
        assert_eq!(crate::bfs::diameter_hint(&g), Some(n / 2));
        assert_eq!(crate::bfs::diameter_hint(&h), Some(n - 1));
        // Equality ignores whether the cache is filled.
        let mut fresh = Graph::from_edges(n, (1..n).map(|v| (v - 1, v, 1)));
        fresh.set_weight(EdgeId(3), 50);
        assert_eq!(fresh, h);
    }

    #[test]
    fn csr_order_matches_insertion_order_with_parallel_edges() {
        let mut g = Graph::new(3);
        let a = g.add_edge(1, 0, 1);
        let b = g.add_edge(0, 2, 1);
        let c = g.add_edge(0, 1, 9); // parallel to a, reversed orientation
        assert_eq!(g.neighbors(0), &[(1, a), (2, b), (1, c)]);
        assert_eq!(g.neighbors(1), &[(0, a), (0, c)]);
        assert_eq!(g.neighbors(2), &[(0, b)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn add_edge_rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_rejects_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(0, 2, 1);
    }

    #[test]
    fn parallel_edges_are_kept_distinct() {
        let mut g = Graph::new(2);
        let a = g.add_edge(0, 1, 1);
        let b = g.add_edge(0, 1, 9);
        assert_ne!(a, b);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.find_edge(0, 1), Some(a));
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = Graph::from_edges(3, vec![(0, 1, 2), (1, 2, 4)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn edge_other_panics_for_non_endpoint() {
        let e = Edge {
            u: 0,
            v: 1,
            weight: 1,
        };
        assert_eq!(e.other(0), 1);
        assert_eq!(e.other(1), 0);
        let result = std::panic::catch_unwind(|| e.other(5));
        assert!(result.is_err());
    }

    #[test]
    fn edge_set_insert_remove_iter() {
        let mut s = EdgeSet::new(5);
        assert!(s.is_empty());
        assert!(s.insert(EdgeId(2)));
        assert!(!s.insert(EdgeId(2)));
        assert!(s.insert(EdgeId(4)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(EdgeId(2)));
        assert!(!s.contains(EdgeId(0)));
        assert_eq!(s.to_vec(), vec![EdgeId(2), EdgeId(4)]);
        assert!(s.remove(EdgeId(2)));
        assert!(!s.remove(EdgeId(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn edge_set_union_difference_intersection() {
        let a = EdgeSet::from_ids(6, [EdgeId(0), EdgeId(1), EdgeId(2)]);
        let b = EdgeSet::from_ids(6, [EdgeId(2), EdgeId(3)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 4);
        let d = a.difference(&b);
        assert_eq!(d.to_vec(), vec![EdgeId(0), EdgeId(1)]);
        let i = a.intersection(&b);
        assert_eq!(i.to_vec(), vec![EdgeId(2)]);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn word_boundaries_are_handled() {
        // Universe straddling word boundaries: 63, 64, 65 and a big one.
        for m in [63usize, 64, 65, 130, 1000] {
            let mut s = EdgeSet::new(m);
            let picks: Vec<usize> = (0..m).filter(|i| i % 7 == 3).collect();
            for &i in &picks {
                assert!(s.insert(EdgeId(i)));
            }
            assert_eq!(s.len(), picks.len(), "m = {m}");
            assert_eq!(
                s.iter().map(|id| id.0).collect::<Vec<_>>(),
                picks,
                "m = {m}"
            );
            let full = EdgeSet::full(m);
            assert_eq!(full.len(), m);
            assert!(s.is_subset_of(&full));
            let inverted = full.difference(&s);
            assert_eq!(inverted.len(), m - picks.len());
            assert!(inverted.intersection(&s).is_empty());
            assert_eq!(inverted.union(&s), full);
        }
    }

    #[test]
    fn subset_across_universes_matches_containment_semantics() {
        let small = EdgeSet::from_ids(3, [EdgeId(1)]);
        let large = EdgeSet::from_ids(100, [EdgeId(1), EdgeId(70)]);
        assert!(small.is_subset_of(&large));
        assert!(!large.is_subset_of(&small));
        let small_with_all = EdgeSet::from_ids(3, [EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert!(!small_with_all.is_subset_of(&EdgeSet::from_ids(100, [EdgeId(1)])));
    }

    #[test]
    fn contains_and_remove_out_of_universe_are_benign() {
        let mut s = EdgeSet::new(10);
        assert!(!s.contains(EdgeId(10)));
        assert!(!s.contains(EdgeId(1000)));
        assert!(!s.remove(EdgeId(10)));
        assert!(!s.remove(EdgeId(1000)));
    }

    #[test]
    fn edge_subgraph_preserves_weights() {
        let mut g = Graph::new(3);
        let a = g.add_edge(0, 1, 10);
        let _b = g.add_edge(1, 2, 20);
        let set = EdgeSet::from_ids(g.m(), [a]);
        let sub = g.edge_subgraph(&set);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 1);
        assert_eq!(sub.total_weight(), 10);
    }

    #[test]
    fn weight_of_sums_only_selected_edges() {
        let mut g = Graph::new(3);
        let a = g.add_edge(0, 1, 10);
        let b = g.add_edge(1, 2, 20);
        let mut set = g.empty_edge_set();
        set.insert(b);
        assert_eq!(g.weight_of(&set), 20);
        set.insert(a);
        assert_eq!(g.weight_of(&set), 30);
    }

    #[test]
    fn full_and_empty_edge_sets() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        assert_eq!(g.empty_edge_set().len(), 0);
        assert_eq!(g.full_edge_set().len(), 2);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: EdgeSet = vec![EdgeId(3), EdgeId(1)].into_iter().collect();
        assert_eq!(s.universe(), 4);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn words_expose_the_packed_representation() {
        let s = EdgeSet::from_ids(70, [EdgeId(0), EdgeId(63), EdgeId(64)]);
        assert_eq!(s.words(), &[(1u64 << 63) | 1, 1]);
        assert_eq!(s.iter().count(), 3);
    }
}
