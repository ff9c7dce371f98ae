//! Unit-capacity maximum flow for exact edge-connectivity queries and for
//! listing minimum cuts.
//!
//! Edge connectivity between two vertices of an undirected graph equals the
//! maximum number of edge-disjoint paths between them (Menger), which is the
//! value of a maximum flow where every undirected edge has capacity one in
//! each direction. The verifier uses this to certify the outputs of every
//! k-ECSS algorithm, so it is deliberately simple (BFS augmenting paths) and
//! exact.
//!
//! The sink may be a vertex set: each augmenting search ends at the first
//! sink it reaches. [`PrefixSweep`] runs the one flow that the connectivity
//! sweep and the flow cut enumerator share, from each vertex to the set of
//! vertices before it in a BFS order. After a maximum flow, it lists the
//! source sides of every minimum cut between the two (Picard–Queyranne,
//! 1980): the residual closures.

use crate::bfs;
use crate::graph::{EdgeSet, Graph, NodeId};

/// A residual arc in the unit-capacity flow network.
#[derive(Clone, Copy, Debug)]
struct Arc {
    to: NodeId,
    /// Residual capacity (0 or 1 initially; reverse arcs also start at 1
    /// because the edge is undirected).
    cap: u32,
    /// Index of the reverse arc in the arena.
    rev: usize,
}

/// A reusable unit-capacity max-flow solver over a masked subgraph.
///
/// The per-vertex arc lists are stored CSR-style (offsets into one contiguous
/// arc-index array) so the BFS inner loop walks flat memory: no per-vertex
/// `Vec`s, built with a counting sort over the masked edge set.
///
/// The augmenting-path BFS allocates nothing: its predecessor arcs, its
/// visited marks and its queue live here and are reused by every path. A
/// vertex is visited in the current search when its mark equals `stamp`,
/// which each search advances, so no search clears the marks of the last.
/// Likewise a flow restores only the arcs the last flow pushed along, not
/// all `2m`, so a flow costs what its searches touch.
#[derive(Clone, Debug)]
pub struct UnitFlow {
    n: usize,
    arcs: Vec<Arc>,
    /// `head_offsets[v]..head_offsets[v + 1]` indexes `head_arcs` for `v`.
    head_offsets: Vec<usize>,
    /// Arc-arena indices, grouped by owning vertex.
    head_arcs: Vec<usize>,
    /// `pred[v]` is the arc the current search reached `v` by; meaningful
    /// only for vertices whose mark is `stamp`.
    pred: Vec<usize>,
    /// `seen[v] == stamp` marks `v` visited by the current search.
    seen: Vec<u32>,
    stamp: u32,
    /// The BFS queue, scanned front to back by index: each vertex enters it
    /// at most once per search.
    queue: Vec<NodeId>,
    /// The arcs the flows since the last reset pushed along, each with its
    /// reverse: every arc not listed here is still at capacity 1.
    pushed: Vec<usize>,
}

impl UnitFlow {
    /// Builds the flow network for the subgraph of `graph` given by `edges`.
    pub fn new(graph: &Graph, edges: &EdgeSet) -> Self {
        let n = graph.n();
        let mut head_offsets = vec![0usize; n + 1];
        for id in edges.iter() {
            let e = graph.edge(id);
            head_offsets[e.u + 1] += 1;
            head_offsets[e.v + 1] += 1;
        }
        for v in 0..n {
            head_offsets[v + 1] += head_offsets[v];
        }
        let mut arcs = Vec::with_capacity(2 * edges.len());
        let mut head_arcs = vec![0usize; 2 * edges.len()];
        let mut cursor = head_offsets.clone();
        for id in edges.iter() {
            let e = graph.edge(id);
            let a = arcs.len();
            // Undirected unit edge: both directions start at capacity 1.
            arcs.push(Arc {
                to: e.v,
                cap: 1,
                rev: a + 1,
            });
            arcs.push(Arc {
                to: e.u,
                cap: 1,
                rev: a,
            });
            head_arcs[cursor[e.u]] = a;
            cursor[e.u] += 1;
            head_arcs[cursor[e.v]] = a + 1;
            cursor[e.v] += 1;
        }
        UnitFlow {
            n,
            arcs,
            head_offsets,
            head_arcs,
            pred: vec![0; n],
            seen: vec![0; n],
            stamp: 0,
            queue: Vec::with_capacity(n),
            pushed: Vec::new(),
        }
    }

    /// The arc-arena indices incident to `v`.
    #[inline]
    fn head(&self, v: NodeId) -> &[usize] {
        &self.head_arcs[self.head_offsets[v]..self.head_offsets[v + 1]]
    }

    /// Puts every arc the last flow pushed along back to capacity 1, the
    /// state of an undirected unit edge with no flow.
    fn reset(&mut self) {
        for ai in self.pushed.drain(..) {
            self.arcs[ai].cap = 1;
            let rev = self.arcs[ai].rev;
            self.arcs[rev].cap = 1;
        }
    }

    /// Maximum `s`–`t` flow value, stopping early once it reaches `limit`.
    ///
    /// With unit capacities each augmentation adds exactly one unit, so the
    /// cost is `O(limit * m)`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either vertex is out of range.
    pub fn max_flow_capped(&mut self, s: NodeId, t: NodeId, limit: u32) -> u32 {
        assert!(s < self.n && t < self.n, "flow endpoints out of range");
        assert_ne!(s, t, "source and sink must differ");
        self.max_flow_to_set_capped(s, |v| v == t, limit)
    }

    /// Maximum flow from `s` to the set of vertices `is_sink` accepts,
    /// stopping early once it reaches `limit`: the number of edge-disjoint
    /// paths from `s` to the set. Each augmenting search ends at the first
    /// sink it reaches.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or is itself a sink.
    pub(crate) fn max_flow_to_set_capped(
        &mut self,
        s: NodeId,
        is_sink: impl Fn(NodeId) -> bool,
        limit: u32,
    ) -> u32 {
        assert!(s < self.n, "flow source out of range");
        assert!(!is_sink(s), "the source must not be a sink");
        self.reset();
        let mut flow = 0;
        while flow < limit && self.augment(s, &is_sink) {
            flow += 1;
        }
        flow
    }

    /// Maximum `s`–`t` flow value (uncapped; bounded by the degree of `s`).
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> u32 {
        let cap = self.head(s).len() as u32;
        self.max_flow_capped(s, t, cap)
    }

    /// Finds one augmenting path from `s` to a sink by BFS and pushes one
    /// unit along it.
    fn augment(&mut self, s: NodeId, is_sink: &impl Fn(NodeId) -> bool) -> bool {
        let stamp = self.next_stamp();
        self.seen[s] = stamp;
        self.queue.clear();
        self.queue.push(s);
        let mut head = 0;
        let mut sink = None;
        'bfs: while head < self.queue.len() {
            let v = self.queue[head];
            head += 1;
            for &ai in &self.head_arcs[self.head_offsets[v]..self.head_offsets[v + 1]] {
                let arc = self.arcs[ai];
                if arc.cap > 0 && self.seen[arc.to] != stamp {
                    self.seen[arc.to] = stamp;
                    self.pred[arc.to] = ai;
                    if is_sink(arc.to) {
                        sink = Some(arc.to);
                        break 'bfs;
                    }
                    self.queue.push(arc.to);
                }
            }
        }
        let Some(t) = sink else {
            return false;
        };
        // Walk back from t, pushing one unit.
        let mut v = t;
        while v != s {
            let ai = self.pred[v];
            self.pushed.push(ai);
            self.arcs[ai].cap -= 1;
            let rev = self.arcs[ai].rev;
            self.arcs[rev].cap += 1;
            v = self.arcs[rev].to;
        }
        true
    }

    /// Advances the visited stamp. When it would wrap, every mark is cleared
    /// once so that no stale mark can equal a reused stamp.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Calls `visit` once for every residual closure of the current flow
    /// from `s` to the sinks: every vertex set `X` with `s` in `X` and no
    /// sink in `X` that no residual arc leaves. `visit` gets the vertices of
    /// `X` and a membership mask over all vertices.
    ///
    /// Call it after a maximum flow, one that no augmenting path grows. Then
    /// the closures are exactly the source sides of the minimum cuts between
    /// `s` and the sinks (Picard–Queyranne): every edge leaving `X` carries
    /// one unit out of it, so `|δ(X)|` is the flow value.
    ///
    /// The closures are listed by include/exclude branching over the
    /// vertices that neither `s` reaches nor that reach a sink. Including a
    /// vertex adds everything it reaches; excluding it adds everything that
    /// reaches it. Both branches always end in a closure, so the work is
    /// `O(n + m)` per closure, never exponential.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range, or if `s` reaches a sink: the flow
    /// was not maximum.
    pub(crate) fn residual_closures(
        &self,
        s: NodeId,
        is_sink: impl Fn(NodeId) -> bool,
        mut visit: impl FnMut(&[NodeId], &[bool]),
    ) {
        assert!(s < self.n, "flow source out of range");
        // `outside` holds the vertices no closure may contain: the sinks,
        // everything that reaches one, and later every excluded vertex with
        // everything that reaches it. `members` lists the closure so far,
        // `inside` marks it.
        let mut outside = vec![false; self.n];
        let mut excluded: Vec<NodeId> = (0..self.n).filter(|&v| is_sink(v)).collect();
        for &v in &excluded {
            outside[v] = true;
        }
        self.close_backward(&mut excluded, 0, &mut outside);
        let mut inside = vec![false; self.n];
        let mut members = Vec::new();
        self.close_forward(s, &mut members, &mut inside);
        assert!(
            members.iter().all(|&v| !outside[v]),
            "the source reaches a sink: the flow is not maximum"
        );
        let open: Vec<NodeId> = (0..self.n).filter(|&v| !inside[v] && !outside[v]).collect();
        excluded.clear();

        // The decision stack: the position in `open` of each decided vertex,
        // the lengths of `members` and `excluded` before it, and whether it
        // is on its include branch.
        let mut stack: Vec<(usize, usize, usize, bool)> = Vec::new();
        let mut pos = 0;
        loop {
            while pos < open.len() && (inside[open[pos]] || outside[open[pos]]) {
                pos += 1;
            }
            if pos < open.len() {
                stack.push((pos, members.len(), excluded.len(), true));
                self.close_forward(open[pos], &mut members, &mut inside);
                pos += 1;
                continue;
            }
            visit(&members, &inside);
            // Back up to the last vertex still on its include branch, and
            // take its exclude branch.
            loop {
                let Some((at, kept_members, kept_excluded, included)) = stack.pop() else {
                    return;
                };
                for v in members.drain(kept_members..) {
                    inside[v] = false;
                }
                for v in excluded.drain(kept_excluded..) {
                    outside[v] = false;
                }
                if included {
                    stack.push((at, kept_members, kept_excluded, false));
                    outside[open[at]] = true;
                    excluded.push(open[at]);
                    self.close_backward(&mut excluded, kept_excluded, &mut outside);
                    pos = at + 1;
                    break;
                }
            }
        }
    }

    /// Adds `v`, which is not inside, and every vertex it reaches over
    /// residual arcs to `members` and `inside`, stopping at vertices already
    /// inside.
    fn close_forward(&self, v: NodeId, members: &mut Vec<NodeId>, inside: &mut [bool]) {
        let mut next = members.len();
        inside[v] = true;
        members.push(v);
        while next < members.len() {
            let u = members[next];
            next += 1;
            for &ai in self.head(u) {
                let arc = self.arcs[ai];
                if arc.cap > 0 && !inside[arc.to] {
                    inside[arc.to] = true;
                    members.push(arc.to);
                }
            }
        }
    }

    /// Adds every vertex that reaches one of `list[from..]` over residual
    /// arcs to `list` and `outside`, stopping at vertices already outside.
    fn close_backward(&self, list: &mut Vec<NodeId>, from: usize, outside: &mut [bool]) {
        let mut next = from;
        while next < list.len() {
            let u = list[next];
            next += 1;
            // The arcs into `u` are the reverses of the arcs out of it.
            for &ai in self.head(u) {
                let back = self.arcs[self.arcs[ai].rev];
                let from = self.arcs[ai].to;
                if back.cap > 0 && !outside[from] {
                    outside[from] = true;
                    list.push(from);
                }
            }
        }
    }

    /// The search as first written, allocating its buffers per path: the
    /// oracle for [`UnitFlow::augment`].
    #[cfg(test)]
    fn augment_allocating(&mut self, s: NodeId, is_sink: &impl Fn(NodeId) -> bool) -> bool {
        let mut pred: Vec<Option<usize>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        seen[s] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        let mut sink = None;
        'bfs: while let Some(v) = queue.pop_front() {
            for &ai in self.head(v) {
                let arc = self.arcs[ai];
                if arc.cap > 0 && !seen[arc.to] {
                    seen[arc.to] = true;
                    pred[arc.to] = Some(ai);
                    if is_sink(arc.to) {
                        sink = Some(arc.to);
                        break 'bfs;
                    }
                    queue.push_back(arc.to);
                }
            }
        }
        let Some(t) = sink else {
            return false;
        };
        let mut v = t;
        while v != s {
            let ai = pred[v].expect("predecessor must exist on augmenting path");
            self.arcs[ai].cap -= 1;
            let rev = self.arcs[ai].rev;
            self.arcs[rev].cap += 1;
            v = self.arcs[rev].to;
        }
        true
    }

    /// [`UnitFlow::max_flow_to_set_capped`] over
    /// [`UnitFlow::augment_allocating`], resetting every arc as first
    /// written: the oracle for the restore of the pushed arcs too.
    #[cfg(test)]
    fn max_flow_capped_allocating(
        &mut self,
        s: NodeId,
        is_sink: impl Fn(NodeId) -> bool,
        limit: u32,
    ) -> u32 {
        for arc in &mut self.arcs {
            arc.cap = 1;
        }
        self.pushed.clear();
        let mut flow = 0;
        while flow < limit && self.augment_allocating(s, &is_sink) {
            flow += 1;
        }
        flow
    }
}

/// The prefix sweep of a connected subgraph: a BFS order of it from vertex
/// 0, and for each position `i` a flow from `order[i]` to its prefix
/// `P = order[..i]`, the vertices before it.
///
/// One search serves the connectivity sweep and the flow cut enumerator.
/// Every augmenting search ends at the first vertex of `P` it reaches, and a
/// vertex's BFS parent is in `P`, so on sparse graphs too the paths stay
/// short.
#[derive(Clone, Debug)]
pub struct PrefixSweep {
    order: Vec<NodeId>,
    /// `rank[v]` is the position of `v` in `order`.
    rank: Vec<usize>,
    flow: UnitFlow,
    /// The position of the last flow when it stopped below its limit, so
    /// that it is a maximum flow and its residual closures are cuts.
    maximum_at: Option<usize>,
}

impl PrefixSweep {
    /// The sweep over the subgraph of `graph` given by `edges`, or `None`
    /// when that subgraph is disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has no vertex.
    pub fn new(graph: &Graph, edges: &EdgeSet) -> Option<Self> {
        let order = bfs::bfs_in(graph, edges, 0).order;
        if order.len() < graph.n() {
            return None;
        }
        let mut rank = vec![0; graph.n()];
        for (i, &v) in order.iter().enumerate() {
            rank[v] = i;
        }
        Some(PrefixSweep {
            order,
            rank,
            flow: UnitFlow::new(graph, edges),
            maximum_at: None,
        })
    }

    /// The flow from `order[i]` to the vertices before it, capped at
    /// `limit`. At `i = 0` the prefix is empty and the flow is 0.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below `n`.
    pub fn flow(&mut self, i: usize, limit: u32) -> u32 {
        let rank = &self.rank;
        let flow = self
            .flow
            .max_flow_to_set_capped(self.order[i], |w| rank[w] < i, limit);
        self.maximum_at = (flow < limit).then_some(i);
        flow
    }

    /// Calls `visit` once for every residual closure of the last
    /// [`PrefixSweep::flow`], from `v = order[i]`: every vertex set `X` with
    /// `v` in `X`, no vertex of the prefix in `X`, and no residual arc
    /// leaving `X`. These are the sides, away from vertex 0, of the minimum
    /// cuts between `v` and its prefix. `visit` gets the vertices of `X` and
    /// a membership mask over all vertices.
    ///
    /// Each edge leaving `X` carries one unit of flow out of it, so `|δ(X)|`
    /// is the flow value. The closures are listed by include/exclude
    /// branching, in `O(n + m)` time each.
    ///
    /// # Panics
    ///
    /// Panics unless the last flow stopped below its limit, which makes it
    /// a maximum flow.
    pub fn closures(&self, visit: impl FnMut(&[NodeId], &[bool])) {
        let i = self
            .maximum_at
            .expect("closures follow a flow that stopped below its limit");
        let rank = &self.rank;
        self.flow
            .residual_closures(self.order[i], |w| rank[w] < i, visit);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generators;

    /// The maximum `s`–`t` flow in the subgraph given by `edges`.
    fn flow_in(g: &Graph, edges: &EdgeSet, s: NodeId, t: NodeId) -> u32 {
        UnitFlow::new(g, edges).max_flow(s, t)
    }

    #[test]
    fn flow_on_cycle_is_two() {
        let g = generators::cycle(6, 1);
        let all = g.full_edge_set();
        assert_eq!(flow_in(&g, &all, 0, 3), 2);
    }

    #[test]
    fn flow_on_path_is_one() {
        let g = generators::path(4, 1);
        let all = g.full_edge_set();
        assert_eq!(flow_in(&g, &all, 0, 3), 1);
    }

    #[test]
    fn flow_on_complete_graph_equals_degree() {
        let g = generators::complete(5, 1);
        let all = g.full_edge_set();
        assert_eq!(flow_in(&g, &all, 0, 4), 4);
    }

    #[test]
    fn capped_flow_stops_early() {
        let g = generators::complete(6, 1);
        let all = g.full_edge_set();
        assert_eq!(UnitFlow::new(&g, &all).max_flow_capped(0, 5, 2), 2);
    }

    #[test]
    fn flow_respects_edge_mask() {
        let g = generators::cycle(5, 1);
        let mut half = g.empty_edge_set();
        // Keep only edges 0-1, 1-2 (a path); connectivity drops to 1.
        half.insert(crate::EdgeId(0));
        half.insert(crate::EdgeId(1));
        assert_eq!(flow_in(&g, &half, 0, 2), 1);
        assert_eq!(flow_in(&g, &half, 0, 3), 0);
    }

    #[test]
    fn parallel_edges_add_capacity() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 1);
        let all = g.full_edge_set();
        assert_eq!(flow_in(&g, &all, 0, 1), 3);
    }

    #[test]
    fn disconnected_vertices_have_zero_flow() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        let all = g.full_edge_set();
        assert_eq!(flow_in(&g, &all, 0, 3), 0);
    }

    #[test]
    fn reusing_solver_resets_flow() {
        let g = generators::cycle(5, 1);
        let all = g.full_edge_set();
        let mut f = UnitFlow::new(&g, &all);
        assert_eq!(f.max_flow(0, 2), 2);
        assert_eq!(f.max_flow(1, 3), 2);
        assert_eq!(f.max_flow(0, 2), 2);
    }

    #[test]
    fn the_closures_of_a_cycle_are_its_arcs_from_the_source() {
        // On the cycle 0-1-...-5 the flow from 1 to {0} is 2, and its
        // minimum cuts are {01, j(j+1)}: the closures {1, ..., j}.
        let g = generators::cycle(6, 1);
        let mut f = UnitFlow::new(&g, &g.full_edge_set());
        assert_eq!(f.max_flow_to_set_capped(1, |v| v == 0, 3), 2);
        let mut closures = Vec::new();
        f.residual_closures(
            1,
            |v| v == 0,
            |members, inside| {
                assert_eq!(inside.iter().filter(|&&x| x).count(), members.len());
                assert!(members.iter().all(|&v| inside[v]));
                let mut members = members.to_vec();
                members.sort_unstable();
                closures.push(members);
            },
        );
        closures.sort();
        let expected: Vec<Vec<NodeId>> = (2..=6).map(|j| (1..j).collect()).collect();
        assert_eq!(closures, expected);
    }

    #[test]
    fn the_visited_stamp_survives_its_wrap() {
        let g = generators::harary(4, 12, 1);
        let all = g.full_edge_set();
        let mut f = UnitFlow::new(&g, &all);
        // Two searches before the wrap. Every mark the wrap leaves behind
        // equals the first stamp after it, so a mark that survived the wrap
        // would block the search that reuses it.
        f.stamp = u32::MAX - 2;
        f.seen.fill(1);
        for (s, t) in [(0, 6), (3, 9), (1, 2), (5, 11)] {
            let mut oracle = f.clone();
            assert_eq!(
                f.max_flow_capped(s, t, 8),
                oracle.max_flow_capped_allocating(s, |v| v == t, 8),
                "{s} -> {t} across the wrap"
            );
        }
        assert!(f.stamp < 64, "the stamp wrapped: {}", f.stamp);
    }

    /// A random multigraph on `n` vertices with `m` edges, and a random
    /// subset of its edges.
    pub(crate) fn random_masked(n: usize, m: usize, keep: u32, seed: u64) -> (Graph, EdgeSet) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            g.add_edge(u, v, 1);
        }
        let edges = g
            .edge_ids()
            .filter(|_| rng.gen_range(0..100u32) < keep)
            .collect();
        (g, edges)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 64,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// The allocation-free search pushes the same flow as the search
        /// that allocated its buffers per path, to one sink and to a random
        /// sink set.
        #[test]
        fn capped_flow_matches_the_allocating_search(
            n in 2usize..24,
            m in 0usize..90,
            keep in 40u32..101,
            seed in 0u64..1_000_000,
        ) {
            use rand::{Rng, SeedableRng};
            let (g, edges) = random_masked(n, m, keep, seed);
            let mut fast = UnitFlow::new(&g, &edges);
            let mut oracle = UnitFlow::new(&g, &edges);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(!seed);
            for _ in 0..12 {
                let (s, t, limit) = (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(0..9u32));
                if s == t {
                    continue;
                }
                proptest::prop_assert_eq!(
                    fast.max_flow_capped(s, t, limit),
                    oracle.max_flow_capped_allocating(s, |v| v == t, limit),
                    "{} -> {} capped at {}", s, t, limit
                );
                let sinks: Vec<bool> = (0..n).map(|v| v != s && (v == t || rng.gen_range(0..4u32) == 0)).collect();
                proptest::prop_assert_eq!(
                    fast.max_flow_to_set_capped(s, |v| sinks[v], limit),
                    oracle.max_flow_capped_allocating(s, |v| sinks[v], limit),
                    "{} -> {:?} capped at {}", s, sinks, limit
                );
            }
        }
    }
}
