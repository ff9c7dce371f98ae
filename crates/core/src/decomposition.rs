//! The segment / skeleton-tree decomposition of a spanning tree
//! (Section 3.2 and Figure 1 of the paper).
//!
//! The weighted TAP algorithm performs `O(log² n)` iterations, and in each
//! iteration every non-tree edge and every tree edge needs global information
//! (cost-effectiveness, best covering candidate, vote counts). The
//! decomposition makes each iteration run in `O(D + √n)` rounds by cutting
//! the tree into `O(√n)` edge-disjoint *segments* of diameter `O(√n)`, each
//! with a *highway* (the path between the segment's root `r_S` and its unique
//! descendant `d_S`) such that only `r_S` and `d_S` touch other segments. The
//! *skeleton tree* contracts every highway to a single virtual edge.
//!
//! Construction (following the paper, which follows \[14\] with deterministic
//! fragment selection):
//!
//! 1. **Fragments** — the spanning tree is cut into `O(√n)` fragments of
//!    height `O(√n)` (here: a deterministic bottom-up clustering with target
//!    size `⌈√n⌉`, standing in for the Kutten–Peleg MST fragments).
//! 2. **Marked vertices** — endpoints of inter-fragment ("global") tree edges
//!    plus the root, closed under LCA (Lemma 3.4).
//! 3. **Segments** — for every marked vertex `d ≠ r`, the path to its nearest
//!    marked proper ancestor is a highway; the segment consists of the highway
//!    plus every subtree hanging off its internal vertices. Subtrees hanging
//!    off a marked vertex with no marked descendants join a segment rooted at
//!    that vertex (with an empty highway if necessary).

use graphs::{Graph, NodeId, RootedTree};

/// One segment of the decomposition.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The segment's root `r_S` (an ancestor of every vertex in the segment).
    pub root: NodeId,
    /// The segment's unique descendant `d_S` (equal to `root` for segments
    /// with an empty highway).
    pub descendant: NodeId,
    /// The highway vertices, from `d_S` up to and including `r_S`
    /// (a single vertex for empty-highway segments).
    pub highway: Vec<NodeId>,
    /// Every vertex of the segment (including `root` and `descendant`).
    pub vertices: Vec<NodeId>,
}

impl Segment {
    /// The segment id `(r_S, d_S)` as defined by the paper.
    pub fn id(&self) -> (NodeId, NodeId) {
        (self.root, self.descendant)
    }

    /// Number of tree edges on the highway.
    pub fn highway_len(&self) -> usize {
        self.highway.len().saturating_sub(1)
    }

    /// Number of vertices in the segment.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the segment has no vertices (never true for built segments).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// The full decomposition of a rooted spanning tree into segments, plus the
/// skeleton tree over the marked vertices.
#[derive(Clone, Debug)]
pub struct Decomposition {
    segments: Vec<Segment>,
    /// Home segment of each vertex. Marked vertices (which may belong to
    /// several segments) are assigned one of them.
    segment_of: Vec<usize>,
    marked: Vec<bool>,
    /// Skeleton-tree parent of each marked vertex (`None` for the root and
    /// for unmarked vertices).
    skeleton_parent: Vec<Option<NodeId>>,
    /// Fragment id of each vertex from the preliminary fragment step.
    fragment_of: Vec<usize>,
    num_fragments: usize,
    target: usize,
}

impl Decomposition {
    /// Builds the decomposition of `tree` (a rooted spanning tree of `graph`)
    /// with the default fragment-size target `⌈√n⌉`.
    pub fn build(graph: &Graph, tree: &RootedTree) -> Self {
        let target = (graph.n() as f64).sqrt().ceil() as usize;
        Self::build_with_target(graph, tree, target.max(1))
    }

    /// Builds the decomposition with an explicit fragment-size target
    /// (exposed for the decomposition experiment E4).
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero or if `tree` does not span `graph`.
    pub fn build_with_target(graph: &Graph, tree: &RootedTree, target: usize) -> Self {
        assert!(target >= 1, "fragment target must be positive");
        assert_eq!(tree.len(), graph.n(), "the tree must span the graph");
        let n = graph.n();
        let root = tree.root();
        let order = tree.bfs_order().to_vec();

        // ---- Step I: fragments (bottom-up clustering). ----
        let mut pending = vec![1usize; n];
        let mut fragment_root = vec![false; n];
        for &v in order.iter().rev() {
            if pending[v] >= target || v == root {
                fragment_root[v] = true;
                pending[v] = 0;
            }
            if let Some(p) = tree.parent(v) {
                pending[p] += pending[v];
            }
        }
        // fragment_of[v] = nearest fragment-root ancestor (inclusive).
        let mut fragment_of = vec![usize::MAX; n];
        for &v in &order {
            if fragment_root[v] {
                fragment_of[v] = v;
            } else {
                fragment_of[v] = fragment_of[tree.parent(v).expect("non-root has parent")];
            }
        }
        let num_fragments = fragment_root.iter().filter(|&&b| b).count();

        // ---- Step II: marked vertices. ----
        // Global tree edges connect different fragments: exactly the parent
        // edges of non-root fragment roots. Mark both endpoints plus the root.
        let mut marked = vec![false; n];
        marked[root] = true;
        for v in 0..n {
            if fragment_root[v] && v != root {
                marked[v] = true;
                marked[tree.parent(v).expect("non-root fragment root has parent")] = true;
            }
        }
        // Close under LCA: sort marked vertices by DFS in-time and add the LCA
        // of each consecutive pair (sufficient for LCA-closure).
        let in_time = dfs_in_times(tree);
        let mut marked_list: Vec<NodeId> = (0..n).filter(|&v| marked[v]).collect();
        marked_list.sort_by_key(|&v| in_time[v]);
        for w in marked_list.windows(2) {
            marked[tree.lca(w[0], w[1])] = true;
        }
        // Adding the LCAs of consecutive pairs (in DFS order) yields the full
        // LCA closure in one pass; rebuild the list so the newly marked
        // vertices also get highways of their own.
        let mut marked_list: Vec<NodeId> = (0..n).filter(|&v| marked[v]).collect();
        marked_list.sort_by_key(|&v| in_time[v]);

        // ---- Step III: segments. ----
        //

        // Nearest marked ancestor, inclusive.
        let mut nma = vec![root; n];
        for &v in &order {
            nma[v] = if marked[v] {
                v
            } else {
                nma[tree.parent(v).expect("non-root has parent")]
            };
        }

        let mut segments: Vec<Segment> = Vec::new();
        let mut skeleton_parent = vec![None; n];
        // Highway membership: segment index for internal (unmarked) highway
        // vertices; marked vertices are handled separately.
        let mut highway_segment = vec![usize::MAX; n];
        // A segment rooted at a marked vertex, for attaching highway-free
        // subtrees (paper: reuse an existing segment rooted there if any).
        let mut segment_rooted_at = vec![usize::MAX; n];

        for &d in &marked_list {
            if d == root {
                continue;
            }
            let p = tree.parent(d).expect("non-root has parent");
            let r_s = if marked[p] { p } else { nma[p] };
            skeleton_parent[d] = Some(r_s);
            let highway = tree.path_to_ancestor(d, r_s);
            let idx = segments.len();
            for &v in &highway {
                if !marked[v] {
                    highway_segment[v] = idx;
                }
            }
            if segment_rooted_at[r_s] == usize::MAX {
                segment_rooted_at[r_s] = idx;
            }
            segments.push(Segment {
                root: r_s,
                descendant: d,
                highway,
                vertices: Vec::new(),
            });
        }

        // Assign every vertex to its home segment.
        let mut segment_of = vec![usize::MAX; n];
        for &v in &order {
            if marked[v] {
                continue; // assigned after the loop
            }
            if highway_segment[v] != usize::MAX {
                segment_of[v] = highway_segment[v];
                continue;
            }
            let p = tree.parent(v).expect("non-root unmarked vertex has parent");
            if marked[p] {
                // Subtree hanging off a marked vertex with no marked
                // descendants below v: attach to a segment rooted at p,
                // creating an empty-highway segment if none exists.
                if segment_rooted_at[p] == usize::MAX {
                    segment_rooted_at[p] = segments.len();
                    segments.push(Segment {
                        root: p,
                        descendant: p,
                        highway: vec![p],
                        vertices: Vec::new(),
                    });
                }
                segment_of[v] = segment_rooted_at[p];
            } else {
                segment_of[v] = segment_of[p];
            }
        }
        // Marked vertices: home segment is the one where they are the unique
        // descendant (every marked vertex except possibly the root is the
        // descendant of exactly one segment); the root gets any segment rooted
        // at it.
        for (idx, seg) in segments.iter().enumerate() {
            if seg.descendant != seg.root {
                segment_of[seg.descendant] = idx;
            }
        }
        if segment_of[root] == usize::MAX {
            segment_of[root] = segment_rooted_at[root].min(segments.len().saturating_sub(1));
        }

        // Populate vertex lists: a vertex belongs to its home segment, and the
        // endpoints r_S / d_S additionally belong to their segments.
        for v in 0..n {
            if !marked[v] {
                segments[segment_of[v]].vertices.push(v);
            }
        }
        for segment in &mut segments {
            let r_s = segment.root;
            let d_s = segment.descendant;
            segment.vertices.push(r_s);
            if d_s != r_s {
                segment.vertices.push(d_s);
            }
            segment.vertices.sort_unstable();
            segment.vertices.dedup();
        }

        Decomposition {
            segments,
            segment_of,
            marked,
            skeleton_parent,
            fragment_of,
            num_fragments,
            target,
        }
    }

    /// The fragment-size target used for the preliminary fragment step.
    pub fn target(&self) -> usize {
        self.target
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of fragments from the preliminary step.
    pub fn num_fragments(&self) -> usize {
        self.num_fragments
    }

    /// The fragment id of a vertex.
    pub fn fragment_of(&self, v: NodeId) -> usize {
        self.fragment_of[v]
    }

    /// Number of marked vertices (the skeleton tree's vertex count).
    pub fn num_marked(&self) -> usize {
        self.marked.iter().filter(|&&m| m).count()
    }

    /// Whether a vertex is marked (a skeleton-tree vertex).
    pub fn is_marked(&self, v: NodeId) -> bool {
        self.marked[v]
    }

    /// The home segment index of a vertex.
    pub fn segment_of(&self, v: NodeId) -> usize {
        self.segment_of[v]
    }

    /// The skeleton-tree parent of a marked vertex (`None` for the root).
    pub fn skeleton_parent(&self, v: NodeId) -> Option<NodeId> {
        self.skeleton_parent[v]
    }

    /// The maximum, over all segments, of the segment's internal (tree)
    /// diameter measured in hops — the quantity that bounds the pipelined
    /// segment scans of Section 3.1.
    pub fn max_segment_diameter(&self, graph: &Graph, tree: &RootedTree) -> usize {
        self.segments
            .iter()
            .map(|s| segment_diameter(graph, tree, s))
            .max()
            .unwrap_or(0)
    }

    /// Checks the structural invariants promised by Section 3.2 / Lemma 3.4
    /// and panics with a description if any is violated. Used by tests and by
    /// the decomposition experiment (E4).
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_invariants(&self, graph: &Graph, tree: &RootedTree) {
        let n = graph.n();
        let root = tree.root();
        assert!(self.marked[root], "the root must be marked");
        // Marked set closed under LCA.
        let marked: Vec<NodeId> = (0..n).filter(|&v| self.marked[v]).collect();
        for &a in &marked {
            for &b in &marked {
                assert!(
                    self.marked[tree.lca(a, b)],
                    "marked set not closed under LCA: lca({a}, {b})"
                );
            }
        }
        // Segments are edge-disjoint and cover all tree edges.
        let mut edge_seen = graph.empty_edge_set();
        for seg in &self.segments {
            let mut in_segment = vec![false; n];
            for &v in &seg.vertices {
                in_segment[v] = true;
            }
            for &v in &seg.vertices {
                if v == seg.root {
                    continue;
                }
                let p = tree.parent(v).expect("non-root vertex has a parent");
                if in_segment[p] {
                    let e = tree
                        .parent_edge(v)
                        .expect("non-root vertex has a parent edge");
                    assert!(
                        edge_seen.insert(e),
                        "tree edge {e:?} belongs to two segments"
                    );
                }
            }
            // r_S is an ancestor of every vertex of the segment.
            for &v in &seg.vertices {
                assert!(
                    tree.is_ancestor(seg.root, v),
                    "segment root {} is not an ancestor of {v}",
                    seg.root
                );
            }
            // Internal vertices must not touch other segments: every non-root,
            // non-descendant vertex's parent is inside the segment.
            for &v in &seg.vertices {
                if v == seg.root || v == seg.descendant {
                    continue;
                }
                let p = tree.parent(v).expect("non-root vertex has a parent");
                assert!(
                    in_segment[p],
                    "internal segment vertex {v} has its parent outside the segment"
                );
            }
        }
        let tree_edge_total = n - 1;
        assert_eq!(
            edge_seen.len(),
            tree_edge_total,
            "segments must cover every tree edge exactly once"
        );
        // Every vertex is in some segment.
        for v in 0..n {
            assert!(
                self.segment_of[v] < self.segments.len(),
                "vertex {v} has no segment"
            );
        }
    }
}

/// DFS entry times for LCA-closure ordering.
fn dfs_in_times(tree: &RootedTree) -> Vec<usize> {
    let n = tree.len();
    let mut in_time = vec![0usize; n];
    let mut timer = 0usize;
    let mut stack = vec![tree.root()];
    let mut visited = vec![false; n];
    while let Some(v) = stack.pop() {
        if visited[v] {
            continue;
        }
        visited[v] = true;
        in_time[v] = timer;
        timer += 1;
        for &c in tree.children(v).iter().rev() {
            stack.push(c);
        }
    }
    in_time
}

/// Exact tree diameter (in hops) of the segment's induced subtree.
fn segment_diameter(graph: &Graph, tree: &RootedTree, seg: &Segment) -> usize {
    if seg.vertices.len() <= 1 {
        return 0;
    }
    let mut in_segment = vec![false; graph.n()];
    for &v in &seg.vertices {
        in_segment[v] = true;
    }
    // Double BFS restricted to tree edges inside the segment.
    let far = bfs_far(graph, tree, &in_segment, seg.root).0;
    bfs_far(graph, tree, &in_segment, far).1
}

fn bfs_far(
    graph: &Graph,
    tree: &RootedTree,
    in_segment: &[bool],
    start: NodeId,
) -> (NodeId, usize) {
    let mut dist = vec![usize::MAX; graph.n()];
    dist[start] = 0;
    let mut queue = std::collections::VecDeque::from([start]);
    let (mut far, mut far_d) = (start, 0);
    while let Some(v) = queue.pop_front() {
        for &(u, e) in graph.neighbors(v) {
            let is_tree_edge = tree.parent_edge(v) == Some(e) || tree.parent_edge(u) == Some(e);
            if !is_tree_edge || !in_segment[u] || dist[u] != usize::MAX {
                continue;
            }
            dist[u] = dist[v] + 1;
            if dist[u] > far_d {
                far_d = dist[u];
                far = u;
            }
            queue.push_back(u);
        }
    }
    (far, far_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, mst};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn decompose(g: &Graph) -> (RootedTree, Decomposition) {
        let t_edges = mst::kruskal(g);
        let tree = RootedTree::new(g, &t_edges, 0);
        let d = Decomposition::build(g, &tree);
        (tree, d)
    }

    #[test]
    fn invariants_hold_on_path() {
        let g = generators::path(30, 1);
        let (tree, d) = decompose(&g);
        d.assert_invariants(&g, &tree);
        assert!(d.num_segments() >= 2, "a long path must be split");
    }

    #[test]
    fn invariants_hold_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for n in [10, 40, 90, 150] {
            let g = generators::random_weighted_k_edge_connected(n, 2, n, 50, &mut rng);
            let (tree, d) = decompose(&g);
            d.assert_invariants(&g, &tree);
        }
    }

    #[test]
    fn invariants_hold_on_star_like_tree() {
        // A star: root 0 adjacent to everyone; MST is the star itself.
        let g = generators::complete(20, 1);
        let (tree, d) = decompose(&g);
        d.assert_invariants(&g, &tree);
    }

    #[test]
    fn segment_and_marked_counts_scale_as_sqrt_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [64usize, 256, 400] {
            let g = generators::random_weighted_k_edge_connected(n, 2, 2 * n, 30, &mut rng);
            let (tree, d) = decompose(&g);
            let sqrt_n = (n as f64).sqrt();
            assert!(
                d.num_fragments() as f64 <= 3.0 * sqrt_n + 2.0,
                "fragments {} too many for n = {n}",
                d.num_fragments()
            );
            assert!(
                d.num_marked() as f64 <= 8.0 * sqrt_n + 2.0,
                "marked {} too many for n = {n}",
                d.num_marked()
            );
            assert!(
                d.num_segments() <= 2 * d.num_marked() + 1,
                "segments {} exceed twice the marked count {} for n = {n}",
                d.num_segments(),
                d.num_marked()
            );
            assert!(
                d.num_segments() as f64 <= 16.0 * sqrt_n + 2.0,
                "segments {} too many for n = {n}",
                d.num_segments()
            );
            let diam = d.max_segment_diameter(&g, &tree);
            assert!(
                diam as f64 <= 4.0 * sqrt_n + 2.0,
                "segment diameter {diam} too large for n = {n}"
            );
            d.assert_invariants(&g, &tree);
        }
    }

    #[test]
    fn path_segments_have_bounded_diameter() {
        let g = generators::path(100, 1);
        let (tree, d) = decompose(&g);
        assert!(d.max_segment_diameter(&g, &tree) <= 2 * d.target() + 2);
        d.assert_invariants(&g, &tree);
    }

    #[test]
    fn skeleton_parents_are_marked_ancestors() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::random_weighted_k_edge_connected(80, 2, 80, 20, &mut rng);
        let (tree, d) = decompose(&g);
        for v in 0..g.n() {
            if let Some(p) = d.skeleton_parent(v) {
                assert!(d.is_marked(v));
                assert!(d.is_marked(p));
                assert!(tree.is_ancestor(p, v));
                assert_ne!(p, v);
            }
        }
        // The root has no skeleton parent.
        assert_eq!(d.skeleton_parent(tree.root()), None);
    }

    #[test]
    fn highways_connect_descendant_to_root() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::random_weighted_k_edge_connected(60, 2, 60, 20, &mut rng);
        let (tree, d) = decompose(&g);
        for seg in d.segments() {
            assert_eq!(*seg.highway.first().unwrap(), seg.descendant);
            assert_eq!(*seg.highway.last().unwrap(), seg.root);
            assert_eq!(seg.highway_len() + 1, seg.highway.len());
            assert!(!seg.is_empty());
            assert!(seg.len() >= seg.highway.len());
            assert_eq!(seg.id(), (seg.root, seg.descendant));
            // Consecutive highway vertices are parent/child.
            for w in seg.highway.windows(2) {
                assert_eq!(tree.parent(w[0]), Some(w[1]));
            }
        }
    }

    #[test]
    fn small_graphs_build_without_panic() {
        for n in [2usize, 3, 4, 5] {
            let g = generators::complete(n, 1);
            let (tree, d) = decompose(&g);
            d.assert_invariants(&g, &tree);
        }
    }

    #[test]
    fn custom_target_controls_fragment_granularity() {
        let g = generators::path(64, 1);
        let t_edges = mst::kruskal(&g);
        let tree = RootedTree::new(&g, &t_edges, 0);
        let coarse = Decomposition::build_with_target(&g, &tree, 32);
        let fine = Decomposition::build_with_target(&g, &tree, 4);
        assert!(fine.num_segments() > coarse.num_segments());
        coarse.assert_invariants(&g, &tree);
        fine.assert_invariants(&g, &tree);
    }
}
