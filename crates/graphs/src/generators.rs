//! Synthetic graph generators used as workloads for the distributed k-ECSS
//! algorithms and their benchmarks.
//!
//! The paper evaluates nothing empirically, so the benchmark harness needs
//! families of k-edge-connected graphs whose diameter and connectivity can be
//! controlled independently:
//!
//! * [`harary`] graphs are the classical minimum-size k-edge-connected graphs
//!   (circulants), giving tight unweighted instances.
//! * [`random_k_edge_connected`] takes a relabelled Harary base and adds random
//!   extra edges, producing instances where the approximation algorithms have
//!   real choices to make.
//! * [`ring_of_cliques`] produces high-diameter 2-edge-connected graphs, the
//!   regime where the `O((D+sqrt(n)) log^2 n)` bound of Theorem 1.1 separates
//!   from the `O(h_MST + sqrt(n))` baseline of \[1\].
//! * [`torus`] gives 4-edge-connected bounded-degree graphs with diameter
//!   `Theta(sqrt(n))`.
//! * [`hypercube`] gives `log2(n)`-regular graphs with edge connectivity
//!   exactly `log2(n)` — the known-ground-truth family for high-`k` cut
//!   enumeration and the `k > 4` pipeline.

use crate::graph::{Graph, NodeId, Weight};
use rand::seq::SliceRandom;
use rand::Rng;

/// A path `0 - 1 - ... - (n-1)` with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize, w: Weight) -> Graph {
    assert!(n > 0, "path requires at least one vertex");
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(v - 1, v, w);
    }
    g
}

/// A cycle on `n >= 3` vertices with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize, w: Weight) -> Graph {
    assert!(n >= 3, "cycle requires at least three vertices");
    let mut g = Graph::new(n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, w);
    }
    g
}

/// The complete graph on `n` vertices with uniform edge weight `w`.
pub fn complete(n: usize, w: Weight) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, w);
        }
    }
    g
}

/// A `rows x cols` grid graph (no wraparound) with uniform weight `w`.
///
/// The grid is 2-edge-connected whenever both dimensions are at least 2.
pub fn grid(rows: usize, cols: usize, w: Weight) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1), w);
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c), w);
            }
        }
    }
    g
}

/// A `rows x cols` torus (grid with wraparound) with uniform weight `w`.
///
/// For `rows, cols >= 3` the torus is 4-regular and 4-edge-connected, with
/// diameter `(rows + cols) / 2`.
///
/// # Panics
///
/// Panics if either dimension is smaller than 3.
pub fn torus(rows: usize, cols: usize, w: Weight) -> Graph {
    assert!(
        rows >= 3 && cols >= 3,
        "torus requires both dimensions >= 3"
    );
    let n = rows * cols;
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            g.add_edge(id(r, c), id(r, (c + 1) % cols), w);
            g.add_edge(id(r, c), id((r + 1) % rows, c), w);
        }
    }
    g
}

/// The Harary graph `H_{k,n}`: the minimum-size k-edge-connected graph on `n`
/// vertices, built as a circulant. All edges have weight `w`.
///
/// Construction: every vertex `i` is joined to `i ± 1, …, i ± floor(k/2)`
/// (mod n); if `k` is odd, vertex `i` is additionally joined to `i + n/2`
/// (this requires `n` even, which the function enforces by rounding the
/// opposite-vertex offset). The resulting graph is k-edge-connected with
/// `ceil(k n / 2)` edges.
///
/// # Panics
///
/// Panics if `k >= n` or `k == 0`, or if `k` is odd and `n` is odd.
pub fn harary(k: usize, n: usize, w: Weight) -> Graph {
    assert!(k >= 1, "connectivity must be at least 1");
    assert!(k < n, "harary requires k < n");
    if k % 2 == 1 && k > 1 {
        assert!(n.is_multiple_of(2), "harary with odd k requires even n");
    }
    let mut g = Graph::new(n);
    let half = k / 2;
    for i in 0..n {
        for d in 1..=half {
            let j = (i + d) % n;
            g.add_edge(i, j, w);
        }
    }
    if k % 2 == 1 {
        if k == 1 {
            // H_{1,n} is a path; k=1 with the circulant construction would
            // add no edges, so special-case it.
            return path(n, w);
        }
        for i in 0..n / 2 {
            g.add_edge(i, i + n / 2, w);
        }
    }
    g
}

/// The `dim`-dimensional hypercube `Q_dim`: `2^dim` vertices, one per
/// `dim`-bit string, joined when the strings differ in exactly one bit. All
/// edges have weight `w`.
///
/// `Q_dim` is `dim`-regular with edge connectivity exactly `dim`, which makes
/// it the ground-truth family for high-`k` cut enumeration: a `k`-ECSS run
/// with `k = dim` is feasible and must keep (close to) all edges, and the
/// minimum cuts of size `dim` include every vertex star.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 20` (the vertex count is `2^dim`).
pub fn hypercube(dim: usize, w: Weight) -> Graph {
    assert!(dim >= 1, "hypercube requires dimension >= 1");
    assert!(dim <= 20, "hypercube dimension {dim} is unreasonably large");
    let n = 1usize << dim;
    let mut g = Graph::new(n);
    for v in 0..n {
        for b in 0..dim {
            let u = v ^ (1 << b);
            if v < u {
                g.add_edge(v, u, w);
            }
        }
    }
    g
}

/// A ring of `cliques` cliques, each of `clique_size` vertices, where
/// consecutive cliques are connected by `links` parallel-ish edges (distinct
/// endpoint pairs). All edges have weight `w`.
///
/// With `links >= k` and `clique_size > k` the result is k-edge-connected and
/// has diameter `Theta(cliques)`, which is the high-diameter regime used by
/// experiment E8.
///
/// # Panics
///
/// Panics if `cliques < 3`, `clique_size < 2`, or `links > clique_size`.
pub fn ring_of_cliques(cliques: usize, clique_size: usize, links: usize, w: Weight) -> Graph {
    assert!(
        cliques >= 3,
        "ring_of_cliques requires at least three cliques"
    );
    assert!(clique_size >= 2, "cliques must have at least two vertices");
    assert!(
        links <= clique_size,
        "cannot create more links than clique vertices"
    );
    let n = cliques * clique_size;
    let mut g = Graph::new(n);
    let id = |c: usize, i: usize| c * clique_size + i;
    for c in 0..cliques {
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                g.add_edge(id(c, i), id(c, j), w);
            }
        }
    }
    for c in 0..cliques {
        let next = (c + 1) % cliques;
        for l in 0..links {
            g.add_edge(id(c, l), id(next, (l + 1) % clique_size), w);
        }
    }
    g
}

/// A random k-edge-connected graph: a Harary graph `H_{k,n}` under a uniformly
/// random relabelling of the vertices, plus `extra_edges` additional uniformly
/// random non-duplicate edges. All edges have weight 1; use
/// [`randomize_weights`] for weighted instances.
///
/// The Harary base guarantees k-edge-connectivity regardless of the random
/// choices, so generated instances never need rejection sampling.
///
/// # Panics
///
/// Panics under the same conditions as [`harary`].
pub fn random_k_edge_connected<R: Rng>(
    n: usize,
    k: usize,
    extra_edges: usize,
    rng: &mut R,
) -> Graph {
    let base = harary(k, n, 1);
    let mut labels: Vec<NodeId> = (0..n).collect();
    labels.shuffle(rng);
    let mut g = Graph::new(n);
    let mut present: std::collections::HashSet<(NodeId, NodeId)> = std::collections::HashSet::new();
    for (_, e) in base.edges() {
        let u = labels[e.u];
        let v = labels[e.v];
        present.insert((u.min(v), u.max(v)));
        g.add_edge(u, v, 1);
    }
    let mut added = 0;
    let max_extra = n * (n - 1) / 2 - g.m();
    let target = extra_edges.min(max_extra);
    let mut attempts = 0usize;
    while added < target && attempts < 50 * target + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            g.add_edge(u, v, 1);
            added += 1;
        }
    }
    g
}

/// Replaces every edge weight with a uniformly random integer in
/// `1..=max_weight`. Weights remain polynomial in `n` as the paper assumes.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn randomize_weights<R: Rng>(graph: &mut Graph, max_weight: Weight, rng: &mut R) {
    assert!(max_weight >= 1, "max_weight must be positive");
    for id in graph.edge_ids().collect::<Vec<_>>() {
        let w = rng.gen_range(1..=max_weight);
        graph.set_weight(id, w);
    }
}

/// Convenience: a random k-edge-connected graph with random weights in
/// `1..=max_weight` and `extra_edges` extra random edges.
pub fn random_weighted_k_edge_connected<R: Rng>(
    n: usize,
    k: usize,
    extra_edges: usize,
    max_weight: Weight,
    rng: &mut R,
) -> Graph {
    let mut g = random_k_edge_connected(n, k, extra_edges, rng);
    randomize_weights(&mut g, max_weight, rng);
    g
}

/// A connected Erdős–Rényi-style random graph: a uniformly random spanning
/// tree (random Prüfer-free attachment) plus each remaining pair added with
/// probability `p`. Unit weights.
pub fn random_connected<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "random_connected requires at least one vertex");
    let mut g = Graph::new(n);
    let mut order: Vec<NodeId> = (0..n).collect();
    order.shuffle(rng);
    // Random attachment tree over the shuffled order guarantees connectivity.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.add_edge(order[i], order[j], 1);
    }
    let mut present: std::collections::HashSet<(NodeId, NodeId)> =
        g.edges().map(|(_, e)| e.ordered()).collect();
    for u in 0..n {
        for v in (u + 1)..n {
            if present.contains(&(u, v)) {
                continue;
            }
            if rng.gen_bool(p) {
                present.insert((u, v));
                g.add_edge(u, v, 1);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5, 2);
        assert_eq!(p.m(), 4);
        assert_eq!(p.total_weight(), 8);
        let c = cycle(5, 1);
        assert_eq!(c.m(), 5);
        assert!(connectivity::is_connected(&c));
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6, 1);
        assert_eq!(g.m(), 15);
        assert_eq!(connectivity::edge_connectivity(&g), 5);
    }

    #[test]
    fn grid_and_torus_are_connected() {
        let g = grid(3, 4, 1);
        assert_eq!(g.n(), 12);
        assert!(connectivity::is_connected(&g));
        assert_eq!(connectivity::edge_connectivity(&g), 2);
        let t = torus(3, 3, 1);
        assert_eq!(connectivity::edge_connectivity(&t), 4);
    }

    #[test]
    fn harary_is_k_edge_connected_and_minimal() {
        for (k, n) in [(2, 7), (3, 8), (4, 9), (5, 10)] {
            let g = harary(k, n, 1);
            assert_eq!(
                connectivity::edge_connectivity(&g),
                k,
                "H_{{{k},{n}}} should be exactly {k}-edge-connected"
            );
            assert_eq!(g.m(), (k * n).div_ceil(2), "H_{{{k},{n}}} size");
        }
    }

    #[test]
    fn harary_k1_is_a_path() {
        let g = harary(1, 5, 3);
        assert_eq!(g.m(), 4);
        assert!(connectivity::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "odd k requires even n")]
    fn harary_rejects_odd_k_odd_n() {
        harary(3, 7, 1);
    }

    #[test]
    fn hypercube_connectivity_is_the_dimension() {
        for dim in 1..=5 {
            let g = hypercube(dim, 1);
            assert_eq!(g.n(), 1 << dim);
            assert_eq!(g.m(), dim << (dim - 1), "Q_{dim} has dim * 2^(dim-1) edges");
            assert_eq!(
                connectivity::edge_connectivity(&g),
                dim,
                "Q_{dim} must be exactly {dim}-edge-connected"
            );
        }
    }

    #[test]
    fn hypercube_diameter_is_the_dimension() {
        let g = hypercube(4, 1);
        assert_eq!(crate::bfs::diameter(&g), Some(4));
    }

    #[test]
    #[should_panic(expected = "dimension >= 1")]
    fn hypercube_rejects_dimension_zero() {
        hypercube(0, 1);
    }

    #[test]
    fn ring_of_cliques_connectivity_and_diameter() {
        let g = ring_of_cliques(6, 4, 2, 1);
        assert_eq!(g.n(), 24);
        // Min cut is min(2 * links, min internal degree) = 3 here; the promise
        // is only "at least links-edge-connected".
        assert!(connectivity::edge_connectivity(&g) >= 2);
        let d = crate::bfs::diameter(&g).unwrap();
        // Crossing to the opposite side of the ring takes at least
        // floor(cliques / 2) inter-clique hops.
        assert!(
            d >= 3,
            "ring of 6 cliques should have diameter >= 3, got {d}"
        );
    }

    #[test]
    fn random_k_edge_connected_has_promised_connectivity() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for k in 2..=4 {
            let g = random_k_edge_connected(16, k, 10, &mut rng);
            assert!(
                connectivity::edge_connectivity(&g) >= k,
                "random graph must be at least {k}-edge-connected"
            );
        }
    }

    #[test]
    fn random_k_edge_connected_is_deterministic_per_seed() {
        let g1 = random_k_edge_connected(12, 2, 5, &mut ChaCha8Rng::seed_from_u64(3));
        let g2 = random_k_edge_connected(12, 2, 5, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(g1, g2);
    }

    #[test]
    fn randomize_weights_stays_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut g = cycle(10, 1);
        randomize_weights(&mut g, 50, &mut rng);
        for (_, e) in g.edges() {
            assert!(e.weight >= 1 && e.weight <= 50);
        }
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [1, 2, 10, 40] {
            let g = random_connected(n, 0.05, &mut rng);
            assert!(connectivity::is_connected(&g), "n = {n}");
        }
    }

    #[test]
    fn random_weighted_instance_has_positive_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = random_weighted_k_edge_connected(20, 3, 12, 100, &mut rng);
        assert!(connectivity::edge_connectivity(&g) >= 3);
        assert!(g.edges().all(|(_, e)| e.weight >= 1));
    }
}
