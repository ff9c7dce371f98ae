//! Property-based tests (proptest) for the core invariants:
//!
//! * every solver output is k-edge-connected and within the proven
//!   approximation factor of a certified lower bound;
//! * cycle-space labels agree with ground-truth cut pairs;
//! * the decomposition invariants hold on arbitrary random trees;
//! * cost-effectiveness rounding brackets the exact value;
//! * edge-set algebra behaves like set algebra, and the word-packed
//!   [`EdgeSet`] agrees with a naive `Vec<bool>` model on every operation;
//! * the word-wise exact removal test agrees with the naive per-edge scan;
//! * instances round-trip bit-exactly through the text and `KGB1` binary
//!   formats, with identical `EdgeId` assignment;
//! * the streaming two-pass readers agree byte-for-byte with the in-memory
//!   readers at chunk capacities that straddle every record boundary, and
//!   solutions round-trip between the text and `KGS1` binary encodings;
//! * the word-parallel exact diameter agrees with one BFS per vertex.

use graphs::stream::{BinaryCursor, TextCursor};
use graphs::{connectivity, generators, mst, EdgeId, EdgeSet, Graph, RootedTree};
use kecss::cover::Rounded;
use kecss::cycle_space::Circulation;
use kecss::decomposition::Decomposition;
use kecss::{lower_bounds, tap, two_ecss};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Theorem 1.1 output is always 2-edge-connected and within the
    /// logarithmic factor of the lower bound, for arbitrary instance seeds.
    #[test]
    fn two_ecss_is_always_feasible_and_bounded(
        n in 8usize..40,
        extra in 0usize..40,
        max_w in 1u64..80,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_weighted_k_edge_connected(n, 2, extra, max_w, &mut rng);
        let sol = two_ecss::solve(&graph, &mut rng).expect("instance is 2-edge-connected");
        prop_assert!(connectivity::is_k_edge_connected_in(&graph, &sol.subgraph, 2));
        let lb = lower_bounds::k_ecss_lower_bound(&graph, 2);
        prop_assert!(sol.weight >= lb);
        let bound = (lb as f64) * (6.0 * (n as f64).log2() + 6.0);
        prop_assert!((sol.weight as f64) <= bound, "weight {} > bound {bound}", sol.weight);
    }

    /// The TAP augmentation never contains tree edges and always covers every
    /// tree edge.
    #[test]
    fn tap_augmentation_covers_every_tree_edge(
        n in 6usize..32,
        extra in 2usize..30,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_weighted_k_edge_connected(n, 2, extra, 30, &mut rng);
        let tree = mst::kruskal(&graph);
        let sol = tap::solve(&graph, &tree, &mut rng).expect("instance is 2-edge-connected");
        for id in sol.augmentation.iter() {
            prop_assert!(!tree.contains(id));
        }
        let rooted = RootedTree::new(&graph, &tree, 0);
        // Every tree edge lies on the fundamental path of some chosen edge.
        let mut covered = vec![false; graph.n()];
        for id in sol.augmentation.iter() {
            let e = graph.edge(id);
            for child in rooted.path_edge_children(e.u, e.v) {
                covered[child] = true;
            }
        }
        for child in rooted.edge_children() {
            prop_assert!(covered[child], "tree edge of child {child} left uncovered");
        }
    }

    /// Cycle-space labels with 64 bits classify cut pairs exactly on small
    /// graphs (the w.h.p. guarantee is overwhelming at this size).
    #[test]
    fn circulation_labels_match_ground_truth(
        n in 6usize..18,
        extra in 0usize..10,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_k_edge_connected(n, 2, extra, &mut rng);
        let h = graph.full_edge_set();
        let bfs = graphs::bfs::bfs(&graph, 0);
        let tree = RootedTree::new(&graph, &bfs.tree_edges(&graph), 0);
        let circulation = Circulation::sample(&graph, &h, &tree, 64, &mut rng);
        let ids: Vec<EdgeId> = h.iter().collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let same = circulation.label(ids[i]) == circulation.label(ids[j]);
                let cut = !connectivity::is_connected_after_removal(&graph, &h, &[ids[i], ids[j]]);
                prop_assert_eq!(same, cut, "pair {:?} {:?}", ids[i], ids[j]);
            }
        }
    }

    /// Decomposition invariants hold for arbitrary random connected graphs and
    /// fragment targets.
    #[test]
    fn decomposition_invariants_hold(
        n in 4usize..120,
        p in 0.01f64..0.3,
        target in 2usize..16,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_connected(n, p, &mut rng);
        let tree_edges = mst::kruskal(&graph);
        let tree = RootedTree::new(&graph, &tree_edges, 0);
        let d = Decomposition::build_with_target(&graph, &tree, target);
        d.assert_invariants(&graph, &tree);
        // Property 1 of Lemma 3.4: every vertex has a marked ancestor within
        // the fragment height.
        for v in 0..graph.n() {
            let mut cur = v;
            let mut steps = 0usize;
            while !d.is_marked(cur) {
                cur = tree.parent(cur).expect("unmarked vertices cannot be the root");
                steps += 1;
                prop_assert!(steps <= target + 1, "vertex {v} has no nearby marked ancestor");
            }
        }
    }

    /// Rounded cost-effectiveness always brackets the exact value within a
    /// factor of two, and the ordering is consistent with the exact values
    /// whenever they differ by at least a factor of two.
    #[test]
    fn rounding_brackets_exact_cost_effectiveness(c1 in 1usize..500, w1 in 1u64..500, c2 in 1usize..500, w2 in 1u64..500) {
        let r1 = Rounded::of(c1, w1).unwrap();
        let r2 = Rounded::of(c2, w2).unwrap();
        let e1 = kecss::cover::exact(c1, w1);
        let e2 = kecss::cover::exact(c2, w2);
        prop_assert!(r1.as_f64() >= e1 - 1e-9 && r1.as_f64() < 2.0 * e1 + 1e-9);
        if e1 >= 2.0 * e2 {
            prop_assert!(r1 >= r2);
        }
    }

    /// EdgeSet algebra: union/intersection/difference sizes satisfy
    /// inclusion–exclusion and subset relations.
    #[test]
    fn edge_set_algebra(universe in 1usize..200, xs in prop::collection::vec(0usize..200, 0..50), ys in prop::collection::vec(0usize..200, 0..50)) {
        let a = EdgeSet::from_ids(universe, xs.into_iter().filter(|&x| x < universe).map(EdgeId));
        let b = EdgeSet::from_ids(universe, ys.into_iter().filter(|&y| y < universe).map(EdgeId));
        let union = a.union(&b);
        let inter = a.intersection(&b);
        let diff = a.difference(&b);
        prop_assert_eq!(union.len() + inter.len(), a.len() + b.len());
        prop_assert_eq!(diff.len() + inter.len(), a.len());
        prop_assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&union) && b.is_subset_of(&union));
    }

    /// The MST is never heavier than any spanning connected edge subset we can
    /// derive from a BFS tree.
    #[test]
    fn mst_weight_is_minimal_among_spanning_trees(n in 4usize..40, extra in 0usize..40, seed in 0u64..1_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_weighted_k_edge_connected(n, 2, extra, 60, &mut rng);
        let mst_edges = mst::kruskal(&graph);
        let bfs_tree = graphs::bfs::bfs(&graph, 0).tree_edges(&graph);
        prop_assert!(graph.weight_of(&mst_edges) <= graph.weight_of(&bfs_tree));
        prop_assert_eq!(mst_edges.len(), graph.n() - 1);
    }

    /// The word-packed EdgeSet agrees with a naive `Vec<bool>` model on every
    /// operation: membership, counting, iteration order, the word-wise set
    /// algebra, and subset queries. Universes straddle word boundaries on
    /// purpose (the 60..70 band hits 63/64/65).
    #[test]
    fn edge_set_matches_naive_bool_model(
        universe_idx in 0usize..11,
        xs in prop::collection::vec(0usize..200, 0..80),
        ys in prop::collection::vec(0usize..200, 0..80),
        removals in prop::collection::vec(0usize..200, 0..20),
    ) {
        // Universes straddling u64 word boundaries on purpose.
        let universe = [1usize, 5, 60, 63, 64, 65, 66, 127, 128, 129, 200][universe_idx];
        // The model: plain Vec<bool> semantics, as the seed implementation had.
        let mut model_a = vec![false; universe];
        let mut set_a = EdgeSet::new(universe);
        for x in xs.into_iter().filter(|&x| x < universe) {
            let fresh = !model_a[x];
            model_a[x] = true;
            prop_assert_eq!(set_a.insert(EdgeId(x)), fresh);
        }
        for r in removals.into_iter().filter(|&r| r < universe) {
            let present = model_a[r];
            model_a[r] = false;
            prop_assert_eq!(set_a.remove(EdgeId(r)), present);
        }
        let mut model_b = vec![false; universe];
        let mut set_b = EdgeSet::new(universe);
        for y in ys.into_iter().filter(|&y| y < universe) {
            model_b[y] = true;
            set_b.insert(EdgeId(y));
        }

        let model_ids = |model: &[bool]| -> Vec<EdgeId> {
            model.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| EdgeId(i)).collect()
        };
        // len (popcount) / contains / iteration order.
        prop_assert_eq!(set_a.len(), model_a.iter().filter(|&&b| b).count());
        prop_assert_eq!(set_a.iter().collect::<Vec<_>>(), model_ids(&model_a));
        for (i, &bit) in model_a.iter().enumerate() {
            prop_assert_eq!(set_a.contains(EdgeId(i)), bit);
        }
        // Word-wise algebra vs element-wise model.
        let zip = |f: fn(bool, bool) -> bool| -> Vec<EdgeId> {
            (0..universe).filter(|&i| f(model_a[i], model_b[i])).map(EdgeId).collect()
        };
        prop_assert_eq!(set_a.union(&set_b).to_vec(), zip(|a, b| a | b));
        prop_assert_eq!(set_a.intersection(&set_b).to_vec(), zip(|a, b| a & b));
        prop_assert_eq!(set_a.difference(&set_b).to_vec(), zip(|a, b| a & !b));
        let model_subset = (0..universe).all(|i| !model_a[i] || model_b[i]);
        prop_assert_eq!(set_a.is_subset_of(&set_b), model_subset);
        // In-place variants agree with the by-value ones.
        let mut inplace = set_a.clone();
        inplace.union_with(&set_b);
        prop_assert_eq!(inplace, set_a.union(&set_b));
        let mut inplace = set_a.clone();
        inplace.intersect_with(&set_b);
        prop_assert_eq!(inplace, set_a.intersection(&set_b));
        let mut inplace = set_a.clone();
        inplace.difference_with(&set_b);
        prop_assert_eq!(inplace, set_a.difference(&set_b));
    }

    /// The word-wise exact removal test agrees with the naive per-edge scan
    /// it replaced, for arbitrary masks and removal lists (including ids
    /// outside the mask and duplicates).
    #[test]
    fn removal_test_matches_naive_scan(
        n in 4usize..32,
        extra in 0usize..40,
        seed in 0u64..1_000,
        mask_bits in prop::collection::vec(0usize..2, 0..120),
        removed_raw in prop::collection::vec(0usize..120, 0..6),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_k_edge_connected(n, 2, extra, &mut rng);
        let mut h = graph.full_edge_set();
        for (i, drop) in mask_bits.iter().enumerate().take(graph.m()) {
            if *drop == 1 {
                h.remove(EdgeId(i));
            }
        }
        let removed: Vec<EdgeId> = removed_raw
            .into_iter()
            .filter(|&r| r < graph.m())
            .map(EdgeId)
            .collect();
        // Naive model: per-edge membership scan over the mask.
        let mut dsu = graphs::dsu::DisjointSets::new(graph.n());
        for id in h.iter() {
            if removed.contains(&id) {
                continue;
            }
            let e = graph.edge(id);
            dsu.union(e.u, e.v);
        }
        prop_assert_eq!(
            connectivity::is_connected_after_removal(&graph, &h, &removed),
            dsu.component_count() == 1
        );
    }

    /// Random instances round-trip bit-exactly through both on-disk formats
    /// — including `EdgeId` assignment, which is what keeps solver output
    /// byte-identical across formats — and the two encodings decode to equal
    /// graphs.
    #[test]
    fn instance_formats_round_trip_and_agree(
        n in 3usize..48,
        k in 2usize..4,
        extra in 0usize..60,
        max_w in 1u64..200,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = if k % 2 == 1 && n % 2 == 1 { n + 1 } else { n };
        let k = k.min(n - 1);
        let graph = generators::random_weighted_k_edge_connected(n, k, extra, max_w, &mut rng);

        let mut text = Vec::new();
        graphs::io::write_text(&mut text, &graph).unwrap();
        let from_text = graphs::io::read_text(std::str::from_utf8(&text).unwrap()).unwrap();
        prop_assert_eq!(&from_text, &graph);

        let mut binary = Vec::new();
        graphs::io::write_binary(&mut binary, &graph).unwrap();
        prop_assert_eq!(binary.len(), 20 + 16 * graph.m());
        let from_binary = graphs::io::read_binary(&binary).unwrap();
        prop_assert_eq!(&from_binary, &graph);

        prop_assert_eq!(&from_text, &from_binary);
        // Edge ids line up pairwise (equality already implies it; spell the
        // determinism contract out anyway).
        for (a, b) in from_text.edges().zip(from_binary.edges()) {
            prop_assert_eq!(a, b);
        }
        // Re-encoding the decoded graph reproduces the bytes (canonical
        // encodings in both directions).
        let mut text2 = Vec::new();
        graphs::io::write_text(&mut text2, &from_text).unwrap();
        prop_assert_eq!(&text2, &text);
        let mut binary2 = Vec::new();
        graphs::io::write_binary(&mut binary2, &from_binary).unwrap();
        prop_assert_eq!(&binary2, &binary);
    }

    /// The streaming two-pass readers produce graphs byte-identical to the
    /// in-memory readers — graph equality AND pairwise `EdgeId` assignment —
    /// for both formats, at reader capacities that force records and lines
    /// to straddle every chunk boundary.
    #[test]
    fn streaming_readers_match_in_memory_readers(
        n in 3usize..40,
        extra in 0usize..50,
        max_w in 1u64..150,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_weighted_k_edge_connected(n, 2, extra, max_w, &mut rng);

        let mut text = Vec::new();
        graphs::io::write_text(&mut text, &graph).unwrap();
        let mut binary = Vec::new();
        graphs::io::write_binary(&mut binary, &graph).unwrap();
        let from_text = graphs::io::read_text(std::str::from_utf8(&text).unwrap()).unwrap();
        let from_binary = graphs::io::read_binary(&binary).unwrap();
        from_text.freeze();

        for capacity in [1usize, 7, 4096] {
            let streamed_bin = Graph::from_edge_stream(|| {
                BinaryCursor::with_chunk_capacity(
                    Throttled { inner: binary.as_slice(), max: capacity },
                    capacity,
                )
            }).unwrap();
            prop_assert_eq!(&streamed_bin, &graph, "binary capacity {}", capacity);
            prop_assert_eq!(&streamed_bin, &from_binary);
            for (a, b) in streamed_bin.edges().zip(from_binary.edges()) {
                prop_assert_eq!(a, b);
            }

            let streamed_text = Graph::from_edge_stream(|| {
                TextCursor::with_chunk_capacity(
                    Throttled { inner: text.as_slice(), max: capacity },
                    capacity,
                )
            }).unwrap();
            prop_assert_eq!(&streamed_text, &graph, "text capacity {}", capacity);
            for (a, b) in streamed_text.edges().zip(from_text.edges()) {
                prop_assert_eq!(a, b);
            }

            // The streamed build arrives frozen with the same CSR the
            // legacy add_edge + freeze path builds (adjacency order is
            // observable through DFS tie-breaks, so this must be exact).
            prop_assert!(streamed_bin.is_frozen());
            for v in 0..graph.n() {
                prop_assert_eq!(streamed_bin.neighbors(v), from_text.neighbors(v));
            }
        }
    }

    /// Solutions round-trip between the text and `KGS1` binary encodings:
    /// both decode to the same `EdgeSet`, and re-encoding the decoded set is
    /// byte-identical (canonical encodings both ways).
    #[test]
    fn solution_formats_round_trip_and_agree(
        n in 4usize..40,
        extra in 0usize..50,
        max_w in 1u64..100,
        seed in 0u64..1_000,
        keep_mod in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = generators::random_weighted_k_edge_connected(n, 2, extra, max_w, &mut rng);
        let mut set = graph.empty_edge_set();
        for id in graph.edge_ids().filter(|id| id.index() % keep_mod != keep_mod - 1) {
            set.insert(id);
        }

        let mut text = Vec::new();
        graphs::io::write_solution_text(&mut text, &graph, &set).unwrap();
        let mut binary = Vec::new();
        graphs::io::write_solution_binary(&mut binary, &set).unwrap();
        prop_assert_eq!(binary.len(), 12 + 8 * set.len());

        let from_text = graphs::io::read_solution_text(text.as_slice(), &graph).unwrap();
        let from_binary = graphs::io::read_solution_binary(binary.as_slice(), &graph).unwrap();
        prop_assert_eq!(&from_text, &set);
        prop_assert_eq!(&from_binary, &set);

        // Canonical re-encoding: decoded-from-text re-encodes to the same
        // KGS1 bytes, and decoded-from-binary to the same text bytes.
        let mut binary2 = Vec::new();
        graphs::io::write_solution_binary(&mut binary2, &from_text).unwrap();
        prop_assert_eq!(&binary2, &binary);
        let mut text2 = Vec::new();
        graphs::io::write_solution_text(&mut text2, &graph, &from_binary).unwrap();
        prop_assert_eq!(&text2, &text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `bfs::diameter` (256 sources per pass, 64 per word) equals the
    /// largest eccentricity over one plain BFS per vertex, and is `None`
    /// whenever some BFS does not span (and on the empty graph). Sizes sit
    /// on both sides of the word and pass boundaries; the graphs have
    /// parallel edges and, in two cases out of three, isolated vertices at
    /// random labels.
    #[test]
    fn diameter_matches_per_vertex_bfs(
        size in 0usize..14,
        isolated in 0usize..3,
        reach in 1usize..6,
        extra in 0usize..60,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n: usize = [0, 1, 63, 64, 65, 129, 255, 256, 257, 513]
            .get(size)
            .copied()
            .unwrap_or_else(|| rng.gen_range(2..600));
        // A random tree over the first `core` labels (a parent at most
        // `reach` back, so small reaches give long diameters), extra edges
        // that may repeat, and the rest isolated; then shuffle the labels.
        let core = n - isolated.min(n.saturating_sub(1));
        let mut label: Vec<usize> = (0..n).collect();
        label.shuffle(&mut rng);
        let mut graph = Graph::new(n);
        for v in 1..core {
            let parent = v - 1 - rng.gen_range(0..reach.min(v));
            graph.add_edge(label[parent], label[v], 1);
        }
        if extra > 0 && graph.m() > 0 {
            let e = *graph.edge(EdgeId(0));
            graph.add_edge(e.u, e.v, 2);
        }
        for _ in 0..extra {
            if core >= 2 {
                let u = rng.gen_range(0..core);
                let v = (u + rng.gen_range(1..core)) % core;
                graph.add_edge(label[u], label[v], 1);
            }
        }

        let trees: Vec<_> = (0..n).map(|v| graphs::bfs::bfs(&graph, v)).collect();
        let expected = if n > 0 && trees.iter().all(|t| t.is_spanning()) {
            trees.iter().map(|t| t.eccentricity()).max()
        } else {
            None
        };
        prop_assert_eq!(graphs::bfs::diameter(&graph), expected, "n = {n}, core = {core}");
    }
}

/// A reader handing out at most `max` bytes per call: forces streamed
/// records and lines to straddle refills in the chunk-capacity proptests.
struct Throttled<R> {
    inner: R,
    max: usize,
}

impl<R: std::io::Read> std::io::Read for Throttled<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cap = self.max.min(buf.len()).max(1);
        self.inner.read(&mut buf[..cap])
    }
}
