//! E7 — Figure 2 / Section 5.1: cycle-space sampling detects exactly the cut
//! pairs.
//!
//! Two measurements:
//!
//! * on a 2-edge-connected graph with many real cut pairs, wide labels find
//!   exactly the true cut pairs (no false positives, never a false negative);
//! * sweeping the label width `b` on a 3-edge-connected graph (which has no
//!   cut pairs at all), the number of spurious label collisions decays like
//!   `2^{-b}`, matching Corollary 5.3.

use criterion::{criterion_group, criterion_main, Criterion};
use graphs::{connectivity, EdgeId, RootedTree};
use kecss::cycle_space::Circulation;
use kecss_bench::table::Table;
use kecss_bench::workloads::{self, Topology};
use std::time::Duration;

fn spanning_tree(graph: &graphs::Graph) -> RootedTree {
    let bfs = graphs::bfs::bfs(graph, 0);
    RootedTree::new(graph, &bfs.tree_edges(graph), 0)
}

fn print_exactness() {
    let mut table = Table::new([
        "n",
        "m",
        "true cut pairs",
        "label cut pairs (b=64)",
        "false pos",
        "false neg",
    ]);
    for n in [16usize, 32, 64] {
        // A sparse 2-edge-connected graph (cycle-like Harary base plus a few
        // chords) has many genuine cut pairs to detect.
        let mut gen_rng = workloads::rng(0xE7 + n as u64);
        let graph = graphs::generators::random_k_edge_connected(n, 2, 3, &mut gen_rng);
        let h = graph.full_edge_set();
        let tree = spanning_tree(&graph);
        let mut rng = workloads::rng(0xE7_10 + n as u64);
        let circulation = Circulation::sample(&graph, &h, &tree, 64, &mut rng);
        let from_labels: std::collections::HashSet<(EdgeId, EdgeId)> =
            circulation.cut_pairs().into_iter().collect();
        let ids: Vec<EdgeId> = h.iter().collect();
        let mut truth = std::collections::HashSet::new();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if !connectivity::is_connected_after_removal(&graph, &h, &[ids[i], ids[j]]) {
                    truth.insert((ids[i], ids[j]));
                }
            }
        }
        let false_pos = from_labels.difference(&truth).count();
        let false_neg = truth.difference(&from_labels).count();
        table.push([
            graph.n().to_string(),
            graph.m().to_string(),
            truth.len().to_string(),
            from_labels.len().to_string(),
            false_pos.to_string(),
            false_neg.to_string(),
        ]);
    }
    table.print("E7a: cut-pair detection with 64-bit labels (Property 5.1)");
}

fn print_error_decay() {
    let graph = workloads::unweighted_instance(Topology::Random, 48, 3, 0xE7_20);
    let h = graph.full_edge_set();
    let tree = spanning_tree(&graph);
    let pairs_total = h.len() * (h.len() - 1) / 2;
    let mut table = Table::new([
        "label bits b",
        "spurious pairs",
        "pair collision rate",
        "2^-b",
    ]);
    for bits in [1u32, 2, 4, 6, 8, 12, 16] {
        // Average over a few samples to smooth the small-count regime.
        let samples = 5;
        let mut spurious_total = 0usize;
        for s in 0..samples {
            let mut rng = workloads::rng(0xE7_30 + bits as u64 * 10 + s);
            let circulation = Circulation::sample(&graph, &h, &tree, bits, &mut rng);
            spurious_total += circulation.cut_pairs().len();
        }
        let spurious = spurious_total as f64 / samples as f64;
        table.push([
            bits.to_string(),
            format!("{spurious:.1}"),
            format!("{:.5}", spurious / pairs_total as f64),
            format!("{:.5}", 0.5f64.powi(bits as i32)),
        ]);
    }
    table.print(
        "E7b: spurious collisions vs label width on a 3-edge-connected graph (Corollary 5.3)",
    );
}

fn bench(c: &mut Criterion) {
    print_exactness();
    print_error_decay();
    let graph = workloads::unweighted_instance(Topology::Random, 256, 2, 0xE7);
    let h = graph.full_edge_set();
    let tree = spanning_tree(&graph);
    c.bench_function("e7/circulation_sampling_n256", |b| {
        b.iter(|| {
            let mut rng = workloads::rng(7);
            Circulation::sample(&graph, &h, &tree, 64, &mut rng)
                .label_classes()
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
