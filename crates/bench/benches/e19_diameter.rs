//! E19 — the exact hop diameter kernel (`graphs::bfs::diameter`) on the
//! shapes the service benchmark runs — the `ring:20` jobs of `small_jobs` and
//! the 2048-vertex random and torus instances of `big_instances` — and on
//! two graphs whose diameter is far above the 256 sources of one pass
//! (EXPERIMENTS.md E19).
//!
//! `diameter` caches its value on the graph, so every sample times a fresh
//! copy of the instance (adjacency already frozen) and reports the kernel's
//! own cost, not a cache hit. Each row is the median over 15 batches of the
//! per-call time.
//!
//! ```text
//! cargo bench -p kecss_bench --bench e19_diameter
//! ```

use graphs::Graph;
use kecss_bench::table::Table;
use kecss_server::instance::{build_family, Family};
use std::time::{Duration, Instant};

/// An uncached copy of `graph` with its adjacency built.
fn fresh(graph: &Graph) -> Graph {
    let copy = Graph::from_edges(graph.n(), graph.edges().map(|(_, e)| (e.u, e.v, e.weight)));
    copy.freeze();
    copy
}

/// Median per-call time of `bfs::diameter` over 15 batches of `batch` fresh
/// copies, and the diameter.
fn time_diameter(graph: &Graph, batch: usize) -> (Duration, Option<usize>) {
    let mut d = None;
    let mut samples: Vec<Duration> = (0..15)
        .map(|_| {
            let copies: Vec<Graph> = (0..batch).map(|_| fresh(graph)).collect();
            let start = Instant::now();
            for g in &copies {
                d = std::hint::black_box(graphs::bfs::diameter(g));
            }
            start.elapsed() / batch as u32
        })
        .collect();
    samples.sort();
    (samples[samples.len() / 2], d)
}

fn main() {
    let build = |family, n, max_weight| build_family(family, n, 2, max_weight, 1).expect("valid");
    let shapes = [
        ("ring:20", build(Family::RingOfCliques, 20, 1), 2_000),
        ("random:2048:100", build(Family::Random, 2_048, 100), 1),
        ("torus:2048", build(Family::Torus, 2_048, 1), 1),
        ("ring:4096", build(Family::RingOfCliques, 4_096, 1), 1),
        ("cycle:4096", graphs::generators::cycle(4_096, 1), 1),
    ];
    let mut table = Table::new(["shape", "n", "m", "D", "per call"]);
    for (name, graph, batch) in shapes {
        let (per_call, d) = time_diameter(&graph, batch);
        let per_call_us = per_call.as_secs_f64() * 1e6;
        table.push([
            name.to_string(),
            graph.n().to_string(),
            graph.m().to_string(),
            d.map_or("-".into(), |d| d.to_string()),
            if per_call_us < 1_000.0 {
                format!("{per_call_us:.2} us")
            } else {
                format!("{:.2} ms", per_call_us / 1e3)
            },
        ]);
    }
    table.print("E19: exact hop diameter, per call (fresh graph, adjacency built)");
}
