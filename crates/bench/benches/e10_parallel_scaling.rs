//! E10 — parallel scaling of the `kecss_runtime` executors (DESIGN.md §8).
//!
//! Two tables, one per parallelism surface:
//!
//! * **cut verification** — enumeration of the 2-cuts of a ≥10k-vertex
//!   chorded cycle through [`kecss::cuts::cuts_of_size_with`];
//! * **sweep throughput** — a grid of weighted k-ECSS instances solved
//!   concurrently through [`Executor::map`].
//!
//! Every configuration first asserts bit-identical results against the
//! sequential baseline (the scaling table must not be comparing different
//! computations), then reports wall time and speedup. The printed speedups
//! are *measured on the current machine*: on a single hardware thread the
//! columns stay near 1.0x and the table documents the executors' overhead
//! instead.

use graphs::generators;
use kecss_bench::table::Table;
use kecss_bench::workloads;
use kecss_runtime::Executor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Wall time of the best of `reps` runs (the minimum is the usual
/// low-variance estimator for scaling tables).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best: Option<(Duration, R)> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, result));
        }
    }
    best.expect("reps >= 1")
}

fn cuts_table() {
    // A 10,400-vertex chorded cycle: 36,400 genuine 2-cuts (see
    // `workloads::chorded_cycle`), each candidate verified by an independent
    // O(n + m) removal test.
    let g = workloads::chorded_cycle(10_400, 8);
    let h = g.full_edge_set();

    let mut table = Table::new(["threads", "wall ms", "speedup", "cuts"]);
    let (base, reference) = best_of(2, || kecss::cuts::cuts_of_size(&g, &h, 2).unwrap());
    for threads in THREADS {
        let exec = Executor::from_threads(threads);
        let (elapsed, cuts) = best_of(2, || {
            kecss::cuts::cuts_of_size_with(&g, &h, 2, &exec).unwrap()
        });
        assert_eq!(cuts, reference, "t = {threads}");
        table.push([
            threads.to_string(),
            elapsed.as_millis().to_string(),
            format!("{:.2}x", base.as_secs_f64() / elapsed.as_secs_f64()),
            cuts.len().to_string(),
        ]);
    }
    table.print(&format!(
        "E10b: parallel candidate-cut verification, {}-vertex chorded cycle",
        g.n()
    ));
}

fn sweep_table() {
    // 8 independent weighted k-ECSS cells (one per seed).
    let seeds: Vec<u64> = (0..8).collect();
    let solve_cell = |&seed: &u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_weighted_k_edge_connected(96, 2, 192, 40, &mut rng);
        let sol = kecss::kecss::solve(&g, 2, &mut rng).expect("cell solves");
        (sol.weight, sol.ledger.total())
    };

    let mut table = Table::new(["threads", "wall ms", "speedup", "cells", "total rounds"]);
    let (base, reference) = best_of(2, || Executor::Sequential.map(&seeds, solve_cell));
    for threads in THREADS {
        let exec = Executor::from_threads(threads);
        let (elapsed, rows) = best_of(2, || exec.map(&seeds, solve_cell));
        assert_eq!(rows, reference, "t = {threads}");
        let total_rounds: u64 = rows.iter().map(|&(_, rounds)| rounds).sum();
        table.push([
            threads.to_string(),
            elapsed.as_millis().to_string(),
            format!("{:.2}x", base.as_secs_f64() / elapsed.as_secs_f64()),
            rows.len().to_string(),
            total_rounds.to_string(),
        ]);
    }
    table.print("E10c: concurrent workload sweep, 8 weighted k-ECSS cells (n = 96)");
}

fn main() {
    cuts_table();
    sweep_table();
}
