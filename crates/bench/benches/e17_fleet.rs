//! E17 — fleet throughput: jobs/s through a real coordinator + worker fleet
//! (sockets, heartbeats, dispatch — everything but process isolation) as the
//! worker count grows.
//!
//! Two workloads, pumped as 16-job batches through one control connection.
//! The `ring:20 2ecss` batch is dispatch *overhead*: the solve is ~40 µs, so
//! its wall clock is the fleet plumbing itself (deterministic assignment, one
//! `SUBMIT` frame on the worker's link, the pushed result, its write-back)
//! and more workers cannot help. The `hypercube:128 k=5` batch is compute-bound
//! (~65 ms of solver work per job, 1 scheduler thread per worker), so its
//! jobs/s should scale with the worker count until dispatch — not the
//! solver — is the bottleneck; the series sweeps 1, 2 and 4 workers. On a
//! single-core host the compute-bound batch pins at serial solver
//! throughput whatever the worker count — there the interesting reading is
//! the *difference* between wall clock and `16 × solve`, the fleet's
//! overhead under load. The measured table goes to EXPERIMENTS.md (E17);
//! Criterion then times the 1- and 2-worker points plus the overhead row.
//!
//! A second table times the `ring:20` batch on one long-lived fleet after N
//! jobs were already served on it. A coordinator whose per-job work grows
//! with the jobs it has served reads rising rows here; one whose dispatch
//! walks only open jobs reads flat ones. The criterion overhead row reuses
//! one fixture across all its iterations, so it is exposed to the same
//! growth.

use criterion::{criterion_group, criterion_main, Criterion};
use kecss_bench::workloads::FleetFixture;
use std::time::{Duration, Instant};

const BATCH: usize = 16;
const OVERHEAD_SPEC: &str = "ring:20 2 2ecss auto";
const COMPUTE_SPEC: &str = "hypercube:128 5 kecss auto";
/// Jobs served on the fleet before each row of the growth series.
const SERVED: [usize; 3] = [0, 4_096, 16_384];
/// Timed batches per row of the growth series (the median is reported).
const ROUNDS: usize = 41;

fn print_series() {
    let mut table = kecss_bench::table::Table::new(["workers", "jobs", "wall ms", "jobs/s"]);
    for workers in [1usize, 2, 4] {
        let mut fixture = FleetFixture::new(workers, 32);
        // One warm-up batch, then the measured one.
        fixture.batch(BATCH, COMPUTE_SPEC);
        let started = Instant::now();
        fixture.batch(BATCH, COMPUTE_SPEC);
        let wall = started.elapsed();
        table.push([
            workers.to_string(),
            BATCH.to_string(),
            format!("{}", wall.as_millis()),
            format!("{:.0}", BATCH as f64 / wall.as_secs_f64()),
        ]);
    }
    table.print("E17: fleet throughput, 16-job hypercube:128 k=5 batches vs worker count");
}

fn print_growth_series() {
    let mut table = kecss_bench::table::Table::new(["served", "batch ms", "us/job"]);
    let mut fixture = FleetFixture::new(1, 32);
    let mut served = 0;
    for target in SERVED {
        while served < target {
            fixture.batch(BATCH, OVERHEAD_SPEC);
            served += BATCH;
        }
        let mut walls: Vec<Duration> = (0..ROUNDS)
            .map(|_| {
                let started = Instant::now();
                fixture.batch(BATCH, OVERHEAD_SPEC);
                started.elapsed()
            })
            .collect();
        served += ROUNDS * BATCH;
        walls.sort();
        let median = walls[ROUNDS / 2];
        table.push([
            target.to_string(),
            format!("{:.2}", median.as_secs_f64() * 1e3),
            format!("{:.0}", median.as_secs_f64() * 1e6 / BATCH as f64),
        ]);
    }
    table.print("E17: 16-job ring:20 batch on one fleet vs jobs already served (1 worker)");
}

fn bench(c: &mut Criterion) {
    print_series();
    print_growth_series();
    let mut ring = FleetFixture::new(1, 32);
    c.bench_function("e17/batch16_ring20_1worker", |b| {
        b.iter(|| ring.batch(BATCH, OVERHEAD_SPEC))
    });
    drop(ring);
    let mut solo = FleetFixture::new(1, 32);
    c.bench_function("e17/batch16_q7k5_1worker", |b| {
        b.iter(|| solo.batch(BATCH, COMPUTE_SPEC))
    });
    drop(solo);
    let mut duo = FleetFixture::new(2, 32);
    c.bench_function("e17/batch16_q7k5_2workers", |b| {
        b.iter(|| duo.batch(BATCH, COMPUTE_SPEC))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
