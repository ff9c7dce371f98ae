//! E12 — service throughput: submit→result latency and jobs/sec through the
//! in-process `kecss_server` scheduler (no socket), at queue depths
//! {1, 8, 64}.
//!
//! Two workloads isolate the two costs:
//!
//! * **trivial jobs** (`submit_with(|| Ok(vec![]))`) measure the scheduler's
//!   own overhead — table insert and queue push, a worker's condvar wake
//!   and claim, the completion wake — i.e. the per-request floor the
//!   service adds on top of solving;
//! * **solver jobs** (`ring:20 2ecss`, the service's real job runner) measure
//!   end-to-end submit→result latency for a small but genuine request.
//!
//! The queue depth is the backpressure bound (max jobs in flight), so at
//! depth d the bench keeps exactly d jobs in flight: submit d, drain, repeat.
//! The measured table goes to EXPERIMENTS.md (E12); Criterion then times one
//! representative configuration per workload.

use criterion::{criterion_group, criterion_main, Criterion};
use kecss::cuts::EnumeratorPolicy;
use kecss_server::instance::InstanceSpec;
use kecss_server::job::{Algorithm, JobSpec};
use kecss_server::scheduler::{Outcome, Scheduler};
use std::time::{Duration, Instant};

/// The queue depths the series sweeps.
const DEPTHS: [usize; 3] = [1, 8, 64];

fn ring_spec(seed: u64) -> JobSpec {
    JobSpec {
        instance: InstanceSpec::parse("ring:20").unwrap(),
        k: 2,
        algorithm: Algorithm::TwoEcss,
        enumerator: EnumeratorPolicy::Auto,
        seed,
    }
}

/// Submits `jobs` jobs (keeping at most `depth` in flight, as backpressure
/// dictates) and waits for all of them; returns the wall time and the mean
/// submit→result latency.
fn pump(scheduler: &Scheduler, depth: usize, jobs: usize, trivial: bool) -> (Duration, Duration) {
    let started = Instant::now();
    let mut latency_total = Duration::ZERO;
    let mut submitted = 0usize;
    let mut batch: Vec<(u64, Instant)> = Vec::with_capacity(depth);
    while submitted < jobs {
        while batch.len() < depth && submitted < jobs {
            let at = Instant::now();
            let id = if trivial {
                scheduler
                    .submit_with(Box::new(|| Ok(Vec::new())))
                    .expect("batch fits the queue depth")
            } else {
                scheduler
                    .submit(ring_spec(submitted as u64))
                    .expect("batch fits the queue depth")
            };
            batch.push((id, at));
            submitted += 1;
        }
        for (id, at) in batch.drain(..) {
            match scheduler.wait(id) {
                Some(Outcome::Done(_)) => latency_total += at.elapsed(),
                other => panic!("job {id} did not complete: {other:?}"),
            }
        }
    }
    (started.elapsed(), latency_total / jobs.max(1) as u32)
}

fn print_series() {
    let mut table = kecss_bench::table::Table::new([
        "workload",
        "depth",
        "jobs",
        "wall ms",
        "jobs/s",
        "mean latency µs",
    ]);
    for &(name, trivial, jobs) in &[("trivial", true, 2000usize), ("ring:20 2ecss", false, 60)] {
        for depth in DEPTHS {
            let scheduler = Scheduler::new(2, depth);
            let (wall, latency) = pump(&scheduler, depth, jobs, trivial);
            scheduler.shutdown();
            table.push([
                name.to_string(),
                depth.to_string(),
                jobs.to_string(),
                format!("{}", wall.as_millis()),
                format!("{:.0}", jobs as f64 / wall.as_secs_f64()),
                format!("{:.1}", latency.as_secs_f64() * 1e6),
            ]);
        }
    }
    table.print("E12: in-process scheduler throughput at queue depths {1, 8, 64}");
}

fn bench(c: &mut Criterion) {
    print_series();
    // Representative configurations: scheduler overhead at depth 8, and one
    // real solver job end to end at depth 1.
    let overhead = Scheduler::new(2, 8);
    c.bench_function("e12/scheduler_trivial_depth8", |b| {
        b.iter(|| pump(&overhead, 8, 8, true))
    });
    let end_to_end = Scheduler::new(2, 1);
    c.bench_function("e12/submit_ring20_depth1", |b| {
        b.iter(|| pump(&end_to_end, 1, 1, false))
    });
    overhead.shutdown();
    end_to_end.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
