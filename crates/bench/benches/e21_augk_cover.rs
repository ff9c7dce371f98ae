//! E21 — `job::run` on each shape of the service benchmark's `high_k`
//! workload, with the Aug_k iterations each `kecss` level runs
//! (EXPERIMENTS.md E21).
//!
//! Every job runs on this thread (`Executor::Sequential`). A row is the
//! median over three rounds of seeds 1–7, the seeds alternating within a
//! round; `iterations` is the mean over the seven seeds of each level's Aug_k
//! iterations, levels 2..=k. To keep the jobs on one CPU:
//!
//! ```text
//! taskset -c 0 cargo bench -p kecss_bench --bench e21_augk_cover
//! ```

use kecss::kecss as kecss_alg;
use kecss_bench::table::Table;
use kecss_runtime::Executor;
use kecss_server::job::{self, Algorithm, JobSpec, SOLVER_SEED_SALT};
use kecss_server::protocol::Request;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// The `high_k` shapes, as `SUBMIT` arguments without enumerator and seed.
const SHAPES: [&str; 6] = [
    "hypercube:128 5 kecss",
    "random:256:100 3 kecss",
    "random:256:100 4 kecss",
    "harary:64 6 kecss",
    "torus:256 3 3ecss",
    "ring:64:100 3 3ecss-weighted",
];
const SEEDS: std::ops::RangeInclusive<u64> = 1..=7;
const ROUNDS: usize = 3;

fn spec(shape: &str, seed: u64) -> JobSpec {
    match Request::parse(&format!("SUBMIT {shape} auto {seed}")) {
        Ok(Request::Submit(spec)) => spec,
        _ => panic!("`{shape}` is not a SUBMIT"),
    }
}

/// Mean Aug_k iterations per level over the seeds, as `l2/l3/...`; `-` for
/// the algorithms that do not run Aug_k.
fn iterations_per_level(shape: &str) -> String {
    let mut totals: Vec<u64> = Vec::new();
    for seed in SEEDS {
        let spec = spec(shape, seed);
        if spec.algorithm != Algorithm::KEcss {
            return "-".into();
        }
        let graph = spec.instance.build(spec.k, spec.seed).expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ SOLVER_SEED_SALT);
        let enumerator = spec.enumerator.build();
        let sol = kecss_alg::solve_with_exec_enumerator(
            &graph,
            spec.k,
            &mut rng,
            &Executor::Sequential,
            enumerator.as_ref(),
        )
        .expect("solvable");
        totals.resize(sol.levels.len() - 1, 0);
        for (total, level) in totals.iter_mut().zip(&sol.levels[1..]) {
            *total += level.iterations;
        }
    }
    let seeds = SEEDS.count() as f64;
    totals
        .iter()
        .map(|&t| format!("{:.0}", t as f64 / seeds))
        .collect::<Vec<_>>()
        .join("/")
}

fn main() {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); SHAPES.len()];
    for _ in 0..ROUNDS {
        for seed in SEEDS {
            for (shape, times) in SHAPES.iter().zip(&mut samples) {
                let spec = spec(shape, seed);
                let start = Instant::now();
                let payload = job::run(&spec, &Executor::Sequential).expect("job runs");
                times.push(start.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(payload);
            }
        }
    }
    let mut table = Table::new(["shape", "median ms", "min ms", "max ms", "iterations"]);
    for (shape, mut times) in SHAPES.into_iter().zip(samples) {
        times.sort_by(f64::total_cmp);
        table.push([
            shape.to_string(),
            format!("{:.1}", times[times.len() / 2]),
            format!("{:.1}", times[0]),
            format!("{:.1}", times[times.len() - 1]),
            iterations_per_level(shape),
        ]);
    }
    table.print("E21: job::run per high_k shape (seeds 1-7, 3 rounds, one thread)");
}
