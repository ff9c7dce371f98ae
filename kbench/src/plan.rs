//! Workloads: the job lists and instance files generated from the seed, and
//! the reference payloads every served payload is compared against.
//!
//! Everything here runs before the set-up clock starts. The servers receive
//! only the `SUBMIT` requests built from these specs and, for
//! `big_instances`, the `KGB1` files written here.

use kecss::lower_bounds;
use kecss_runtime::Executor;
use kecss_server::instance::{build_family, Family};
use kecss_server::job::{self, JobSpec};
use kecss_server::protocol::Request;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SmallJobs,
    BigInstances,
    HighK,
    FleetSmall,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallJobs,
        Workload::BigInstances,
        Workload::HighK,
        Workload::FleetSmall,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallJobs => "small_jobs",
            Workload::BigInstances => "big_instances",
            Workload::HighK => "high_k",
            Workload::FleetSmall => "fleet_small",
        }
    }
}

/// A workload's generated inputs.
pub struct Plan {
    pub workload: Workload,
    /// The job list, submitted in order and cycled when a run outlasts it.
    pub specs: Vec<JobSpec>,
    /// Job shapes per cycle: spec `i` has shape `i % shapes`. Throughput of
    /// a multi-shape workload is counted over whole cycles only.
    pub shapes: usize,
    /// Coordinator plus two workers, text grammar, a pipelined window;
    /// otherwise one standalone server and one wait-flagged `KGW1` link.
    pub fleet: bool,
    /// Jobs kept in flight by the client.
    pub window: usize,
    /// Where the instance files were written, removed after the run.
    pub files: Option<PathBuf>,
}

/// SplitMix64: job seeds and file seeds from the workload seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn spec(line: &str) -> JobSpec {
    match Request::parse(&format!("SUBMIT {line}")) {
        Ok(Request::Submit(spec)) => spec,
        other => panic!("benchmark spec '{line}' does not parse: {other:?}"),
    }
}

/// Builds the plan for `workload` from `seed`, writing any instance files
/// under `work_dir` (a path relative to the checkout root, so payloads that
/// echo it are the same in every checkout).
pub fn build(workload: Workload, seed: u64, tiny: bool, work_dir: &Path) -> Result<Plan, String> {
    let mut state = seed ^ (workload as u64).wrapping_mul(0x0123_4567_89ab_cdef);
    let mut next = || splitmix(&mut state) >> 1;
    let plan = match workload {
        Workload::SmallJobs | Workload::FleetSmall => {
            let fleet = workload == Workload::FleetSmall;
            let jobs = match (tiny, fleet) {
                (true, _) => 64,
                (false, false) => 4096,
                (false, true) => 2048,
            };
            Plan {
                workload,
                specs: (0..jobs)
                    .map(|_| spec(&format!("ring:20 2 2ecss auto {}", next())))
                    .collect(),
                shapes: 1,
                fleet,
                window: if fleet { 8 } else { 1 },
                files: None,
            }
        }
        Workload::BigInstances => {
            let (random_n, torus_n, ring_n) = if tiny {
                (256, 256, 8_000)
            } else {
                (2_048, 2_048, 100_000)
            };
            let dir = work_dir.join(format!("big_instances-{seed}"));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let files = [
                ("random", Family::Random, random_n, 100),
                ("torus", Family::Torus, torus_n, 1),
                ("ring", Family::RingOfCliques, ring_n, 1),
            ];
            let mut paths = Vec::new();
            for (name, family, n, max_weight) in files {
                let graph = build_family(family, n, 2, max_weight, next())?;
                let path = dir.join(format!("{name}.graphb"));
                graphs::io::write_graph(&path, &graph)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                paths.push(path.display().to_string());
            }
            let specs = vec![
                spec(&format!("file:{} 2 2ecss auto {}", paths[0], next())),
                spec(&format!("file:{} 2 2ecss auto {}", paths[1], next())),
                spec(&format!("file:{} 2 thurimella auto {}", paths[2], next())),
                spec(&format!("file:{} 2 mst auto {}", paths[2], next())),
            ];
            Plan {
                workload,
                specs,
                shapes: 4,
                fleet: false,
                window: 1,
                files: Some(dir),
            }
        }
        Workload::HighK => {
            let shapes: [&str; 6] = if tiny {
                [
                    "hypercube:16 4 kecss",
                    "random:32:100 3 kecss",
                    "random:48:100 4 kecss",
                    "harary:16 5 kecss",
                    "torus:36 3 3ecss",
                    "ring:24:100 3 3ecss-weighted",
                ]
            } else {
                [
                    "hypercube:128 5 kecss",
                    "random:256:100 3 kecss",
                    "random:256:100 4 kecss",
                    "harary:64 6 kecss",
                    "torus:256 3 3ecss",
                    "ring:64:100 3 3ecss-weighted",
                ]
            };
            let rounds = if tiny { 1 } else { 12 };
            let mut specs = Vec::new();
            for _ in 0..rounds {
                for shape in shapes {
                    specs.push(spec(&format!("{shape} auto {}", next())));
                }
            }
            Plan {
                workload,
                specs,
                shapes: shapes.len(),
                fleet: false,
                window: 1,
                files: None,
            }
        }
    };
    Ok(plan)
}

/// The expected payload of one job, computed in this process by
/// [`job::run`] (payloads are pure functions of the spec).
pub struct Reference {
    pub payload: Vec<u8>,
    /// The payload echoes its spec and says `verified k=… yes`.
    pub verified: bool,
    /// Payload weight over `k_ecss_lower_bound` at the certified k.
    pub approx_ratio: f64,
    /// Charged CONGEST rounds (`rounds solver=`), when the algorithm charges.
    pub rounds: Option<u64>,
}

fn field<'a>(text: &'a str, line_prefix: &str, key: &str) -> Option<&'a str> {
    let line = text.lines().find(|l| l.starts_with(line_prefix))?;
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
}

fn reference(spec: &JobSpec) -> Result<Reference, String> {
    let payload = job::run(spec, &Executor::Sequential)?;
    let text = String::from_utf8_lossy(&payload);
    let echo = format!("spec {}\n", spec.canonical());
    let certified: Option<usize> = field(&text, "verified ", "k").and_then(|k| k.parse().ok());
    let verified = text.contains(&echo)
        && text
            .lines()
            .any(|l| l.starts_with("verified k=") && l.ends_with(" yes"));
    let weight: f64 = field(&text, "solution ", "weight")
        .and_then(|w| w.parse().ok())
        .ok_or("payload has no solution weight")?;
    let graph = spec.instance.build(spec.k, spec.seed)?;
    let bound = lower_bounds::k_ecss_lower_bound(&graph, certified.unwrap_or(spec.k)) as f64;
    Ok(Reference {
        verified,
        approx_ratio: if bound > 0.0 { weight / bound } else { 0.0 },
        rounds: field(&text, "rounds ", "solver").and_then(|r| r.parse().ok()),
        payload,
    })
}

/// Reference payloads for every spec, computed on up to two threads.
pub fn references(specs: &[JobSpec]) -> Result<Vec<Reference>, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    let mut slots: Vec<Option<Result<Reference, String>>> =
        (0..specs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..specs.len())
                        .step_by(threads)
                        .map(|i| (i, reference(&specs[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("reference thread panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every spec has a reference"))
        .collect()
}
