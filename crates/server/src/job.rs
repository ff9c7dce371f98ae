//! Job specifications and the pure job runner.
//!
//! A job is a self-contained solver request: an instance spec, a connectivity
//! target, an algorithm, a cut-enumerator policy and a seed. [`run`] turns a
//! spec into a **byte-deterministic result payload** — it builds the
//! instance, solves it, verifies the solution exactly and serializes
//! everything into a canonical text form. Because `run` is a pure function of
//! the spec (every random choice flows from the spec's seed, and the
//! within-job executor is fixed), the payload is identical no matter when,
//! where, or concurrently with what the job executes. That is the whole
//! determinism argument for the service: the scheduler may reorder jobs
//! freely, but it never touches the bytes (DESIGN.md §9).

use crate::instance::InstanceSpec;
use graphs::{mst, EdgeSet, Graph};
use kecss::baselines::{greedy, thurimella};
use kecss::cuts::EnumeratorPolicy;
use kecss::{kecss as kecss_alg, three_ecss, two_ecss, verification};
use kecss_runtime::Executor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::{self, Write as _};

/// The algorithms a job can run (the same set the CLI's `solve` offers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Weighted 2-ECSS (Theorem 1.1).
    TwoEcss,
    /// Weighted k-ECSS (Theorem 1.2); uses the job's `k`.
    KEcss,
    /// Unweighted 3-ECSS (Theorem 1.3).
    ThreeEcss,
    /// Weighted 3-ECSS (Section 5.4 remark).
    ThreeEcssWeighted,
    /// Sequential greedy k-ECSS baseline.
    Greedy,
    /// Thurimella sparse-certificate baseline (unweighted 2-approximation).
    Thurimella,
    /// Minimum spanning tree only (no fault tolerance; for comparison).
    MstOnly,
}

impl Algorithm {
    /// Parses an algorithm name as used by the CLI flags and the protocol.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "2ecss" => Some(Algorithm::TwoEcss),
            "kecss" => Some(Algorithm::KEcss),
            "3ecss" => Some(Algorithm::ThreeEcss),
            "3ecss-weighted" => Some(Algorithm::ThreeEcssWeighted),
            "greedy" => Some(Algorithm::Greedy),
            "thurimella" => Some(Algorithm::Thurimella),
            "mst" => Some(Algorithm::MstOnly),
            _ => None,
        }
    }

    /// The canonical algorithm name (inverse of [`Algorithm::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::TwoEcss => "2ecss",
            Algorithm::KEcss => "kecss",
            Algorithm::ThreeEcss => "3ecss",
            Algorithm::ThreeEcssWeighted => "3ecss-weighted",
            Algorithm::Greedy => "greedy",
            Algorithm::Thurimella => "thurimella",
            Algorithm::MstOnly => "mst",
        }
    }

    /// The algorithm's `KGW1` binary wire code (see [`crate::wire`]).
    pub fn wire_code(&self) -> u8 {
        match self {
            Algorithm::TwoEcss => 0,
            Algorithm::KEcss => 1,
            Algorithm::ThreeEcss => 2,
            Algorithm::ThreeEcssWeighted => 3,
            Algorithm::Greedy => 4,
            Algorithm::Thurimella => 5,
            Algorithm::MstOnly => 6,
        }
    }

    /// Decodes a `KGW1` wire code (inverse of [`Algorithm::wire_code`]).
    pub fn from_wire_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Algorithm::TwoEcss,
            1 => Algorithm::KEcss,
            2 => Algorithm::ThreeEcss,
            3 => Algorithm::ThreeEcssWeighted,
            4 => Algorithm::Greedy,
            5 => Algorithm::Thurimella,
            6 => Algorithm::MstOnly,
            _ => return None,
        })
    }

    /// The connectivity this algorithm actually certifies for a requested
    /// target `k` (the fixed-k algorithms ignore the request).
    pub fn certified_k(&self, k: usize) -> usize {
        match self {
            Algorithm::TwoEcss => 2,
            Algorithm::ThreeEcss | Algorithm::ThreeEcssWeighted => 3,
            Algorithm::MstOnly => 1,
            Algorithm::KEcss | Algorithm::Greedy | Algorithm::Thurimella => k,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-specified solver job: the unit of work the service schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The instance to solve.
    pub instance: InstanceSpec,
    /// The connectivity target.
    pub k: usize,
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// The cut-enumeration strategy for the algorithms that enumerate cuts.
    pub enumerator: EnumeratorPolicy,
    /// The seed; instance generation and the solver derive all randomness
    /// from it (with distinct salts).
    pub seed: u64,
}

impl JobSpec {
    /// The canonical single-line form: the argument part of a `SUBMIT` line.
    pub fn canonical(&self) -> String {
        format!(
            "{} {} {} {} {}",
            self.instance.canonical(),
            self.k,
            self.algorithm,
            self.enumerator.name(),
            self.seed
        )
    }
}

/// Salt applied to the job seed before it seeds the solver, so the solver's
/// RNG stream is independent of the one that generated the instance (the same
/// discipline as the CLI sweep driver).
pub const SOLVER_SEED_SALT: u64 = 0x0005_EED5_01CE;

/// Salt applied to the job seed before it seeds the RNG handed to
/// [`verification::verify_exact`]. The exact verifier samples no labels, so
/// nothing reads that RNG; the constant stays because kbench's replay passes
/// it.
pub const VERIFY_SEED_SALT: u64 = 0x0007_E21F_1E55;

/// Runs `algorithm` on `graph`; returns the edge set, the charged CONGEST
/// rounds (`None` for purely sequential baselines) and a display label.
///
/// `exec` parallelizes the cut-verification phases of the algorithms that
/// have them (`kecss`, `greedy`); results are bit-identical for every
/// executor. This dispatch is shared by the CLI `solve` command and the
/// service job runner.
///
/// # Errors
///
/// Propagates the solver's [`kecss::Error`]. Every algorithm refuses a
/// disconnected graph with [`kecss::Error::InsufficientConnectivity`].
pub fn dispatch(
    graph: &Graph,
    algorithm: Algorithm,
    k: usize,
    seed: u64,
    exec: &Executor,
    policy: EnumeratorPolicy,
) -> kecss::error::Result<(EdgeSet, Option<u64>, &'static str)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Ok(match algorithm {
        Algorithm::TwoEcss => {
            let sol = two_ecss::solve(graph, &mut rng)?;
            (
                sol.subgraph,
                Some(sol.ledger.total()),
                "weighted 2-ECSS (Theorem 1.1)",
            )
        }
        Algorithm::KEcss => {
            let enumerator = policy.build();
            let sol = kecss_alg::solve_with_exec_enumerator(
                graph,
                k,
                &mut rng,
                exec,
                enumerator.as_ref(),
            )?;
            (
                sol.subgraph,
                Some(sol.ledger.total()),
                "weighted k-ECSS (Theorem 1.2)",
            )
        }
        Algorithm::ThreeEcss => {
            let sol = three_ecss::solve(graph, &mut rng)?;
            (
                sol.subgraph,
                Some(sol.ledger.total()),
                "unweighted 3-ECSS (Theorem 1.3)",
            )
        }
        Algorithm::ThreeEcssWeighted => {
            let sol = three_ecss::solve_weighted(graph, &mut rng)?;
            (
                sol.subgraph,
                Some(sol.ledger.total()),
                "weighted 3-ECSS (Section 5.4)",
            )
        }
        Algorithm::Greedy => {
            let enumerator = policy.build();
            let sol = greedy::k_ecss_with_enumerator(graph, k, exec, enumerator.as_ref())?;
            (sol.edges, None, "sequential greedy k-ECSS")
        }
        Algorithm::Thurimella => {
            let sol = thurimella::k_ecss(graph, k)?;
            (
                sol.edges,
                Some(sol.ledger.total()),
                "Thurimella sparse certificate [36]",
            )
        }
        Algorithm::MstOnly => {
            let _solve_span = kecss_obs::span("solve");
            let tree = {
                let _span = kecss_obs::span("mst");
                mst::kruskal(graph)
            };
            // Fewer than n - 1 edges: a forest, and the graph is
            // disconnected.
            if tree.len() + 1 < graph.n() {
                return Err(kecss::Error::InsufficientConnectivity {
                    required: 1,
                    actual: 0,
                });
            }
            (tree, None, "minimum spanning tree")
        }
    })
}

/// Runs a job to completion and serializes its result payload.
///
/// The payload is a canonical UTF-8 text block: the echoed spec, instance and
/// solution statistics, the exact verification verdict, the solver's
/// round-accounting breakdown, and the selected edge list (one `edge u v w`
/// line per edge, in edge-set order). It is a **pure function of the spec**:
/// submitting the same spec twice — sequentially, concurrently, or on servers
/// with different thread counts — yields byte-identical payloads.
///
/// # Errors
///
/// Returns a human-readable message when the instance spec cannot be built or
/// the solver rejects the instance.
pub fn run(spec: &JobSpec, exec: &Executor) -> Result<Vec<u8>, String> {
    let _job_span = kecss_obs::span("job");
    let graph = {
        let _span = kecss_obs::span("ingest");
        spec.instance.build(spec.k, spec.seed)?
    };
    let (edges, rounds, label) = dispatch(
        &graph,
        spec.algorithm,
        spec.k,
        spec.seed ^ SOLVER_SEED_SALT,
        exec,
        spec.enumerator,
    )
    .map_err(|e| e.to_string())?;
    let target = spec.algorithm.certified_k(spec.k).max(1);
    let mut verify_rng = ChaCha8Rng::seed_from_u64(spec.seed ^ VERIFY_SEED_SALT);
    let verdict = {
        let _span = kecss_obs::span("verify");
        verification::verify_exact(&graph, &edges, target, &mut verify_rng)
    };

    // Export the per-job round accounting into the registry so the engine's
    // rounds are visible outside result payloads (observability only; the
    // payload text below is exactly what it was before instrumentation).
    if kecss_obs::enabled() {
        if let Some(solver_rounds) = rounds {
            kecss_obs::counter_with("congest_rounds_total", &[("phase", "solver")])
                .add(solver_rounds);
        }
        kecss_obs::counter_with("congest_rounds_total", &[("phase", "verify")])
            .add(verdict.ledger.total());
    }

    // One buffer for the whole payload: the header is a few hundred bytes,
    // written with `writeln!`, and an `edge u v w` line rarely passes 24.
    let mut out = String::with_capacity(512 + 24 * edges.len());
    out.push_str("# kecss job result v1\n");
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "spec {}", spec.canonical());
    let _ = writeln!(out, "algorithm {label}");
    let _ = writeln!(
        out,
        "instance n={} m={} weight={}",
        graph.n(),
        graph.m(),
        graph.total_weight()
    );
    let _ = writeln!(
        out,
        "solution edges={} weight={}",
        edges.len(),
        graph.weight_of(&edges)
    );
    let _ = writeln!(
        out,
        "verified k={target} {}",
        if verdict.accepted { "yes" } else { "NO" }
    );
    let _ = writeln!(
        out,
        "rounds solver={} verify={}",
        rounds.map_or_else(|| "-".to_string(), |r| r.to_string()),
        verdict.ledger.total()
    );
    for (phase, charged) in verdict.ledger.breakdown() {
        let _ = writeln!(out, "phase {phase} {charged}");
    }
    // The edge list is most of the payload: one `edge u v w` line per
    // edge, through the decimal writer every edge-list encoding shares.
    let mut out = out.into_bytes();
    for id in edges.iter() {
        let e = graph.edge(id);
        out.extend_from_slice(b"edge ");
        graphs::io::push_edge_line(&mut out, e.u, e.v, e.weight);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Family;

    fn ring_spec(seed: u64) -> JobSpec {
        JobSpec {
            instance: InstanceSpec::Family {
                family: Family::RingOfCliques,
                n: 20,
                max_weight: 1,
            },
            k: 2,
            algorithm: Algorithm::TwoEcss,
            enumerator: EnumeratorPolicy::Auto,
            seed,
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algorithm in [
            Algorithm::TwoEcss,
            Algorithm::KEcss,
            Algorithm::ThreeEcss,
            Algorithm::ThreeEcssWeighted,
            Algorithm::Greedy,
            Algorithm::Thurimella,
            Algorithm::MstOnly,
        ] {
            assert_eq!(Algorithm::parse(algorithm.name()), Some(algorithm));
            assert_eq!(
                Algorithm::from_wire_code(algorithm.wire_code()),
                Some(algorithm)
            );
        }
        assert_eq!(Algorithm::parse("magic"), None);
        assert_eq!(Algorithm::from_wire_code(7), None);
    }

    #[test]
    fn payloads_are_byte_deterministic_and_verified() {
        let a = run(&ring_spec(5), &Executor::Sequential).unwrap();
        let b = run(&ring_spec(5), &Executor::from_threads(4)).unwrap();
        assert_eq!(a, b, "payloads must not depend on the executor");
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("verified k=2 yes"), "{text}");
        assert!(text.contains("rounds solver="), "{text}");
        assert!(text.lines().filter(|l| l.starts_with("edge ")).count() > 0);
        // A different seed gives a different instance, hence different bytes.
        let c = run(&ring_spec(6), &Executor::Sequential).unwrap();
        assert_ne!(c, b);
    }

    #[test]
    fn inline_instances_solve_end_to_end() {
        let spec = JobSpec {
            instance: InstanceSpec::parse("inline:4:0-1-1,1-2-1,2-3-1,3-0-1,0-2-5").unwrap(),
            k: 2,
            algorithm: Algorithm::KEcss,
            enumerator: EnumeratorPolicy::Auto,
            seed: 3,
        };
        let text = String::from_utf8(run(&spec, &Executor::Sequential).unwrap()).unwrap();
        assert!(text.contains("verified k=2 yes"), "{text}");
    }

    #[test]
    fn failing_jobs_report_the_solver_error() {
        // A cycle is only 2-edge-connected; asking for k = 3 must fail with
        // the solver's message, not a panic.
        let spec = JobSpec {
            instance: InstanceSpec::parse("inline:4:0-1-1,1-2-1,2-3-1,3-0-1").unwrap(),
            k: 3,
            algorithm: Algorithm::KEcss,
            enumerator: EnumeratorPolicy::Auto,
            seed: 1,
        };
        let err = run(&spec, &Executor::Sequential).unwrap_err();
        assert!(err.contains("2-edge-connected"), "{err}");
    }

    #[test]
    fn certified_k_pins_the_fixed_target_algorithms() {
        assert_eq!(Algorithm::TwoEcss.certified_k(5), 2);
        assert_eq!(Algorithm::ThreeEcss.certified_k(5), 3);
        assert_eq!(Algorithm::MstOnly.certified_k(5), 1);
        assert_eq!(Algorithm::KEcss.certified_k(5), 5);
    }
}
