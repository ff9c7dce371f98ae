//! Execution of the parsed CLI commands.

use crate::args::{Algorithm, Command, Family, ServeRole, SubmitAction, SweepSource};
use crate::CliError;
use graphs::{connectivity, EdgeSet, Graph};
use kecss::cuts::EnumeratorPolicy;
use kecss::lower_bounds;
use kecss_runtime::{sweep, Executor};
use kecss_server::client::Client;
use kecss_server::coordinator::{fleet_summary_line, Coordinator, CoordinatorConfig};
use kecss_server::instance;
use kecss_server::job::{self, JobSpec};
use kecss_server::server::{summary_line, Server, ServerConfig};
use kecss_server::worker::{Worker, WorkerConfig};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] for I/O, format, usage or solver failures.
pub fn execute<W: Write>(command: Command, out: &mut W) -> Result<(), CliError> {
    match command {
        Command::Help => {
            writeln!(out, "{}", crate::args::USAGE)?;
            Ok(())
        }
        Command::Generate {
            family,
            n,
            k,
            max_weight,
            seed,
            output,
        } => {
            let graph = generate(family, n, k, max_weight, seed)?;
            graphs::io::write_graph(Path::new(&output), &graph)?;
            writeln!(
                out,
                "wrote {}: n = {}, m = {}, edge connectivity >= {}, total weight {}",
                output,
                graph.n(),
                graph.m(),
                k,
                graph.total_weight()
            )?;
            Ok(())
        }
        Command::Solve {
            input,
            algorithm,
            k,
            seed,
            threads,
            enumerator,
            output,
            trace,
        } => {
            let _trace = TraceSink::install(trace.as_deref())?;
            let graph = graphs::io::read_graph(Path::new(&input))?;
            let exec = Executor::from_threads(threads);
            let (edges, rounds, label) =
                job::dispatch(&graph, algorithm, k, seed, &exec, enumerator)?;
            report(out, &graph, &edges, rounds, label, algorithm.certified_k(k))?;
            if let Some(path) = output {
                graphs::io::write_solution(Path::new(&path), &graph, &edges)?;
                writeln!(out, "solution written to {path}")?;
            }
            Ok(())
        }
        Command::Convert { input, output } => {
            let graph = graphs::io::read_graph(Path::new(&input))?;
            graphs::io::write_graph(Path::new(&output), &graph)?;
            writeln!(
                out,
                "converted {input} -> {output}: n = {}, m = {}, total weight {}",
                graph.n(),
                graph.m(),
                graph.total_weight()
            )?;
            Ok(())
        }
        Command::Sweep {
            source,
            k,
            max_weight,
            algorithms,
            seeds,
            base_seed,
            threads,
            enumerator,
            trace,
        } => {
            let _trace = TraceSink::install(trace.as_deref())?;
            run_sweep(
                out,
                &source,
                k,
                max_weight,
                &algorithms,
                seeds,
                base_seed,
                threads,
                enumerator,
            )
        }
        Command::Serve {
            addr,
            threads,
            queue_depth,
            max_requests_per_conn,
            write_queue_limit,
            role,
        } => match role {
            ServeRole::Standalone => {
                let server = Server::bind(&ServerConfig {
                    addr,
                    threads,
                    queue_depth,
                    max_requests_per_conn,
                    write_queue_limit,
                })?;
                writeln!(
                    out,
                    "kecss serve listening on {} (threads={}, queue-depth={})",
                    server.local_addr(),
                    threads.max(1),
                    queue_depth.max(1)
                )?;
                let summary = server.run();
                writeln!(out, "{}", summary_line(&summary))?;
                Ok(())
            }
            ServeRole::Coordinator {
                heartbeat_timeout_ms,
                max_retries,
            } => {
                let coordinator = Coordinator::bind(&CoordinatorConfig {
                    addr,
                    queue_depth,
                    heartbeat_timeout: Duration::from_millis(heartbeat_timeout_ms.max(1)),
                    max_retries,
                    max_requests_per_conn,
                    write_queue_limit,
                })?;
                writeln!(
                    out,
                    "kecss coordinator listening on {} (queue-depth={}, \
                     heartbeat-timeout={heartbeat_timeout_ms}ms, max-retries={max_retries})",
                    coordinator.local_addr(),
                    queue_depth.max(1),
                )?;
                // The banner must be visible before the blocking run: the
                // smoke harness polls it for the bound address.
                out.flush()?;
                let summary = coordinator.run();
                writeln!(out, "{}", fleet_summary_line(&summary))?;
                Ok(())
            }
            ServeRole::Worker {
                coordinator,
                worker_id,
                heartbeat_ms,
                advertise,
            } => {
                let worker = Worker::bind(&WorkerConfig {
                    addr,
                    coordinator: coordinator.clone(),
                    worker_id: worker_id.unwrap_or_default(),
                    threads,
                    queue_depth,
                    heartbeat_interval: Duration::from_millis(heartbeat_ms.max(1)),
                    advertise: advertise.unwrap_or_default(),
                })?;
                writeln!(
                    out,
                    "kecss worker {} listening on {} (coordinator={coordinator}, \
                     heartbeat={heartbeat_ms}ms, threads={}, queue-depth={})",
                    worker.worker_id(),
                    worker.local_addr(),
                    threads.max(1),
                    queue_depth.max(1)
                )?;
                out.flush()?;
                let summary = worker.run();
                writeln!(out, "{}", summary_line(&summary))?;
                Ok(())
            }
        },
        Command::Submit { addr, action } => run_submit(out, &addr, action),
        Command::FleetStatus { addr } => {
            let mut client =
                Client::connect(&addr).map_err(|e| CliError::Service(e.to_string()))?;
            let text = client
                .fleet_status()
                .map_err(|e| CliError::Service(e.to_string()))?;
            out.write_all(text.as_bytes())?;
            Ok(())
        }
        Command::Verify { input, solution, k } => {
            let graph = graphs::io::read_graph(Path::new(&input))?;
            let edges = graphs::io::read_solution(Path::new(&solution), &graph)?;
            let ok = connectivity::is_k_edge_connected_in(&graph, &edges, k);
            writeln!(
                out,
                "{}: {} edges, weight {}, {}",
                solution,
                edges.len(),
                graph.weight_of(&edges),
                if ok {
                    format!("VALID {k}-edge-connected spanning subgraph")
                } else {
                    format!("NOT {k}-edge-connected")
                }
            )?;
            if !ok {
                return Err(CliError::Format(format!(
                    "'{solution}' is not a {k}-edge-connected spanning subgraph of '{input}'"
                )));
            }
            Ok(())
        }
    }
}

/// RAII installer for `--trace FILE`: a buffered JSONL sink for the span
/// stream, uninstalled (which flushes it) when the command finishes.
struct TraceSink(bool);

impl TraceSink {
    fn install(path: Option<&str>) -> Result<TraceSink, CliError> {
        match path {
            None => Ok(TraceSink(false)),
            Some(path) => {
                let file = std::fs::File::create(path)?;
                kecss_obs::install_trace_sink(Box::new(std::io::BufWriter::new(file)));
                Ok(TraceSink(true))
            }
        }
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        if self.0 {
            kecss_obs::clear_trace_sink();
        }
    }
}

/// Submits one job (or a metrics/shutdown request) to a running service and
/// reports the outcome. A job submission fails the command unless the server
/// returned a payload whose exact verification accepted the solution.
fn run_submit<W: Write>(out: &mut W, addr: &str, action: SubmitAction) -> Result<(), CliError> {
    // `--binary true` speaks KGW1 frames; replies carry the same payload
    // bytes, so everything downstream (verification, --payload-only) is
    // mode-agnostic.
    let binary = matches!(action, SubmitAction::Job { binary: true, .. });
    let mut client = if binary {
        Client::connect_binary(addr)
    } else {
        Client::connect(addr)
    }
    .map_err(|e| CliError::Service(e.to_string()))?;
    let service = |e: kecss_server::client::ClientError| CliError::Service(e.to_string());
    match action {
        SubmitAction::Shutdown => {
            client.shutdown().map_err(service)?;
            writeln!(out, "server at {addr} acknowledged shutdown")?;
            Ok(())
        }
        SubmitAction::Metrics => {
            let text = client.metrics().map_err(service)?;
            out.write_all(text.as_bytes())?;
            Ok(())
        }
        SubmitAction::Job {
            instance,
            k,
            algorithm,
            enumerator,
            seed,
            no_wait,
            timeout_secs,
            payload_only,
            binary: _,
        } => {
            let spec = JobSpec {
                instance,
                k,
                algorithm,
                enumerator,
                seed,
            };
            // With --no-wait (or for the queued-id message) the submit must
            // be a separate request; otherwise binary mode rides the
            // wait-flagged SUBMIT so the whole round is one request.
            let (id, waited) = if no_wait || !payload_only {
                let id = match client.submit(&spec).map_err(service)? {
                    Ok(id) => id,
                    Err(depth) => {
                        return Err(CliError::Solver(kecss::Error::JobQueueFull { depth }));
                    }
                };
                if !payload_only {
                    writeln!(out, "job {id} queued at {addr}: {}", spec.canonical())?;
                }
                if no_wait {
                    return Ok(());
                }
                (id, None)
            } else {
                match client
                    .submit_wait(&spec, Duration::from_secs(timeout_secs))
                    .map_err(service)?
                {
                    Ok((id, payload)) => (id, Some(payload)),
                    Err(depth) => {
                        return Err(CliError::Solver(kecss::Error::JobQueueFull { depth }));
                    }
                }
            };
            let payload = match waited {
                Some(payload) => payload,
                None => client
                    .wait_result(id, Duration::from_secs(timeout_secs))
                    .map_err(service)?,
            };
            let text = String::from_utf8(payload)
                .map_err(|_| CliError::Service("result payload is not UTF-8".into()))?;
            out.write_all(text.as_bytes())?;
            let target = algorithm.certified_k(k).max(1);
            if text.contains(&format!("verified k={target} yes")) {
                // --payload-only keeps stdout exactly the payload bytes (for
                // byte-for-byte fleet-vs-standalone comparison); verification
                // still gates the exit status either way.
                if !payload_only {
                    writeln!(out, "job {id}: verified {target}-edge-connected ✓")?;
                }
                Ok(())
            } else {
                Err(CliError::Service(format!(
                    "job {id} returned a payload that failed {target}-edge-connectivity \
                     verification"
                )))
            }
        }
    }
}

/// One completed sweep cell.
struct SweepRow {
    algorithm: &'static str,
    n: usize,
    m: usize,
    seed: u64,
    edges: usize,
    weight: u64,
    rounds: Option<u64>,
    valid: bool,
    millis: u128,
}

/// Runs the (algorithm × n × seed) grid concurrently over `threads` workers,
/// printing one table row per cell plus an aggregate line. Every cell
/// generates its own instance — or, for a [`SweepSource::File`], shares the
/// one loaded instance (either on-disk format) — solves it and verifies the
/// solution; rows come out in grid order regardless of the thread count.
#[allow(clippy::too_many_arguments)]
fn run_sweep<W: Write>(
    out: &mut W,
    source: &SweepSource,
    k: usize,
    max_weight: u64,
    algorithms: &[Algorithm],
    seeds: u64,
    base_seed: u64,
    threads: usize,
    enumerator: EnumeratorPolicy,
) -> Result<(), CliError> {
    let exec = Executor::from_threads(threads);
    let seed_list: Vec<u64> = (0..seeds.max(1)).map(|i| base_seed + i).collect();
    // For a file source, load once and freeze: every cell reads the same
    // instance through a shared reference (Graph is Sync).
    let loaded: Option<Graph> = match source {
        SweepSource::Grid { .. } => None,
        SweepSource::File(path) => {
            let graph = graphs::io::read_graph(Path::new(path))?;
            graph.freeze();
            Some(graph)
        }
    };
    let (source_label, ns): (String, Vec<usize>) = match source {
        SweepSource::Grid { family, ns } => (format!("family={}", family.name()), ns.clone()),
        SweepSource::File(path) => (
            format!("input={path}"),
            vec![loaded.as_ref().expect("file source is loaded").n()],
        ),
    };
    let cells = sweep::grid3(algorithms, &ns, &seed_list);
    writeln!(
        out,
        "sweep     : {source_label} k={k} max-weight={max_weight} enumerator={} threads={} cells={}",
        enumerator.name(),
        exec.threads(),
        cells.len()
    )?;
    writeln!(
        out,
        "{:<14} {:>7} {:>8} {:>8} {:>7} {:>10} {:>9} {:>6} {:>7}",
        "algorithm", "n", "m", "seed", "edges", "weight", "rounds", "valid", "ms"
    )?;
    let started = Instant::now();
    let loaded = loaded.as_ref();
    // Job-granular scheduling: cells of a grid can differ in cost by orders
    // of magnitude (n is a grid dimension), so workers claim one cell at a
    // time instead of a fixed chunk. Rows still come out in grid order.
    let results: Vec<Result<SweepRow, CliError>> =
        sweep::run_jobs(&exec, &cells, |&(algorithm, n, seed)| {
            let cell_start = Instant::now();
            let generated;
            let graph: &Graph = match (source, loaded) {
                (_, Some(shared)) => shared,
                (SweepSource::Grid { family, .. }, None) => {
                    generated = generate(*family, n, k, max_weight, seed)?;
                    &generated
                }
                (SweepSource::File(_), None) => unreachable!("file sources are preloaded"),
            };
            // Cells parallelize across the grid; within a cell the solver
            // runs sequentially (no nested thread explosion). The solver gets
            // a salted seed: reusing the instance seed verbatim would replay
            // the exact RNG stream that chose the topology, correlating the
            // randomized algorithms' coin flips with the instance.
            let (edges, rounds, _) = job::dispatch(
                graph,
                algorithm,
                k,
                seed ^ job::SOLVER_SEED_SALT,
                &Executor::Sequential,
                enumerator,
            )?;
            let target = algorithm.certified_k(k);
            let valid = connectivity::is_k_edge_connected_in(graph, &edges, target.max(1));
            Ok(SweepRow {
                algorithm: algorithm.name(),
                n: graph.n(),
                m: graph.m(),
                seed,
                edges: edges.len(),
                weight: graph.weight_of(&edges),
                rounds,
                valid,
                millis: cell_start.elapsed().as_millis(),
            })
        });
    let wall = started.elapsed();

    let mut first_error = None;
    let mut invalid = 0usize;
    let mut cells_done = 0usize;
    let mut total_rounds = 0u64;
    for result in results {
        match result {
            Ok(row) => {
                if !row.valid {
                    invalid += 1;
                }
                cells_done += 1;
                total_rounds += row.rounds.unwrap_or(0);
                writeln!(
                    out,
                    "{:<14} {:>7} {:>8} {:>8} {:>7} {:>10} {:>9} {:>6} {:>7}",
                    row.algorithm,
                    row.n,
                    row.m,
                    row.seed,
                    row.edges,
                    row.weight,
                    row.rounds
                        .map_or_else(|| "-".to_string(), |r| r.to_string()),
                    if row.valid { "yes" } else { "NO" },
                    row.millis
                )?;
            }
            Err(e) => {
                writeln!(out, "cell FAILED: {e}")?;
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    writeln!(
        out,
        "total     : {cells_done} cells, {invalid} invalid, {total_rounds} charged CONGEST rounds, {} ms wall",
        wall.as_millis()
    )?;
    if let Some(e) = first_error {
        return Err(e);
    }
    if invalid > 0 {
        return Err(CliError::Format(format!(
            "{invalid} sweep cell(s) produced a subgraph that failed verification"
        )));
    }
    Ok(())
}

/// Builds a family instance via the shared family policy
/// ([`instance::build_family`]), mapping rejections to usage errors.
fn generate(
    family: Family,
    n: usize,
    k: usize,
    max_weight: u64,
    seed: u64,
) -> Result<Graph, CliError> {
    instance::build_family(family, n, k, max_weight, seed).map_err(CliError::Usage)
}

fn report<W: Write>(
    out: &mut W,
    graph: &Graph,
    edges: &EdgeSet,
    rounds: Option<u64>,
    label: &str,
    k: usize,
) -> Result<(), CliError> {
    let weight = graph.weight_of(edges);
    writeln!(out, "algorithm : {label}")?;
    writeln!(
        out,
        "instance  : n = {}, m = {}, total weight {}",
        graph.n(),
        graph.m(),
        graph.total_weight()
    )?;
    writeln!(out, "solution  : {} edges, weight {}", edges.len(), weight)?;
    if k >= 1 {
        let feasible = connectivity::is_k_edge_connected_in(graph, edges, k);
        writeln!(
            out,
            "certified : {}",
            if feasible {
                format!("{k}-edge-connected ✓")
            } else {
                format!("NOT {k}-edge-connected ✗")
            }
        )?;
        if graph.n() >= 2 && graph.neighbors(0).len() >= k {
            let lb = lower_bounds::k_ecss_lower_bound(graph, k.max(1));
            if lb > 0 {
                writeln!(
                    out,
                    "ratio     : {:.3} vs the degree/MST lower bound {lb}",
                    weight as f64 / lb as f64
                )?;
            }
        }
    }
    if let Some(r) = rounds {
        writeln!(out, "rounds    : {r} CONGEST rounds charged")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("kecss-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn run(cmd: Command) -> String {
        let mut out = Vec::new();
        execute(cmd, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn generate_solve_verify_round_trip() {
        let instance = tmp("roundtrip.graph");
        let solution = tmp("roundtrip.edges");
        let text = run(Command::Generate {
            family: Family::Random,
            n: 24,
            k: 2,
            max_weight: 30,
            seed: 5,
            output: instance.clone(),
        });
        assert!(text.contains("n = 24"));

        let text = run(Command::Solve {
            input: instance.clone(),
            algorithm: Algorithm::TwoEcss,
            k: 2,
            seed: 1,
            threads: 2,
            enumerator: EnumeratorPolicy::Auto,
            output: Some(solution.clone()),
            trace: None,
        });
        assert!(text.contains("2-edge-connected ✓"));
        assert!(text.contains("rounds"));

        let text = run(Command::Verify {
            input: instance,
            solution,
            k: 2,
        });
        assert!(text.contains("VALID"));
    }

    #[test]
    fn verify_rejects_an_mst_as_two_ecss() {
        let instance = tmp("mst.graph");
        let solution = tmp("mst.edges");
        run(Command::Generate {
            family: Family::Harary,
            n: 16,
            k: 2,
            max_weight: 1,
            seed: 2,
            output: instance.clone(),
        });
        run(Command::Solve {
            input: instance.clone(),
            algorithm: Algorithm::MstOnly,
            k: 1,
            seed: 1,
            threads: 1,
            enumerator: EnumeratorPolicy::Auto,
            output: Some(solution.clone()),
            trace: None,
        });
        let mut out = Vec::new();
        let err = execute(
            Command::Verify {
                input: instance,
                solution,
                k: 2,
            },
            &mut out,
        );
        assert!(err.is_err());
    }

    #[test]
    fn all_algorithms_run_on_a_three_connected_instance() {
        let instance = tmp("all.graph");
        run(Command::Generate {
            family: Family::Random,
            n: 18,
            k: 3,
            max_weight: 10,
            seed: 3,
            output: instance.clone(),
        });
        for algorithm in [
            Algorithm::TwoEcss,
            Algorithm::KEcss,
            Algorithm::ThreeEcss,
            Algorithm::ThreeEcssWeighted,
            Algorithm::Greedy,
            Algorithm::Thurimella,
            Algorithm::MstOnly,
        ] {
            let text = run(Command::Solve {
                input: instance.clone(),
                algorithm,
                k: 3,
                seed: 4,
                threads: 1,
                enumerator: EnumeratorPolicy::Auto,
                output: None,
                trace: None,
            });
            assert!(
                text.contains("solution"),
                "{algorithm:?} produced no report"
            );
        }
    }

    #[test]
    fn hypercube_roundtrip_past_the_former_k_cap() {
        // Q_5 has edge connectivity exactly 5; k = 5 was unreachable before
        // the pluggable enumerators. generate -> solve -> verify end to end.
        let instance = tmp("q5.graph");
        let solution = tmp("q5.edges");
        let text = run(Command::Generate {
            family: Family::Hypercube,
            n: 32,
            k: 5,
            max_weight: 1,
            seed: 1,
            output: instance.clone(),
        });
        assert!(text.contains("n = 32"));
        let text = run(Command::Solve {
            input: instance.clone(),
            algorithm: Algorithm::KEcss,
            k: 5,
            seed: 7,
            threads: 1,
            enumerator: EnumeratorPolicy::Auto,
            output: Some(solution.clone()),
            trace: None,
        });
        assert!(text.contains("5-edge-connected ✓"), "{text}");
        let text = run(Command::Verify {
            input: instance,
            solution,
            k: 5,
        });
        assert!(text.contains("VALID 5-edge-connected"), "{text}");
    }

    #[test]
    fn hypercube_generate_rejects_oversized_k() {
        let mut out = Vec::new();
        let err = execute(
            Command::Generate {
                family: Family::Hypercube,
                n: 16,
                k: 6,
                max_weight: 1,
                seed: 1,
                output: tmp("q4-bad.graph"),
            },
            &mut out,
        );
        assert!(err.is_err());
    }

    #[test]
    fn explicit_enumerators_solve_and_exact_rejects_high_k() {
        let instance = tmp("enum.graph");
        run(Command::Generate {
            family: Family::Hypercube,
            n: 16,
            k: 4,
            max_weight: 1,
            seed: 2,
            output: instance.clone(),
        });
        for enumerator in [
            EnumeratorPolicy::Label,
            EnumeratorPolicy::Contract,
            EnumeratorPolicy::Auto,
        ] {
            let text = run(Command::Solve {
                input: instance.clone(),
                algorithm: Algorithm::KEcss,
                k: 4,
                seed: 3,
                threads: 1,
                enumerator,
                output: None,
                trace: None,
            });
            assert!(
                text.contains("4-edge-connected ✓"),
                "{enumerator:?}: {text}"
            );
        }
        // `exact` cannot enumerate size-4 cuts: k = 5 must be a clean error,
        // not an abort.
        let q5 = tmp("enum-q5.graph");
        run(Command::Generate {
            family: Family::Hypercube,
            n: 32,
            k: 5,
            max_weight: 1,
            seed: 2,
            output: q5.clone(),
        });
        let mut out = Vec::new();
        let err = execute(
            Command::Solve {
                input: q5,
                algorithm: Algorithm::KEcss,
                k: 5,
                seed: 3,
                threads: 1,
                enumerator: EnumeratorPolicy::Exact,
                output: None,
                trace: None,
            },
            &mut out,
        );
        match err {
            Err(CliError::Solver(kecss::Error::InvalidCutRequest { .. })) => {}
            other => panic!("expected an InvalidCutRequest solver error, got {other:?}"),
        }
    }

    #[test]
    fn sweep_runs_a_grid_and_reports_every_cell() {
        let text = run(Command::Sweep {
            source: SweepSource::Grid {
                family: Family::Random,
                ns: vec![16, 24],
            },
            k: 2,
            max_weight: 12,
            algorithms: vec![Algorithm::TwoEcss, Algorithm::Greedy],
            seeds: 2,
            base_seed: 3,
            threads: 4,
            enumerator: EnumeratorPolicy::Auto,
            trace: None,
        });
        // 2 algorithms x 2 sizes x 2 seeds = 8 cells, all valid.
        assert_eq!(text.matches(" yes ").count(), 8, "{text}");
        assert!(text.contains("cells=8"));
        assert!(text.contains("8 cells, 0 invalid"));
    }

    #[test]
    fn sweep_rows_are_identical_for_every_thread_count() {
        let strip_timings = |text: &str| -> Vec<String> {
            // Drop the per-cell / total wall-clock numbers; everything else
            // must be bit-identical across thread counts.
            text.lines()
                .filter(|l| !l.starts_with("total"))
                .map(|l| {
                    let mut cols: Vec<&str> = l.split_whitespace().collect();
                    if cols.len() == 9 && !l.starts_with("sweep") && !l.starts_with("algorithm") {
                        cols.pop(); // the ms column
                    }
                    cols.join(" ")
                })
                .collect()
        };
        let make = |threads: usize| Command::Sweep {
            source: SweepSource::Grid {
                family: Family::Random,
                ns: vec![14, 20],
            },
            k: 2,
            max_weight: 9,
            algorithms: vec![Algorithm::TwoEcss],
            seeds: 2,
            base_seed: 1,
            threads,
            enumerator: EnumeratorPolicy::Auto,
            trace: None,
        };
        let sequential = strip_timings(&run(make(1)));
        for threads in [2, 8] {
            let mut parallel = strip_timings(&run(make(threads)));
            // The header names the thread count; normalize it.
            parallel[0] = parallel[0].replace(&format!("threads={threads}"), "threads=1");
            assert_eq!(parallel, sequential, "t = {threads}");
        }
    }

    #[test]
    fn convert_round_trips_both_directions() {
        let text_path = tmp("convert.graph");
        let bin_path = tmp("convert.graphb");
        let back_path = tmp("convert-back.graph");
        run(Command::Generate {
            family: Family::Random,
            n: 20,
            k: 2,
            max_weight: 17,
            seed: 9,
            output: text_path.clone(),
        });
        let report = run(Command::Convert {
            input: text_path.clone(),
            output: bin_path.clone(),
        });
        assert!(report.contains("n = 20"), "{report}");
        run(Command::Convert {
            input: bin_path.clone(),
            output: back_path.clone(),
        });
        // text -> binary -> text is the identity on the file bytes.
        assert_eq!(
            std::fs::read(&text_path).unwrap(),
            std::fs::read(&back_path).unwrap()
        );
    }

    #[test]
    fn solve_is_byte_identical_across_instance_formats() {
        let text_path = tmp("fmt.graph");
        let bin_path = tmp("fmt.graphb");
        let sol_a = tmp("fmt-text.edges");
        let sol_b = tmp("fmt-bin.edges");
        run(Command::Generate {
            family: Family::Random,
            n: 22,
            k: 2,
            max_weight: 13,
            seed: 11,
            output: text_path.clone(),
        });
        run(Command::Convert {
            input: text_path.clone(),
            output: bin_path.clone(),
        });
        for (input, output) in [(&text_path, &sol_a), (&bin_path, &sol_b)] {
            run(Command::Solve {
                input: input.clone(),
                algorithm: Algorithm::KEcss,
                k: 2,
                seed: 5,
                threads: 1,
                enumerator: EnumeratorPolicy::Auto,
                output: Some(output.clone()),
                trace: None,
            });
        }
        // Identical EdgeId assignment in both formats => identical solver
        // randomness => byte-identical solution files.
        assert_eq!(
            std::fs::read(&sol_a).unwrap(),
            std::fs::read(&sol_b).unwrap()
        );
    }

    #[test]
    fn solve_writes_and_verify_reads_binary_solutions() {
        let instance = tmp("solb.graphb");
        let sol_text = tmp("solb.edges");
        let sol_bin = tmp("solb.solb");
        run(Command::Generate {
            family: Family::Random,
            n: 26,
            k: 2,
            max_weight: 19,
            seed: 13,
            output: instance.clone(),
        });
        for output in [&sol_text, &sol_bin] {
            run(Command::Solve {
                input: instance.clone(),
                algorithm: Algorithm::KEcss,
                k: 2,
                seed: 6,
                threads: 1,
                enumerator: EnumeratorPolicy::Auto,
                output: Some(output.clone()),
                trace: None,
            });
        }
        // verify accepts both encodings of the same solution.
        for solution in [&sol_text, &sol_bin] {
            let text = run(Command::Verify {
                input: instance.clone(),
                solution: solution.clone(),
                k: 2,
            });
            assert!(text.contains("VALID"), "{solution}: {text}");
        }
        // Both files decode to the same edge set, and the binary one is the
        // canonical 12 + 8·len encoding.
        let graph = graphs::io::read_graph(Path::new(&instance)).unwrap();
        let from_text = graphs::io::read_solution(Path::new(&sol_text), &graph).unwrap();
        let from_bin = graphs::io::read_solution(Path::new(&sol_bin), &graph).unwrap();
        assert_eq!(from_text, from_bin);
        let bytes = std::fs::read(&sol_bin).unwrap();
        assert_eq!(&bytes[0..4], b"KGS1");
        assert_eq!(bytes.len(), 12 + 8 * from_bin.len());
    }

    #[test]
    fn sweep_accepts_an_instance_file_in_either_format() {
        let bin_path = tmp("sweep-input.graphb");
        run(Command::Generate {
            family: Family::Random,
            n: 18,
            k: 2,
            max_weight: 7,
            seed: 2,
            output: bin_path.clone(),
        });
        let text = run(Command::Sweep {
            source: SweepSource::File(bin_path.clone()),
            k: 2,
            max_weight: 1,
            algorithms: vec![Algorithm::TwoEcss, Algorithm::Greedy],
            seeds: 2,
            base_seed: 1,
            threads: 2,
            enumerator: EnumeratorPolicy::Auto,
            trace: None,
        });
        // 2 algorithms x 1 instance x 2 seeds = 4 cells, all valid.
        assert_eq!(text.matches(" yes ").count(), 4, "{text}");
        assert!(text.contains(&format!("input={bin_path}")), "{text}");
        assert!(text.contains("4 cells, 0 invalid"), "{text}");
    }

    #[test]
    fn generate_rejects_tiny_instances() {
        let mut out = Vec::new();
        let err = execute(
            Command::Generate {
                family: Family::Random,
                n: 2,
                k: 2,
                max_weight: 1,
                seed: 1,
                output: tmp("tiny.graph"),
            },
            &mut out,
        );
        assert!(err.is_err());
    }

    #[test]
    fn help_prints_usage() {
        let text = run(Command::Help);
        assert!(text.contains("USAGE"));
    }
}
