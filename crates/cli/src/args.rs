//! Hand-rolled argument parsing (no external dependency needed for a handful
//! of flags).
//!
//! The instance-family and algorithm vocabularies are shared with the service
//! layer ([`kecss_server::instance`] / [`kecss_server::job`]), so a name
//! accepted here means the same thing on the wire.

use crate::CliError;
use kecss::cuts::EnumeratorPolicy;
use kecss_server::instance::InstanceSpec;
use kecss_server::server::{Role, ServerConfig};
use std::time::Duration;

pub use kecss_server::instance::Family;
pub use kecss_server::job::Algorithm;

/// Parses a `--family` flag value.
fn parse_family(s: &str) -> Result<Family, CliError> {
    Family::parse(s).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown family '{s}' (expected random, ring, torus, harary or hypercube)"
        ))
    })
}

/// Parses an `--algorithm` flag value.
fn parse_algorithm(s: &str) -> Result<Algorithm, CliError> {
    Algorithm::parse(s).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown algorithm '{s}' (expected 2ecss, kecss, 3ecss, 3ecss-weighted, greedy, \
             thurimella or mst)"
        ))
    })
}

/// Parses the `--enumerator` / `--strategy` flag into a [`EnumeratorPolicy`].
fn parse_enumerator(s: &str) -> Result<EnumeratorPolicy, CliError> {
    EnumeratorPolicy::parse(s).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown enumerator '{s}' (expected exact, label, contract, ks or auto)"
        ))
    })
}

/// Reads the cut-enumeration strategy from the flag map. `--strategy` is an
/// alias for `--enumerator`; passing both is rejected so a typo cannot
/// silently half-apply.
fn enumerator_flag(
    map: &std::collections::HashMap<&str, &str>,
) -> Result<EnumeratorPolicy, CliError> {
    match (map.get("enumerator"), map.get("strategy")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--enumerator and --strategy are aliases; pass only one".into(),
        )),
        (Some(v), None) | (None, Some(v)) => parse_enumerator(v),
        (None, None) => Ok(EnumeratorPolicy::default()),
    }
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Print usage information.
    Help,
    /// Generate an instance and write it to a file.
    Generate {
        /// Instance family.
        family: Family,
        /// Number of vertices (approximate for grid-like families).
        n: usize,
        /// Required edge connectivity of the instance.
        k: usize,
        /// Maximum edge weight (1 = unweighted).
        max_weight: u64,
        /// RNG seed.
        seed: u64,
        /// Output path.
        output: String,
    },
    /// Solve an instance file with one of the algorithms.
    Solve {
        /// Path to the instance file.
        input: String,
        /// Which algorithm to run.
        algorithm: Algorithm,
        /// Connectivity target (used by `kecss`, `greedy`, `thurimella`).
        k: usize,
        /// RNG seed for the randomized algorithms.
        seed: u64,
        /// Worker threads for the cut-verification phase of the algorithms
        /// that have one (`kecss`, `greedy`; the others ignore the flag).
        /// Results are bit-identical for every thread count.
        threads: usize,
        /// Cut-enumeration strategy for the algorithms that enumerate cuts
        /// (`kecss`, `greedy`; the others ignore the flag).
        enumerator: EnumeratorPolicy,
        /// Optional path to write the solution to (`.solb` = `KGS1` binary,
        /// anything else = text edge list).
        output: Option<String>,
        /// Optional path to stream the observability span tree to, as JSONL
        /// (DESIGN.md §11). Purely out-of-band: the solution bytes are
        /// identical with and without it.
        trace: Option<String>,
    },
    /// Translate an instance file between the text and `KGB1` binary formats
    /// (the direction is inferred from the two extensions).
    Convert {
        /// Path of the existing instance (either format).
        input: String,
        /// Path to write (either format; `.graphb` = binary).
        output: String,
    },
    /// Run a grid of instances × algorithms × seeds concurrently.
    Sweep {
        /// Where the instances come from: a generated family grid, or one
        /// instance file (text or binary).
        source: SweepSource,
        /// Connectivity target for generation and solving.
        k: usize,
        /// Maximum edge weight (1 = unweighted).
        max_weight: u64,
        /// Algorithms to run, one grid dimension.
        algorithms: Vec<Algorithm>,
        /// Number of seeds per (n, algorithm) cell.
        seeds: u64,
        /// First seed of the per-cell seed range.
        base_seed: u64,
        /// Worker threads the grid cells are spread over.
        threads: usize,
        /// Cut-enumeration strategy used by the solving algorithms.
        enumerator: EnumeratorPolicy,
        /// Optional path to stream the observability span tree to, as JSONL
        /// (DESIGN.md §11).
        trace: Option<String>,
    },
    /// Verify that a solution file is a k-edge-connected spanning subgraph of
    /// an instance file.
    Verify {
        /// Path to the instance file.
        input: String,
        /// Path to the solution file (text edge list, or `.solb` binary).
        solution: String,
        /// Connectivity to verify.
        k: usize,
    },
    /// Run the long-running solver service in one of its roles (blocks
    /// until `SHUTDOWN`; DESIGN.md §13).
    Serve(ServerConfig),
    /// Submit a job to a running service and (by default) wait for its
    /// verified result.
    Submit {
        /// The server address (`host:port`).
        addr: String,
        /// What to submit: a job, or a shutdown request.
        action: SubmitAction,
    },
    /// Print a coordinator's fleet status text (`FLEET` verb).
    FleetStatus {
        /// The coordinator address (`host:port`).
        addr: String,
    },
}

/// What a sweep iterates over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepSource {
    /// Generate one instance per `(family, n, seed)` grid cell.
    Grid {
        /// Instance family.
        family: Family,
        /// Vertex counts, one grid dimension.
        ns: Vec<usize>,
    },
    /// Load one instance file (text or `.graphb` binary) and sweep
    /// algorithms × seeds over it.
    File(String),
}

/// The two things `kecss submit` can ask of a server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitAction {
    /// Submit a solver job.
    Job {
        /// The instance spec (`family:n[:max-weight]` or `inline:...`).
        instance: InstanceSpec,
        /// Connectivity target.
        k: usize,
        /// Algorithm to run.
        algorithm: Algorithm,
        /// Cut-enumeration strategy.
        enumerator: EnumeratorPolicy,
        /// Job seed.
        seed: u64,
        /// Print the job id and return instead of waiting for the result.
        no_wait: bool,
        /// Give up waiting after this many seconds.
        timeout_secs: u64,
        /// Write exactly the result payload bytes to stdout — no job-id
        /// header, no verification trailer. This is what lets CI `cmp` a
        /// fleet result against a standalone result byte for byte.
        payload_only: bool,
        /// Speak the KGW1 binary frame protocol instead of the text protocol
        /// (same requests, same payload bytes; DESIGN.md §14).
        binary: bool,
    },
    /// Fetch the server's metrics text exposition and print it.
    Metrics,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] when the command or its flags are malformed.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let mut it = argv.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => parse_generate(&rest),
        "solve" => parse_solve(&rest),
        "verify" => parse_verify(&rest),
        "convert" => parse_convert(&rest),
        "sweep" => parse_sweep(&rest),
        "serve" => parse_serve(&rest),
        "submit" => parse_submit(&rest),
        "fleet-status" => parse_fleet_status(&rest),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'; try 'kecss help'"
        ))),
    }
}

/// The usage text printed by `kecss help`.
pub const USAGE: &str = "\
kecss — distributed approximation of minimum k-edge-connected spanning subgraphs

USAGE:
    kecss generate --family <random|ring|torus|harary|hypercube> --n <N> [--k <K>] [--max-weight <W>] [--seed <S>] --output <FILE>
    kecss solve    --input <FILE> --algorithm <2ecss|kecss|3ecss|3ecss-weighted|greedy|thurimella|mst> [--k <K>] [--seed <S>] [--threads <T>] [--enumerator <E>] [--output <FILE>] [--trace <FILE>]
    kecss verify   --input <FILE> --solution <FILE> --k <K>
    kecss convert  --input <FILE> --output <FILE>
    kecss sweep    (--family <F> --n <N1,N2,...> | --input <FILE>) [--k <K>] [--max-weight <W>] [--algorithms <A1,A2,...>] [--seeds <S>] [--base-seed <B>] [--threads <T>] [--enumerator <E>] [--trace <FILE>]
    kecss serve    [--addr <HOST:PORT>] [--threads <T>] [--queue-depth <Q>] [--max-requests-per-conn <N>] [--write-queue-limit <BYTES>]
    kecss serve    --role coordinator [--addr <HOST:PORT>] [--queue-depth <Q>] [--heartbeat-timeout-ms <MS>] [--max-retries <R>]
    kecss serve    --role worker --coordinator <HOST:PORT> [--addr <HOST:PORT>] [--advertise <HOST:PORT>] [--worker-id <ID>] [--heartbeat-ms <MS>] [--threads <T>] [--queue-depth <Q>]
    kecss submit   --addr <HOST:PORT> --instance <SPEC> [--k <K>] [--algorithm <A>] [--enumerator <E>] [--seed <S>] [--timeout-secs <T>] [--no-wait true] [--payload-only true] [--binary true]
    kecss submit   --addr <HOST:PORT> --metrics true
    kecss submit   --addr <HOST:PORT> --shutdown true
    kecss fleet-status --addr <HOST:PORT>
    kecss help

`solve --threads T` parallelizes the cut-verification phase of the
algorithms that have one (kecss, greedy); the other algorithms ignore the
flag. `sweep` runs every (n, algorithm, seed) cell of the grid concurrently
over T worker threads and verifies each solution. Results are bit-identical
for every thread count.

`--enumerator <exact|label|contract|ks|auto>` picks the cut-enumeration
strategy for kecss and greedy (default auto); `--strategy` is an alias.
'exact' is the specialized size-1..3 enumerator (so k <= 4); 'label'
enumerates XOR-zero cycle-space subsets of any size; 'contract' is flat
randomized Karger contraction (the ablation baseline); 'ks' is recursive
Karger-Stein contraction (DESIGN.md #12); 'auto' uses exact below size 4,
then lists the minimum cuts from max-flows (DESIGN.md #5), running label,
then ks when the candidate pool explodes, only for a graph below the
requested connectivity. Any k is supported with label/contract/ks/auto.

The 'hypercube' family rounds --n to the next power of two and has edge
connectivity exactly log2 n, giving ground truth for high-k runs.

`serve` runs the long-running solver service: a TCP front-end (DESIGN.md §9)
accepting SUBMIT/STATUS/RESULT/CANCEL/SHUTDOWN requests, scheduling jobs onto
a worker pool with at most --queue-depth jobs in flight (BUSY beyond that),
and streaming back byte-deterministic, exactly-verified result payloads.
`submit` is the matching client: it submits one job spec — '<family>:<n>',
'<family>:<n>:<max-weight>' or 'inline:<n>:<u>-<v>-<w>,...' — waits for the
result (unless --no-wait true) and fails unless the server verified the
solution. '--metrics true' prints the server's metrics registry as a text
exposition (the METRICS verb, DESIGN.md §11); '--shutdown true' asks the
server to drain and exit instead.

`serve --role coordinator|worker|standalone` picks the fleet role (DESIGN.md
§13; default standalone, the single-process service). A coordinator accepts
the same client protocol and dispatches every job to a registered worker over
that same wire format, with an explicit QUEUED -> ASSIGNED -> RUNNING ->
DONE/FAILED lifecycle, heartbeat-timeout worker-loss detection
(--heartbeat-timeout-ms) and up to --max-retries re-queues per job on worker
loss. A worker is an ordinary server that additionally registers with
--coordinator by heartbeating every --heartbeat-ms; --advertise overrides the
address those heartbeats carry when the bound address is not dialable from
the coordinator (e.g. a 0.0.0.0 bind in a container). Job-to-worker assignment
is a deterministic hash of the job id over the sorted live-worker set, and
payloads are byte-identical at any fleet size (purity of the job runner).
`fleet-status` prints the coordinator's machine-parseable fleet text (FLEET
verb): workers with liveness/inflight counts, aggregate job counters, and one
line per non-terminal job. `submit --payload-only true` writes exactly the
result payload bytes to stdout (no header/trailer lines), for byte-for-byte
comparison of fleet vs standalone answers.

`--trace FILE` (solve, sweep) streams the observability span tree — phase
timings, enumeration events — to FILE as JSON Lines while the run proceeds.
Tracing is strictly out-of-band: solutions and outputs are byte-identical
with and without it (DESIGN.md §11). `serve --max-requests-per-conn N`
bounds each connection to N requests (ERR, then close; 0 = unlimited), and
`serve --write-queue-limit BYTES` caps each connection's pending-write queue —
a reader stalled past it gets ERR and is disconnected so slow clients cannot
pin server memory (DESIGN.md §14). Neither is a worker flag: the coordinator
sends every job to a worker over one connection, and a worker's write-queue
bound is the default times its queue depth. `submit --binary true` speaks the
KGW1 binary frame protocol (length-prefixed frames, zero-parse inline instances)
instead of the text protocol; payloads are byte-identical in both modes.

Instance files come in two formats, picked by extension everywhere a file is
read or written: plain text (the first non-comment line is the number of
vertices, every following line is 'u v weight'; '#' lines are ignored) and
the KGB1 binary format ('.graphb': the \"KGB1\" magic, little-endian u64
vertex and edge counts, then one 16-byte 'u32 u, u32 v, u64 weight' record
per edge — DESIGN.md §10). Both encode the edge list in the same order, so
edge ids — and therefore solver outputs — are identical for both. `convert`
translates between them; `sweep --input` and the service's 'file:<path>'
instance spec accept either. All instance readers stream: files are ingested
through a chunked cursor and the adjacency is built in two passes, so peak
memory is the graph itself, never the file (out-of-core pipeline, DESIGN.md
§10).

Solution files mirror the split: plain text ('.edges': one 'u v weight' line
per selected edge, matched back to the instance by endpoints) and the KGS1
binary format ('.solb': the \"KGS1\" magic, a little-endian u64 count, then
one little-endian u64 edge id per selected edge in increasing order — exact
ids, 8 bytes per edge). `solve --output` writes and `verify --solution`
reads either, picked by extension.
";

/// Reads `--key value` pairs into a map, refusing any flag not in
/// `accepted`: a misspelled or inapplicable flag is an error, never silently
/// ignored.
fn flag_map<'a>(
    rest: &[&'a String],
    accepted: &[&str],
) -> Result<std::collections::HashMap<&'a str, &'a str>, CliError> {
    let mut map = std::collections::HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].as_str();
        let Some(name) = key.strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected a --flag, found '{key}'")));
        };
        if !accepted.contains(&name) {
            return Err(CliError::Usage(format!(
                "unknown flag '{key}' (expected --{})",
                accepted.join(", --")
            )));
        }
        let Some(value) = rest.get(i + 1) else {
            return Err(CliError::Usage(format!("flag '{key}' is missing a value")));
        };
        map.insert(name, value.as_str());
        i += 2;
    }
    Ok(map)
}

fn required<'a>(
    map: &std::collections::HashMap<&'a str, &'a str>,
    key: &str,
) -> Result<&'a str, CliError> {
    map.get(key)
        .copied()
        .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
}

fn parse_number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("flag --{key} expects a number, got '{value}'")))
}

/// The number an optional flag names, or `default` when it is absent.
fn number_or<T: std::str::FromStr>(
    map: &std::collections::HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    map.get(key).map_or(Ok(default), |v| parse_number(key, v))
}

/// An address a coordinator can dial back
/// ([`kecss_server::protocol::is_dialable`]).
fn parse_dialable(key: &str, value: &str) -> Result<String, CliError> {
    if !kecss_server::protocol::is_dialable(value) {
        return Err(CliError::Usage(format!(
            "flag --{key} expects HOST:PORT with a port other than 0, got '{value}'"
        )));
    }
    Ok(value.to_string())
}

fn parse_generate(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(rest, &["family", "n", "k", "max-weight", "seed", "output"])?;
    Ok(Command::Generate {
        family: parse_family(required(&map, "family")?)?,
        n: parse_number("n", required(&map, "n")?)?,
        k: number_or(&map, "k", 2)?,
        max_weight: number_or(&map, "max-weight", 1)?,
        seed: number_or(&map, "seed", 1)?,
        output: required(&map, "output")?.to_string(),
    })
}

fn parse_solve(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(
        rest,
        &[
            "input",
            "algorithm",
            "k",
            "seed",
            "threads",
            "enumerator",
            "strategy",
            "output",
            "trace",
        ],
    )?;
    Ok(Command::Solve {
        input: required(&map, "input")?.to_string(),
        algorithm: parse_algorithm(required(&map, "algorithm")?)?,
        k: number_or(&map, "k", 2)?,
        seed: number_or(&map, "seed", 1)?,
        threads: number_or(&map, "threads", 1)?,
        enumerator: enumerator_flag(&map)?,
        output: map.get("output").map(|s| s.to_string()),
        trace: map.get("trace").map(|s| s.to_string()),
    })
}

/// Parses a comma-separated list of numbers for flag `key`.
fn parse_number_list<T: std::str::FromStr>(key: &str, value: &str) -> Result<Vec<T>, CliError> {
    let items: Vec<T> = value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_number(key, s))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(CliError::Usage(format!(
            "flag --{key} expects a non-empty comma-separated list, got '{value}'"
        )));
    }
    Ok(items)
}

fn parse_convert(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(rest, &["input", "output"])?;
    Ok(Command::Convert {
        input: required(&map, "input")?.to_string(),
        output: required(&map, "output")?.to_string(),
    })
}

fn parse_sweep(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(
        rest,
        &[
            "family",
            "n",
            "input",
            "k",
            "max-weight",
            "algorithms",
            "seeds",
            "base-seed",
            "threads",
            "enumerator",
            "strategy",
            "trace",
        ],
    )?;
    let algorithms = match map.get("algorithms") {
        Some(value) => {
            let names: Vec<&str> = value.split(',').filter(|s| !s.is_empty()).collect();
            if names.is_empty() {
                return Err(CliError::Usage(format!(
                    "flag --algorithms expects a non-empty comma-separated list, got '{value}'"
                )));
            }
            names
                .into_iter()
                .map(parse_algorithm)
                .collect::<Result<_, _>>()?
        }
        None => vec![Algorithm::KEcss],
    };
    let source = match map.get("input") {
        Some(path) => {
            if map.contains_key("family") || map.contains_key("n") {
                return Err(CliError::Usage(
                    "sweep takes either --input FILE or --family/--n, not both".into(),
                ));
            }
            SweepSource::File(path.to_string())
        }
        None => SweepSource::Grid {
            family: parse_family(required(&map, "family")?)?,
            ns: parse_number_list("n", required(&map, "n")?)?,
        },
    };
    Ok(Command::Sweep {
        source,
        k: number_or(&map, "k", 2)?,
        max_weight: number_or(&map, "max-weight", 1)?,
        algorithms,
        seeds: number_or(&map, "seeds", 1)?,
        base_seed: number_or(&map, "base-seed", 1)?,
        threads: number_or(&map, "threads", 1)?,
        enumerator: enumerator_flag(&map)?,
        trace: map.get("trace").map(|s| s.to_string()),
    })
}

/// Parses an optional boolean flag (`--flag true|false`); absent means
/// `false`. Every flag takes a value in this CLI, so a bare `--shutdown`
/// already errors in `flag_map`; this additionally rejects values other than
/// `true`/`false` instead of treating them all as `true` (a templated
/// `--shutdown "$FLAG"` with `FLAG=false` must not shut a server down).
fn parse_bool_flag(
    map: &std::collections::HashMap<&str, &str>,
    key: &str,
) -> Result<bool, CliError> {
    match map.get(key) {
        None => Ok(false),
        Some(&"true") => Ok(true),
        Some(&"false") => Ok(false),
        Some(other) => Err(CliError::Usage(format!(
            "flag --{key} expects 'true' or 'false', got '{other}'"
        ))),
    }
}

fn parse_serve(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(
        rest,
        &[
            "role",
            "addr",
            "threads",
            "queue-depth",
            "max-requests-per-conn",
            "write-queue-limit",
            "coordinator",
            "worker-id",
            "heartbeat-ms",
            "advertise",
            "heartbeat-timeout-ms",
            "max-retries",
        ],
    )?;
    // Role-specific flags on the wrong role are almost certainly a mistake
    // (a worker flag silently ignored by a coordinator would strand the
    // worker); refuse them instead of guessing.
    let reject = |flags: &[&str], role: &str| -> Result<(), CliError> {
        match flags.iter().find(|flag| map.contains_key(*flag)) {
            Some(flag) => Err(CliError::Usage(format!(
                "flag --{flag} does not apply to --role {role}"
            ))),
            None => Ok(()),
        }
    };
    const WORKER_FLAGS: [&str; 4] = ["coordinator", "worker-id", "heartbeat-ms", "advertise"];
    let millis = |key, default| number_or(&map, key, default).map(Duration::from_millis);
    let role = match map.get("role").copied().unwrap_or("standalone") {
        "standalone" => {
            reject(&WORKER_FLAGS, "standalone")?;
            reject(&["heartbeat-timeout-ms", "max-retries"], "standalone")?;
            Role::Standalone
        }
        "coordinator" => {
            // The coordinator solves nothing itself: `--threads` sizes a
            // standalone server's or a worker's scheduler.
            reject(&WORKER_FLAGS, "coordinator")?;
            reject(&["threads"], "coordinator")?;
            Role::Coordinator {
                heartbeat_timeout: millis("heartbeat-timeout-ms", 3000)?,
                max_retries: number_or(&map, "max-retries", 5)?,
            }
        }
        "worker" => {
            // The coordinator sends every job over one connection: a
            // per-connection request limit would cut that link every N jobs,
            // and the worker sizes its write-queue bound from its depth.
            reject(
                &[
                    "heartbeat-timeout-ms",
                    "max-retries",
                    "max-requests-per-conn",
                    "write-queue-limit",
                ],
                "worker",
            )?;
            Role::Worker {
                coordinator: required(&map, "coordinator")?.to_string(),
                worker_id: map.get("worker-id").unwrap_or(&"").to_string(),
                heartbeat_interval: millis("heartbeat-ms", 500)?,
                advertise: match map.get("advertise") {
                    Some(v) => parse_dialable("advertise", v)?,
                    None => String::new(),
                },
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "flag --role expects 'standalone', 'coordinator' or 'worker', got '{other}'"
            )))
        }
    };
    // A worker defaults to an ephemeral port (many per host); the other
    // roles keep the established default service port.
    let defaults = ServerConfig::default();
    let default_addr = match role {
        Role::Worker { .. } => "127.0.0.1:0",
        _ => &defaults.addr,
    };
    Ok(Command::Serve(ServerConfig {
        addr: map.get("addr").copied().unwrap_or(default_addr).to_string(),
        threads: number_or(&map, "threads", defaults.threads)?,
        queue_depth: number_or(&map, "queue-depth", defaults.queue_depth)?,
        max_requests_per_conn: number_or(
            &map,
            "max-requests-per-conn",
            defaults.max_requests_per_conn,
        )?,
        write_queue_limit: number_or(&map, "write-queue-limit", defaults.write_queue_limit)?,
        role,
    }))
}

fn parse_fleet_status(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(rest, &["addr"])?;
    Ok(Command::FleetStatus {
        addr: required(&map, "addr")?.to_string(),
    })
}

fn parse_submit(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(
        rest,
        &[
            "addr",
            "shutdown",
            "metrics",
            "instance",
            "k",
            "algorithm",
            "enumerator",
            "strategy",
            "seed",
            "no-wait",
            "timeout-secs",
            "payload-only",
            "binary",
        ],
    )?;
    let addr = required(&map, "addr")?.to_string();
    if parse_bool_flag(&map, "shutdown")? {
        return Ok(Command::Submit {
            addr,
            action: SubmitAction::Shutdown,
        });
    }
    if parse_bool_flag(&map, "metrics")? {
        return Ok(Command::Submit {
            addr,
            action: SubmitAction::Metrics,
        });
    }
    let instance = InstanceSpec::parse(required(&map, "instance")?).map_err(CliError::Usage)?;
    let k = number_or(&map, "k", 2)?;
    // What a server would refuse is refused before connecting, in both wire
    // modes: a frame cannot carry a k past u32.
    instance.admit(k).map_err(CliError::Usage)?;
    Ok(Command::Submit {
        addr,
        action: SubmitAction::Job {
            instance,
            k,
            algorithm: map
                .get("algorithm")
                .map(|v| parse_algorithm(v))
                .transpose()?
                .unwrap_or(Algorithm::KEcss),
            enumerator: enumerator_flag(&map)?,
            seed: number_or(&map, "seed", 1)?,
            no_wait: parse_bool_flag(&map, "no-wait")?,
            timeout_secs: number_or(&map, "timeout-secs", 600)?,
            payload_only: parse_bool_flag(&map, "payload-only")?,
            binary: parse_bool_flag(&map, "binary")?,
        },
    })
}

fn parse_verify(rest: &[&String]) -> Result<Command, CliError> {
    let map = flag_map(rest, &["input", "solution", "k"])?;
    Ok(Command::Verify {
        input: required(&map, "input")?.to_string(),
        solution: required(&map, "solution")?.to_string(),
        k: parse_number("k", required(&map, "k")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help_map_to_help() {
        assert_eq!(parse(&argv(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&argv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn generate_with_defaults() {
        let cmd = parse(&argv(&[
            "generate", "--family", "random", "--n", "64", "--output", "g.graph",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                family: Family::Random,
                n: 64,
                k: 2,
                max_weight: 1,
                seed: 1,
                output: "g.graph".into(),
            }
        );
    }

    #[test]
    fn generate_with_all_flags() {
        let cmd = parse(&argv(&[
            "generate",
            "--family",
            "ring",
            "--n",
            "120",
            "--k",
            "3",
            "--max-weight",
            "50",
            "--seed",
            "9",
            "--output",
            "x.graph",
        ]))
        .unwrap();
        match cmd {
            Command::Generate {
                family,
                n,
                k,
                max_weight,
                seed,
                ..
            } => {
                assert_eq!(family, Family::RingOfCliques);
                assert_eq!((n, k, max_weight, seed), (120, 3, 50, 9));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn solve_parses_algorithms() {
        for (name, expected) in [
            ("2ecss", Algorithm::TwoEcss),
            ("kecss", Algorithm::KEcss),
            ("3ecss", Algorithm::ThreeEcss),
            ("3ecss-weighted", Algorithm::ThreeEcssWeighted),
            ("greedy", Algorithm::Greedy),
            ("thurimella", Algorithm::Thurimella),
            ("mst", Algorithm::MstOnly),
        ] {
            let cmd = parse(&argv(&["solve", "--input", "g.graph", "--algorithm", name])).unwrap();
            match cmd {
                Command::Solve { algorithm, k, .. } => {
                    assert_eq!(algorithm, expected);
                    assert_eq!(k, 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn solve_parses_threads() {
        let cmd = parse(&argv(&[
            "solve",
            "--input",
            "g.graph",
            "--algorithm",
            "kecss",
            "--threads",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Solve { threads, .. } => assert_eq!(threads, 4),
            other => panic!("unexpected {other:?}"),
        }
        // Default is 1 (sequential).
        match parse(&argv(&["solve", "--input", "g", "--algorithm", "mst"])).unwrap() {
            Command::Solve { threads, .. } => assert_eq!(threads, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sweep_parses_grid_dimensions() {
        let cmd = parse(&argv(&[
            "sweep",
            "--family",
            "random",
            "--n",
            "32,48,64",
            "--k",
            "2",
            "--algorithms",
            "2ecss,greedy",
            "--seeds",
            "3",
            "--base-seed",
            "7",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                source: SweepSource::Grid {
                    family: Family::Random,
                    ns: vec![32, 48, 64],
                },
                k: 2,
                max_weight: 1,
                algorithms: vec![Algorithm::TwoEcss, Algorithm::Greedy],
                seeds: 3,
                base_seed: 7,
                threads: 4,
                enumerator: EnumeratorPolicy::Auto,
                trace: None,
            }
        );
    }

    #[test]
    fn sweep_parses_file_source() {
        let cmd = parse(&argv(&["sweep", "--input", "big.graphb", "--k", "2"])).unwrap();
        match cmd {
            Command::Sweep { source, k, .. } => {
                assert_eq!(source, SweepSource::File("big.graphb".into()));
                assert_eq!(k, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --input excludes the grid flags.
        assert!(parse(&argv(&[
            "sweep", "--input", "a.graph", "--family", "random", "--n", "8"
        ]))
        .is_err());
        assert!(parse(&argv(&["sweep", "--input", "a.graph", "--n", "8"])).is_err());
    }

    #[test]
    fn convert_requires_both_paths() {
        assert_eq!(
            parse(&argv(&[
                "convert", "--input", "a.graph", "--output", "a.graphb"
            ]))
            .unwrap(),
            Command::Convert {
                input: "a.graph".into(),
                output: "a.graphb".into(),
            }
        );
        assert!(parse(&argv(&["convert", "--input", "a.graph"])).is_err());
        assert!(parse(&argv(&["convert", "--output", "a.graphb"])).is_err());
    }

    #[test]
    fn solve_and_sweep_parse_enumerator() {
        for (name, expected) in [
            ("exact", EnumeratorPolicy::Exact),
            ("label", EnumeratorPolicy::Label),
            ("contract", EnumeratorPolicy::Contract),
            ("ks", EnumeratorPolicy::Ks),
            ("auto", EnumeratorPolicy::Auto),
        ] {
            // --strategy is an exact alias of --enumerator.
            for flag in ["--enumerator", "--strategy"] {
                let cmd = parse(&argv(&[
                    "solve",
                    "--input",
                    "g.graph",
                    "--algorithm",
                    "kecss",
                    flag,
                    name,
                ]))
                .unwrap();
                match cmd {
                    Command::Solve { enumerator, .. } => {
                        assert_eq!(enumerator, expected, "{flag} {name}")
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // Passing both spellings at once is rejected.
        assert!(parse(&argv(&[
            "solve",
            "--input",
            "g.graph",
            "--algorithm",
            "kecss",
            "--enumerator",
            "ks",
            "--strategy",
            "ks",
        ]))
        .is_err());
        // Default is auto.
        match parse(&argv(&["solve", "--input", "g", "--algorithm", "kecss"])).unwrap() {
            Command::Solve { enumerator, .. } => assert_eq!(enumerator, EnumeratorPolicy::Auto),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(&[
            "sweep",
            "--family",
            "hypercube",
            "--n",
            "64",
            "--enumerator",
            "contract",
        ]))
        .unwrap()
        {
            Command::Sweep {
                source, enumerator, ..
            } => {
                assert_eq!(
                    source,
                    SweepSource::Grid {
                        family: Family::Hypercube,
                        ns: vec![64],
                    }
                );
                assert_eq!(enumerator, EnumeratorPolicy::Contract);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv(&[
            "solve",
            "--input",
            "g",
            "--algorithm",
            "kecss",
            "--enumerator",
            "magic"
        ]))
        .is_err());
    }

    #[test]
    fn generate_parses_hypercube_family() {
        let cmd = parse(&argv(&[
            "generate",
            "--family",
            "hypercube",
            "--n",
            "64",
            "--output",
            "q.graph",
        ]))
        .unwrap();
        match cmd {
            Command::Generate { family, n, .. } => {
                assert_eq!(family, Family::Hypercube);
                assert_eq!(n, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sweep_defaults_and_errors() {
        let cmd = parse(&argv(&["sweep", "--family", "torus", "--n", "64"])).unwrap();
        match cmd {
            Command::Sweep {
                source,
                k,
                algorithms,
                seeds,
                base_seed,
                threads,
                ..
            } => {
                assert_eq!(
                    source,
                    SweepSource::Grid {
                        family: Family::Torus,
                        ns: vec![64],
                    }
                );
                assert_eq!(k, 2);
                assert_eq!(algorithms, vec![Algorithm::KEcss]);
                assert_eq!((seeds, base_seed, threads), (1, 1, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv(&["sweep", "--n", "8"])).is_err());
        assert!(parse(&argv(&["sweep", "--family", "random", "--n", ","])).is_err());
        assert!(parse(&argv(&[
            "sweep",
            "--family",
            "random",
            "--n",
            "8",
            "--algorithms",
            "magic"
        ]))
        .is_err());
    }

    #[test]
    fn verify_requires_all_flags() {
        let err = parse(&argv(&["verify", "--input", "g.graph"])).unwrap_err();
        assert!(err.to_string().contains("--solution") || err.to_string().contains("missing"));
        let ok = parse(&argv(&[
            "verify",
            "--input",
            "g.graph",
            "--solution",
            "s.edges",
            "--k",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            ok,
            Command::Verify {
                input: "g.graph".into(),
                solution: "s.edges".into(),
                k: 3
            }
        );
    }

    #[test]
    fn serve_parses_with_defaults_and_flags() {
        assert_eq!(
            parse(&argv(&["serve"])).unwrap(),
            Command::Serve(ServerConfig {
                addr: "127.0.0.1:7461".into(),
                threads: 1,
                queue_depth: 16,
                max_requests_per_conn: 0,
                write_queue_limit: 16 << 20,
                role: Role::Standalone,
            })
        );
        assert_eq!(
            parse(&argv(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "4",
                "--queue-depth",
                "32",
                "--max-requests-per-conn",
                "100",
                "--write-queue-limit",
                "104857600",
            ]))
            .unwrap(),
            Command::Serve(ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 4,
                queue_depth: 32,
                max_requests_per_conn: 100,
                write_queue_limit: 100 << 20,
                role: Role::Standalone,
            })
        );
        assert!(parse(&argv(&["serve", "--threads", "x"])).is_err());
    }

    #[test]
    fn serve_roles_parse_with_their_flags() {
        assert_eq!(
            parse(&argv(&[
                "serve",
                "--role",
                "coordinator",
                "--heartbeat-timeout-ms",
                "1500",
                "--max-retries",
                "2",
            ]))
            .unwrap(),
            Command::Serve(ServerConfig {
                addr: "127.0.0.1:7461".into(),
                threads: 1,
                queue_depth: 16,
                max_requests_per_conn: 0,
                write_queue_limit: 16 << 20,
                role: Role::Coordinator {
                    heartbeat_timeout: Duration::from_millis(1500),
                    max_retries: 2,
                },
            })
        );
        // A worker defaults to an ephemeral port and requires --coordinator.
        assert_eq!(
            parse(&argv(&[
                "serve",
                "--role",
                "worker",
                "--coordinator",
                "127.0.0.1:7460",
                "--worker-id",
                "w1",
            ]))
            .unwrap(),
            Command::Serve(ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 1,
                queue_depth: 16,
                max_requests_per_conn: 0,
                write_queue_limit: 16 << 20,
                role: Role::Worker {
                    coordinator: "127.0.0.1:7460".into(),
                    worker_id: "w1".into(),
                    heartbeat_interval: Duration::from_millis(500),
                    advertise: String::new(),
                },
            })
        );
        // The coordinator's one link to a worker carries every job: a
        // request limit would cut it every N jobs, and the worker sizes its
        // write-queue bound from its depth. Both flags are refused.
        for flag in ["max-requests-per-conn", "write-queue-limit"] {
            let limited = parse(&argv(&[
                "serve",
                "--role",
                "worker",
                "--coordinator",
                "127.0.0.1:7460",
                &format!("--{flag}"),
                "4096",
            ]));
            assert!(
                matches!(&limited, Err(CliError::Usage(m)) if m.contains(flag)),
                "{limited:?}"
            );
        }
        assert!(parse(&argv(&["serve", "--role", "worker"])).is_err());
        assert!(parse(&argv(&["serve", "--role", "manager"])).is_err());
        // Role-specific flags on the wrong role are refused, not ignored.
        assert!(parse(&argv(&["serve", "--heartbeat-ms", "100"])).is_err());
        assert!(parse(&argv(&[
            "serve",
            "--role",
            "coordinator",
            "--coordinator",
            "127.0.0.1:7460"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "serve",
            "--role",
            "worker",
            "--coordinator",
            "x:1",
            "--max-retries",
            "3"
        ]))
        .is_err());
    }

    #[test]
    fn a_worker_advertises_only_a_dialable_address() {
        let worker = |advertise: &str| {
            parse(&argv(&[
                "serve",
                "--role",
                "worker",
                "--coordinator",
                "127.0.0.1:7460",
                "--advertise",
                advertise,
            ]))
        };
        for ok in ["worker-a:7461", "10.0.0.7:9000", "[::1]:7461"] {
            let Ok(Command::Serve(ServerConfig {
                role: Role::Worker { advertise, .. },
                ..
            })) = worker(ok)
            else {
                panic!("`{ok}` must parse");
            };
            assert_eq!(advertise, ok);
        }
        for bad in [
            "127.0.0.1:0",
            "worker-a",
            "worker-a:",
            ":7461",
            "h:70000",
            "h:x",
        ] {
            let refused = worker(bad);
            assert!(
                matches!(&refused, Err(CliError::Usage(m)) if m.contains("--advertise")),
                "`{bad}`: {refused:?}"
            );
        }
    }

    #[test]
    fn fleet_status_requires_an_addr() {
        assert_eq!(
            parse(&argv(&["fleet-status", "--addr", "127.0.0.1:7460"])).unwrap(),
            Command::FleetStatus {
                addr: "127.0.0.1:7460".into(),
            }
        );
        assert!(parse(&argv(&["fleet-status"])).is_err());
    }

    #[test]
    fn submit_parses_jobs_and_shutdown() {
        let cmd = parse(&argv(&[
            "submit",
            "--addr",
            "127.0.0.1:7461",
            "--instance",
            "hypercube:64",
            "--k",
            "6",
            "--enumerator",
            "auto",
            "--seed",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Submit {
                addr,
                action:
                    SubmitAction::Job {
                        instance,
                        k,
                        algorithm,
                        enumerator,
                        seed,
                        no_wait,
                        timeout_secs,
                        payload_only,
                        binary,
                    },
            } => {
                assert_eq!(addr, "127.0.0.1:7461");
                assert_eq!(instance.canonical(), "hypercube:64");
                assert_eq!((k, seed), (6, 3));
                assert_eq!(algorithm, Algorithm::KEcss);
                assert_eq!(enumerator, EnumeratorPolicy::Auto);
                assert!(!no_wait);
                assert_eq!(timeout_secs, 600);
                assert!(!payload_only);
                assert!(!binary);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&argv(&[
                "submit",
                "--addr",
                "127.0.0.1:7461",
                "--shutdown",
                "true"
            ]))
            .unwrap(),
            Command::Submit {
                addr: "127.0.0.1:7461".into(),
                action: SubmitAction::Shutdown,
            }
        );
        // Boolean flags take a literal true/false: '--shutdown false' must
        // NOT shut the server down, and junk values are usage errors.
        match parse(&argv(&[
            "submit",
            "--addr",
            "x:1",
            "--instance",
            "ring:20",
            "--shutdown",
            "false",
        ]))
        .unwrap()
        {
            Command::Submit {
                action: SubmitAction::Job { .. },
                ..
            } => {}
            other => panic!("--shutdown false must submit a job, got {other:?}"),
        }
        assert!(parse(&argv(&["submit", "--addr", "x:1", "--shutdown", "maybe"])).is_err());
        assert!(parse(&argv(&[
            "submit",
            "--addr",
            "x:1",
            "--instance",
            "ring:20",
            "--no-wait",
            "yes"
        ]))
        .is_err());
        // --addr and --instance are required (unless shutting down).
        assert!(parse(&argv(&["submit", "--instance", "ring:20"])).is_err());
        assert!(parse(&argv(&["submit", "--addr", "x:1"])).is_err());
        assert!(parse(&argv(&["submit", "--addr", "x:1", "--instance", "nope:20"])).is_err());
    }

    #[test]
    fn malformed_flags_are_usage_errors() {
        assert!(parse(&argv(&["generate", "oops"])).is_err());
        assert!(parse(&argv(&["generate", "--n"])).is_err());
        assert!(parse(&argv(&[
            "generate", "--family", "nope", "--n", "8", "--output", "x"
        ]))
        .is_err());
        assert!(parse(&argv(&["solve", "--input", "g", "--algorithm", "magic"])).is_err());
        assert!(parse(&argv(&[
            "solve",
            "--input",
            "g",
            "--algorithm",
            "2ecss",
            "--k",
            "abc"
        ]))
        .is_err());
        assert!(parse(&argv(&["nonsense"])).is_err());
        // A flag the command does not read is refused, naming the flag, so
        // a typo cannot fall back to a default unnoticed.
        for (line, typo) in [
            ("generate --family ring --n 8 --output x --sede 3", "--sede"),
            (
                "solve --input g --algorithm kecss --k 2 --enumarator ks --thraeds 4",
                "--enumarator",
            ),
            ("verify --input g --solution s --k 2 --kk 3", "--kk"),
            (
                "convert --input a.graph --output b.graphb --famliy ring",
                "--famliy",
            ),
            ("sweep --family ring --n 8,16 --seed 4", "--seed"),
            ("serve --queue-dpeth 4", "--queue-dpeth"),
            (
                "submit --addr x:1 --instance ring:20 --k 2 --timeout 5",
                "--timeout",
            ),
            ("fleet-status --addr x:1 --watch true", "--watch"),
            // What a server would refuse, `submit` refuses before it
            // connects, in both wire modes.
            (
                "submit --addr x:1 --instance ring:20 --k 1000000",
                "vertex count 3000006",
            ),
            (
                "submit --addr x:1 --instance random:1048576 --k 1000 --binary true",
                "edge count",
            ),
            (
                "submit --addr x:1 --instance ring:20 --k 4294967298 --binary true",
                "k = 4294967298",
            ),
        ] {
            let parsed = parse(&argv(&line.split(' ').collect::<Vec<_>>()));
            assert!(
                matches!(&parsed, Err(CliError::Usage(m)) if m.contains(typo)),
                "{line}: {parsed:?}"
            );
        }
        // The coordinator solves nothing itself, so it has no --threads.
        let parsed = parse(&argv(&["serve", "--role", "coordinator", "--threads", "4"]));
        assert!(
            matches!(&parsed, Err(CliError::Usage(m)) if m.contains("threads")),
            "{parsed:?}"
        );
    }

    #[test]
    fn every_flag_in_the_usage_text_is_accepted() {
        for line in USAGE
            .lines()
            .filter_map(|l| l.trim().strip_prefix("kecss "))
        {
            let words: Vec<&str> = line
                .split_whitespace()
                .map(|w| w.trim_matches(|c| matches!(c, '[' | ']' | '(' | ')' | '|')))
                .collect();
            let mut args = vec![words[0]];
            for pair in words.windows(2).filter(|p| p[0].starts_with("--")) {
                // Placeholders get a value of the right shape; literals
                // (`--role coordinator`, `--metrics true`) stay.
                args.extend([
                    pair[0],
                    if pair[1].starts_with('<') {
                        "1"
                    } else {
                        pair[1]
                    },
                ]);
            }
            let parsed = parse(&argv(&args));
            assert!(
                !matches!(&parsed, Err(CliError::Usage(m)) if m.contains("unknown flag")),
                "{line}: {parsed:?}"
            );
        }
    }
}
