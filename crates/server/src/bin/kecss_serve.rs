//! Standalone service binary: `kecss_serve [--role standalone|coordinator|
//! worker] [--addr A] ...`. The `kecss serve` CLI subcommand is the same
//! service with the rest of the toolchain around it; this binary exists so a
//! deployment (e.g. `deployment/docker-compose.yml`) can ship the service
//! alone in any of the three fleet roles.

use kecss_server::coordinator::{fleet_summary_line, Coordinator, CoordinatorConfig};
use kecss_server::server::{summary_line, Server, ServerConfig};
use kecss_server::worker::{Worker, WorkerConfig};
use std::io::Write;
use std::time::Duration;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag} expects a number")))
}

fn main() {
    let mut role = "standalone".to_string();
    let mut addr: Option<String> = None;
    let mut threads: usize = 1;
    let mut queue_depth: usize = 16;
    let mut max_requests_per_conn: Option<usize> = None;
    let mut write_queue_limit: Option<usize> = None;
    let mut coordinator_addr = "127.0.0.1:7460".to_string();
    let mut worker_id = String::new();
    let mut advertise = String::new();
    let mut heartbeat_ms: u64 = 500;
    let mut heartbeat_timeout_ms: u64 = 3000;
    let mut max_retries: u32 = 5;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let need = |v: Option<&str>, flag: &str| -> String {
            v.unwrap_or_else(|| fail(&format!("flag {flag} is missing a value")))
                .to_string()
        };
        match args[i].as_str() {
            "--role" => role = need(value, "--role"),
            "--addr" => addr = Some(need(value, "--addr")),
            "--threads" => threads = parse_num("--threads", &need(value, "--threads")),
            "--queue-depth" => {
                queue_depth = parse_num("--queue-depth", &need(value, "--queue-depth"));
            }
            "--max-requests-per-conn" => {
                max_requests_per_conn = Some(parse_num(
                    "--max-requests-per-conn",
                    &need(value, "--max-requests-per-conn"),
                ));
            }
            "--write-queue-limit" => {
                write_queue_limit = Some(parse_num(
                    "--write-queue-limit",
                    &need(value, "--write-queue-limit"),
                ));
            }
            "--coordinator" => coordinator_addr = need(value, "--coordinator"),
            "--worker-id" => worker_id = need(value, "--worker-id"),
            "--advertise" => advertise = need(value, "--advertise"),
            "--heartbeat-ms" => {
                heartbeat_ms = parse_num("--heartbeat-ms", &need(value, "--heartbeat-ms"));
            }
            "--heartbeat-timeout-ms" => {
                heartbeat_timeout_ms = parse_num(
                    "--heartbeat-timeout-ms",
                    &need(value, "--heartbeat-timeout-ms"),
                );
            }
            "--max-retries" => {
                max_retries = parse_num("--max-retries", &need(value, "--max-retries"));
            }
            "--help" | "-h" => {
                println!(
                    "kecss_serve — long-running k-ECSS solver service\n\n\
                     USAGE: kecss_serve [--role standalone|coordinator|worker]\n\
                     \u{20}                  [--addr HOST:PORT] [--threads T] [--queue-depth Q]\n\
                     \u{20}                  [--max-requests-per-conn N] [--write-queue-limit BYTES]\n\
                     \u{20}                  [--coordinator HOST:PORT] [--worker-id ID] [--advertise HOST:PORT]\n\
                     \u{20}                  [--heartbeat-ms MS]\n\
                     \u{20}                  [--heartbeat-timeout-ms MS] [--max-retries R]\n\n\
                     Protocol: see DESIGN.md §9, §11 and §13 \
                     (SUBMIT/STATUS/RESULT/CANCEL/METRICS/HEARTBEAT/FLEET/SHUTDOWN)."
                );
                return;
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    match role.as_str() {
        "standalone" => {
            let config = ServerConfig {
                addr: addr.unwrap_or_else(|| "127.0.0.1:7461".into()),
                threads,
                queue_depth,
                max_requests_per_conn: max_requests_per_conn.unwrap_or(0),
                write_queue_limit: write_queue_limit.unwrap_or(16 << 20),
            };
            let server = match Server::bind(&config) {
                Ok(server) => server,
                Err(e) => fail(&format!("cannot bind {}: {e}", config.addr)),
            };
            println!(
                "kecss_serve listening on {} (threads={}, queue-depth={})",
                server.local_addr(),
                config.threads.max(1),
                config.queue_depth.max(1)
            );
            let _ = std::io::stdout().flush();
            let summary = server.run();
            println!("{}", summary_line(&summary));
        }
        "coordinator" => {
            let config = CoordinatorConfig {
                addr: addr.unwrap_or_else(|| "127.0.0.1:7460".into()),
                queue_depth,
                heartbeat_timeout: Duration::from_millis(heartbeat_timeout_ms.max(1)),
                max_retries,
                max_requests_per_conn: max_requests_per_conn.unwrap_or(0),
                write_queue_limit: write_queue_limit.unwrap_or(16 << 20),
            };
            let coordinator = match Coordinator::bind(&config) {
                Ok(coordinator) => coordinator,
                Err(e) => fail(&format!("cannot bind {}: {e}", config.addr)),
            };
            println!(
                "kecss_serve coordinator listening on {} (queue-depth={}, \
                 heartbeat-timeout={heartbeat_timeout_ms}ms, max-retries={max_retries})",
                coordinator.local_addr(),
                config.queue_depth.max(1),
            );
            let _ = std::io::stdout().flush();
            let summary = coordinator.run();
            println!("{}", fleet_summary_line(&summary));
        }
        "worker" => {
            // The coordinator sends every job over one connection: a request
            // limit would cut it every N jobs, and the worker sizes its
            // write-queue bound from its depth.
            for (flag, set) in [
                ("--max-requests-per-conn", max_requests_per_conn.is_some()),
                ("--write-queue-limit", write_queue_limit.is_some()),
            ] {
                if set {
                    fail(&format!("{flag} does not apply to --role worker"));
                }
            }
            let config = WorkerConfig {
                addr: addr.unwrap_or_else(|| "127.0.0.1:0".into()),
                coordinator: coordinator_addr.clone(),
                worker_id,
                threads,
                queue_depth,
                heartbeat_interval: Duration::from_millis(heartbeat_ms.max(1)),
                advertise,
            };
            let worker = match Worker::bind(&config) {
                Ok(worker) => worker,
                Err(e) => fail(&format!("cannot bind {}: {e}", config.addr)),
            };
            println!(
                "kecss_serve worker {} listening on {} (coordinator={coordinator_addr}, \
                 heartbeat={heartbeat_ms}ms, threads={}, queue-depth={})",
                worker.worker_id(),
                worker.local_addr(),
                config.threads.max(1),
                config.queue_depth.max(1)
            );
            let _ = std::io::stdout().flush();
            let summary = worker.run();
            println!("{}", summary_line(&summary));
        }
        other => fail(&format!(
            "--role expects 'standalone', 'coordinator' or 'worker', got '{other}'"
        )),
    }
}
