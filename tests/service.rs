//! The workspace service suite: a real `kecss_server` on an ephemeral port,
//! driven through the wire protocol (DESIGN.md §9).
//!
//! Covered here: concurrent submissions returning verified, byte-identical
//! payloads; queue overflow answering `BUSY` without disturbing in-flight
//! jobs; cancellation of queued jobs; malformed requests; and `SHUTDOWN`
//! draining every accepted job before the server exits.

use kecss_server::client::{Client, ClientError};
use kecss_server::protocol::{Request, Response};
use kecss_server::scheduler::Scheduler;
use kecss_server::server::{Server, ServerConfig, ServerHandle};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const POLL: Duration = Duration::from_millis(20);
const DEADLINE: Duration = Duration::from_secs(300);

fn spawn(threads: usize, queue_depth: usize) -> ServerHandle {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn()
}

/// A gate the scheduler's start hook blocks on: lets a test hold job 1 on the
/// scheduler's single worker deterministically (no timing races) while it probes
/// backpressure or cancellation, then release it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Spawns a server whose single worker blocks on `gate` before running job 1.
fn spawn_gated(queue_depth: usize, gate: &Arc<Gate>) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue_depth,
        ..ServerConfig::default()
    };
    let hook_gate = Arc::clone(gate);
    let scheduler = Scheduler::with_start_hook(
        config.threads,
        config.queue_depth,
        Some(Arc::new(move |id| {
            if id == 1 {
                hook_gate.wait();
            }
        })),
    );
    Server::bind_with(&config, scheduler)
        .expect("bind an ephemeral port")
        .spawn()
}

fn submit_spec(client: &mut Client, line: &str) -> u64 {
    let Request::Submit(spec) = Request::parse(line).unwrap() else {
        panic!("not a SUBMIT line: {line}")
    };
    client
        .submit(&spec)
        .unwrap()
        .unwrap_or_else(|depth| panic!("unexpected BUSY (depth {depth}) for {line}"))
}

#[test]
fn concurrent_submissions_return_verified_byte_identical_results() {
    let handle = spawn(2, 32);
    let addr = handle.addr().to_string();
    // A mixed batch: two families, two algorithms, three seeds each. Every
    // spec is submitted twice, concurrently, from separate connections.
    let specs: Vec<String> = [1u64, 2, 3]
        .iter()
        .flat_map(|seed| {
            vec![
                format!("SUBMIT ring:20 2 2ecss auto {seed}"),
                format!("SUBMIT harary:12:9 3 kecss auto {seed}"),
            ]
        })
        .collect();

    let payload_pairs: Vec<(String, Vec<u8>, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|line| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut a = Client::connect(&addr).unwrap();
                    let mut b = Client::connect(&addr).unwrap();
                    let id_a = submit_spec(&mut a, line);
                    let id_b = submit_spec(&mut b, line);
                    let bytes_a = a.wait_result(id_a, DEADLINE).unwrap();
                    let bytes_b = b.wait_result(id_b, DEADLINE).unwrap();
                    (line.clone(), bytes_a, bytes_b)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (line, a, b) in &payload_pairs {
        assert_eq!(a, b, "duplicate submissions of '{line}' must agree");
        let text = String::from_utf8(a.clone()).unwrap();
        assert!(text.contains("verified k="), "{line}: {text}");
        assert!(
            !text.contains(" NO\n"),
            "{line} failed verification: {text}"
        );
    }
    // Distinct specs must not collide.
    let first: Vec<&Vec<u8>> = payload_pairs.iter().map(|(_, a, _)| a).collect();
    for i in 0..first.len() {
        for j in (i + 1)..first.len() {
            assert_ne!(first[i], first[j], "specs {i} and {j} produced equal bytes");
        }
    }

    let mut control = Client::connect(&addr).unwrap();
    control.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.submitted, 2 * specs.len() as u64);
    assert_eq!(summary.completed, 2 * specs.len() as u64);
    assert_eq!(summary.failed, 0);
}

#[test]
fn queue_overflow_returns_busy_without_dropping_inflight_jobs() {
    // One worker held on job 1 by the gate, depth 2: job 2 queues behind it,
    // so the third submission must bounce with BUSY — deterministically.
    let gate = Gate::new();
    let handle = spawn_gated(2, &gate);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let a = submit_spec(&mut client, "SUBMIT harary:16 4 kecss auto 1");
    let b = submit_spec(&mut client, "SUBMIT harary:16 4 kecss auto 2");
    let Request::Submit(third) = Request::parse("SUBMIT ring:20 2 2ecss auto 3").unwrap() else {
        unreachable!()
    };
    match client.submit(&third).unwrap() {
        Err(depth) => assert_eq!(depth, 2, "BUSY must echo the configured depth"),
        Ok(id) => panic!("expected BUSY, got job {id}"),
    }

    // The rejected submission disturbed nothing: both in-flight jobs still
    // produce verified payloads once the gate opens.
    gate.release();
    for id in [a, b] {
        let text = String::from_utf8(client.wait_result(id, DEADLINE).unwrap()).unwrap();
        assert!(text.contains("verified k=4 yes"), "job {id}: {text}");
    }
    // With the queue drained, the same spec is accepted.
    assert!(client.submit(&third).unwrap().is_ok());

    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.submitted, 3);
    assert_eq!(summary.completed, 3);
}

#[test]
fn queued_jobs_can_be_cancelled_and_report_job_cancelled() {
    // One worker held on job 1 by the gate: job 2 stays queued and
    // cancellable for as long as the test needs.
    let gate = Gate::new();
    let handle = spawn_gated(8, &gate);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let a = submit_spec(&mut client, "SUBMIT harary:16 4 kecss auto 5");
    let b = submit_spec(&mut client, "SUBMIT ring:20 2 2ecss auto 5");
    client.cancel(b).expect("a queued job is cancellable");
    assert_eq!(client.status(b).unwrap(), "CANCELLED");
    match client.result(b) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains(&format!("job {b} was cancelled")), "{msg}");
        }
        other => panic!("RESULT of a cancelled job must be an ERR, got {other:?}"),
    }
    // Cancelling twice is an error; the in-flight job is untouched.
    assert!(client.cancel(b).is_err());
    gate.release();
    let text = String::from_utf8(client.wait_result(a, DEADLINE).unwrap()).unwrap();
    assert!(text.contains("verified k=4 yes"), "{text}");

    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.completed, 1);
}

#[test]
fn malformed_requests_get_err_replies_and_do_not_kill_the_connection() {
    let handle = spawn(1, 4);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    for (line, needle) in [
        ("FROBNICATE", "unknown request"),
        ("SUBMIT", "5 fields"),
        ("SUBMIT nope:20 2 kecss auto 1", "unknown family"),
        ("SUBMIT ring:20 2 magic auto 1", "unknown algorithm"),
        ("SUBMIT inline:3:0-1 2 kecss auto 1", "inline edge"),
        ("STATUS notanumber", "malformed job id"),
        ("STATUS 999", "unknown job 999"),
        ("RESULT 999", "unknown job 999"),
        ("CANCEL 999", "unknown job 999"),
        ("SHUTDOWN please", "no arguments"),
    ] {
        match client.request_line(line).unwrap() {
            Response::Err(msg) => assert!(msg.contains(needle), "'{line}': {msg}"),
            other => panic!("'{line}' should be ERR, got {other:?}"),
        }
    }

    // After ten bad requests the same connection still serves a good one.
    let id = submit_spec(
        &mut client,
        "SUBMIT inline:4:0-1-1,1-2-1,2-3-1,3-0-1 2 kecss auto 1",
    );
    let text = String::from_utf8(client.wait_result(id, DEADLINE).unwrap()).unwrap();
    assert!(text.contains("verified k=2 yes"), "{text}");

    // A job-level failure (instance not 3-edge-connected) is an ERR on
    // RESULT, not a dead server.
    let f = submit_spec(
        &mut client,
        "SUBMIT inline:4:0-1-1,1-2-1,2-3-1,3-0-1 3 kecss auto 1",
    );
    loop {
        match client.result(f) {
            Ok(None) => std::thread::sleep(POLL),
            Ok(Some(payload)) => panic!("job {f} should fail, got {payload:?}"),
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains(&format!("job {f} failed")), "{msg}");
                break;
            }
            Err(other) => panic!("unexpected {other}"),
        }
    }

    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.submitted, 2);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 1);
}

#[test]
fn results_are_fetched_once_then_gone() {
    let handle = spawn(1, 4);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let id = submit_spec(&mut client, "SUBMIT ring:20 2 2ecss auto 7");
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert!(!payload.is_empty());
    // The fetch evicted the payload: a repeat RESULT answers GONE, while
    // STATUS still reports the job as DONE.
    match client.request_line(&format!("RESULT {id}")).unwrap() {
        Response::Gone(gone_id) => assert_eq!(gone_id, id),
        other => panic!("second RESULT must be GONE, got {other:?}"),
    }
    assert_eq!(client.status(id).unwrap(), "DONE");
    // The typed helper surfaces GONE as a server error.
    match client.result(id) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("GONE"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }

    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.completed, 1);
}

#[test]
fn file_instances_solve_over_the_wire_in_both_formats() {
    let dir = std::env::temp_dir().join("kecss-service-file-tests");
    std::fs::create_dir_all(&dir).unwrap();
    // One instance, stored in both formats: the jobs must return payloads
    // whose solution lines are identical (identical EdgeId assignment).
    let graph = kecss_server::instance::build_family(
        kecss_server::instance::Family::RingOfCliques,
        24,
        2,
        9,
        3,
    )
    .unwrap();
    let text_path = dir.join("wire.graph");
    let bin_path = dir.join("wire.graphb");
    graphs::io::write_graph(&text_path, &graph).unwrap();
    graphs::io::write_graph(&bin_path, &graph).unwrap();

    let handle = spawn(2, 8);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let fetch = |client: &mut Client, path: &std::path::Path| {
        let id = submit_spec(
            client,
            &format!("SUBMIT file:{} 2 2ecss auto 5", path.display()),
        );
        client.wait_result(id, DEADLINE).unwrap()
    };
    let from_text = fetch(&mut client, &text_path);
    let from_binary = fetch(&mut client, &bin_path);
    // The payloads differ only in the echoed spec line (it names the path);
    // everything else — stats, verdict, rounds, edges — is byte-identical.
    let strip_spec = |bytes: &[u8]| -> Vec<String> {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("spec "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(strip_spec(&from_text), strip_spec(&from_binary));
    let text = String::from_utf8(from_text).unwrap();
    assert!(text.contains("verified k=2 yes"), "{text}");

    // A missing file fails the job with a readable message.
    let missing = submit_spec(
        &mut client,
        "SUBMIT file:/no/such/inst.graph 2 2ecss auto 1",
    );
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        match client.result(missing) {
            Ok(None) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "job {missing} never reached a terminal state"
                );
                std::thread::sleep(POLL);
            }
            Ok(Some(payload)) => panic!("job {missing} should fail, got {payload:?}"),
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("/no/such/inst.graph"), "{msg}");
                break;
            }
            Err(other) => panic!("unexpected {other}"),
        }
    }

    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 1);
}

/// Extracts one series value from a metrics text exposition. `series` must
/// include the label set exactly as rendered (sorted label keys), plus a
/// trailing space, e.g. `server_requests_total{verb="SUBMIT"} `.
fn metric_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn metrics_verb_exposes_job_and_request_counters() {
    let handle = spawn(1, 4);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // The registry is process-global and the other tests in this binary run
    // concurrently, so assert on deltas, never absolutes.
    let before = client.metrics().unwrap();
    let id = submit_spec(&mut client, "SUBMIT ring:20 2 2ecss auto 3");
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert!(!payload.is_empty());
    let after = client.metrics().unwrap();

    assert!(
        after.contains("# TYPE server_jobs_submitted_total counter"),
        "{after}"
    );
    for series in [
        "server_jobs_submitted_total ",
        "server_jobs_total{state=\"completed\"} ",
        "server_requests_total{verb=\"SUBMIT\"} ",
        "server_requests_total{verb=\"METRICS\"} ",
    ] {
        assert!(
            metric_value(&after, series) > metric_value(&before, series),
            "{series} did not advance\nbefore:\n{before}\nafter:\n{after}"
        );
    }
    // A completed job went through the wait/run histograms.
    assert!(
        metric_value(&after, "server_job_run_ns_count ")
            > metric_value(&before, "server_job_run_ns_count "),
        "{after}"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn per_connection_request_limit_answers_err_and_closes() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue_depth: 4,
        max_requests_per_conn: 3,
        ..ServerConfig::default()
    };
    let handle = Server::bind(&config)
        .expect("bind an ephemeral port")
        .spawn();
    let addr = handle.addr().to_string();

    let mut limited = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        // Any request counts, even ones answered with ERR.
        match limited.request_line("STATUS 999999").unwrap() {
            Response::Err(msg) => assert!(msg.contains("unknown job"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }
    // The fourth request trips the limit: a clean ERR, then the connection
    // is closed (the next request sees EOF or a reset).
    match limited.request_line("STATUS 999999") {
        Ok(Response::Err(msg)) => assert!(msg.contains("exceeded 3 requests"), "{msg}"),
        other => panic!("the limit must answer ERR, got {other:?}"),
    }
    assert!(limited.request_line("STATUS 999999").is_err());

    // A fresh connection is unaffected, and the trip was counted.
    let mut fresh = Client::connect(&addr).unwrap();
    let text = fresh.metrics().unwrap();
    assert!(
        metric_value(&text, "server_conn_limit_total{kind=\"requests\"} ") >= 1,
        "{text}"
    );
    fresh.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_drains_accepted_jobs_and_refuses_new_ones() {
    let handle = spawn(2, 16);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Fill the server with work, then shut down without fetching results:
    // the drain must still run every accepted job to completion.
    let mut ids = Vec::new();
    for seed in 0..6u64 {
        ids.push(submit_spec(
            &mut client,
            &format!("SUBMIT ring:20 2 2ecss auto {seed}"),
        ));
    }
    client.shutdown().unwrap();

    // Submissions after SHUTDOWN are refused (on a fresh connection, since
    // the accept loop may answer one last queued connection attempt).
    let Request::Submit(spec) = Request::parse("SUBMIT ring:20 2 2ecss auto 9").unwrap() else {
        unreachable!()
    };
    if let Ok(mut late) = Client::connect(&addr) {
        match late.submit(&spec) {
            Err(_) => {}     // connection refused/reset: fine
            Ok(Err(_)) => {} // BUSY: also a refusal
            Ok(Ok(id)) => panic!("post-shutdown submission was accepted as job {id}"),
        }
    }

    let summary = handle.join();
    assert_eq!(summary.submitted, ids.len() as u64);
    assert_eq!(
        summary.completed,
        ids.len() as u64,
        "SHUTDOWN must drain accepted jobs, not drop them"
    );
    assert_eq!(summary.failed, 0);
}
