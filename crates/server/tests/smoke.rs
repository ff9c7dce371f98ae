//! Crate seam smoke test: a real server on an ephemeral port, one job end to
//! end, clean shutdown, and jobs the solver refuses (a graph below k, a
//! disconnected graph) answered with its error.
//! (The workspace-level `tests/service.rs` suite covers concurrency,
//! backpressure, cancellation and malformed requests.)

use kecss_server::client::{Client, ClientError};
use kecss_server::protocol::Request;
use kecss_server::server::{Server, ServerConfig};
use std::time::Duration;

#[test]
fn submit_solve_fetch_shutdown() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let handle = server.spawn();
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    let Request::Submit(spec) = Request::parse("SUBMIT harary:12 3 kecss auto 7").unwrap() else {
        unreachable!()
    };
    let id = client.submit(&spec).unwrap().expect("queue has room");
    let payload = client.wait_result(id, Duration::from_secs(120)).unwrap();
    let text = String::from_utf8(payload).unwrap();
    assert!(text.contains("verified k=3 yes"), "{text}");
    assert!(text.contains("spec harary:12 3 kecss auto 7"), "{text}");
    assert_eq!(client.status(id).unwrap(), "DONE");

    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 0);
}

#[test]
fn greedy_jobs_the_solver_refuses_fail_with_its_error() {
    let handle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    // A 6-cycle is exactly 2-edge-connected.
    let cycle = "inline:6:0-1-1,1-2-1,2-3-1,3-4-1,4-5-1,5-0-1";
    for (k, error) in [
        (
            3,
            "input graph is only 2-edge-connected but the problem requires \
             3-edge-connectivity",
        ),
        (0, "connectivity target k must be at least 1"),
    ] {
        let line = format!("SUBMIT {cycle} {k} greedy auto 1");
        let Request::Submit(spec) = Request::parse(&line).unwrap() else {
            unreachable!()
        };
        let id = client.submit(&spec).unwrap().expect("queue has room");
        match client.wait_result(id, Duration::from_secs(120)) {
            Err(ClientError::Server(message)) => {
                assert_eq!(message, format!("job {id} failed: {error}"));
            }
            other => panic!("k = {k}: expected the solver's error, got {other:?}"),
        }
    }
    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!((summary.submitted, summary.failed), (2, 2));
}

#[test]
fn jobs_on_a_disconnected_instance_fail_with_the_solver_error() {
    let handle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn();
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    // Two components: 0-1 and 2-3.
    for (algorithm, k, required) in [
        ("greedy", 2, 2),
        ("greedy", 1, 1),
        ("thurimella", 2, 2),
        ("mst", 2, 1),
    ] {
        let line = format!("SUBMIT inline:4:0-1-1,2-3-1 {k} {algorithm} auto 1");
        let Request::Submit(spec) = Request::parse(&line).unwrap() else {
            unreachable!()
        };
        let id = client.submit(&spec).unwrap().expect("queue has room");
        match client.wait_result(id, Duration::from_secs(120)) {
            Err(ClientError::Server(message)) => assert_eq!(
                message,
                format!(
                    "job {id} failed: input graph is only 0-edge-connected but the problem \
                     requires {required}-edge-connectivity"
                )
            ),
            other => panic!("{line}: expected the solver's error, got {other:?}"),
        }
    }
    client.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!((summary.submitted, summary.failed), (4, 4));
}
