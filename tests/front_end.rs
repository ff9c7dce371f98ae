//! The event-driven front-end suite (DESIGN.md §14): both wire modes on one
//! port, at connection counts and client pathologies the readiness loop
//! exists for.
//!
//! Covered here: property-tested byte-identity of text-protocol and `KGW1`
//! binary-frame payloads over the full spec space; thousands of idle
//! connections held open while submissions keep flowing (and the idle
//! connections still answer afterwards); a stalled reader tripping the
//! bounded write queue without wedging anyone else, flooding `METRICS` or
//! left with multi-MB results; multi-MB results queued past the socket
//! buffers arriving byte-exact over both wire modes; the portable `poll(2)`
//! backend serving both modes identically to the platform default; a
//! coordinator and a standalone server answering the verbs they share with
//! the same bytes, on either backend; and request and reply decoders that
//! survive arbitrary, flipped and truncated bytes.

use kecss_server::client::Client;
use kecss_server::protocol::{Request, Response};
use kecss_server::scheduler::Scheduler;
use kecss_server::server::{Backend, Role, Server, ServerConfig, ServerHandle};
use kecss_server::wire;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

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

fn submit_line(client: &mut Client, line: &str) -> u64 {
    let Request::Submit(spec) = Request::parse(line).unwrap() else {
        panic!("not a SUBMIT line: {line}")
    };
    client
        .submit(&spec)
        .unwrap()
        .unwrap_or_else(|depth| panic!("unexpected BUSY (depth {depth}) for {line}"))
}

/// Submits `line` and fetches the payload over an already-connected client.
fn solve_over(client: &mut Client, line: &str) -> Vec<u8> {
    let id = submit_line(client, line);
    client.wait_result(id, DEADLINE).unwrap()
}

/// One shared server for the property test: proptest runs many cases, and a
/// server per case would dominate the runtime. The handle is leaked — the
/// server lives (idle) until the test process exits.
fn shared_server_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let handle = spawn(2, 64);
        let addr = handle.addr().to_string();
        std::mem::forget(handle);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The tentpole identity: for any (instance, k, algorithm, enumerator,
    /// seed), the payload fetched over a `KGW1` binary connection — whose
    /// SUBMIT carried the instance as zero-parse 16-byte edge records — is
    /// byte-identical to the payload the text protocol returns for the same
    /// spec.
    #[test]
    fn binary_and_text_payloads_are_byte_identical(
        n in 5usize..12,
        weights in proptest::collection::vec(1u64..100, 12..13),
        chord_w in 1u64..100,
        algorithm_pick in 0usize..2,
        enumerator_pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let algorithm = ["2ecss", "kecss"][algorithm_pick];
        let enumerator = ["auto", "label", "exact"][enumerator_pick];
        // A weighted ring plus one chord: 2-edge-connected by construction,
        // with enough weight variety to vary the solutions across cases.
        let mut edges: Vec<String> = (0..n)
            .map(|i| format!("{i}-{}-{}", (i + 1) % n, weights[i]))
            .collect();
        edges.push(format!("0-{}-{chord_w}", n / 2));
        let line = format!(
            "SUBMIT inline:{n}:{} 2 {algorithm} {enumerator} {seed}",
            edges.join(",")
        );

        let addr = shared_server_addr();
        let mut text = Client::connect(addr).unwrap();
        let mut binary = Client::connect_binary(addr).unwrap();
        let from_text = solve_over(&mut text, &line);
        let from_binary = solve_over(&mut binary, &line);
        prop_assert_eq!(&from_text, &from_binary, "wire modes disagree for '{}'", line);
        let rendered = String::from_utf8(from_text).unwrap();
        prop_assert!(rendered.contains("verified k=2 yes"), "{}: {}", line, rendered);
    }
}

#[test]
fn wait_flagged_submit_matches_the_two_request_flow() {
    // The binary round-trip saver: one SUBMIT frame with the wait flag set
    // gets the ack and the pushed result — no second request. The text
    // client has no spelling for the flag and falls back to SUBMIT +
    // RESULT WAIT inside the same helper; both produce the identical
    // payload for the same spec.
    let handle = spawn(1, 4);
    let addr = handle.addr().to_string();
    let line = "SUBMIT ring:20 2 2ecss auto 5";
    let Request::Submit(spec) = Request::parse(line).unwrap() else {
        panic!("not a SUBMIT line")
    };

    let mut binary = Client::connect_binary(&addr).unwrap();
    let (first_id, flagged) = binary.submit_wait(&spec, DEADLINE).unwrap().unwrap();
    let mut text = Client::connect(&addr).unwrap();
    let (second_id, fallback) = text.submit_wait(&spec, DEADLINE).unwrap().unwrap();
    assert_ne!(first_id, second_id, "two distinct jobs");
    assert_eq!(flagged, fallback, "wire modes disagree for '{line}'");
    assert!(String::from_utf8(fallback)
        .unwrap()
        .contains("verified k=2 yes"));

    binary.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.submitted, 2);
    assert_eq!(summary.completed, 2);
}

#[test]
fn thousands_of_idle_connections_do_not_starve_submissions() {
    // 5000 held-open connections (the CI fd budget's in-process ceiling; the
    // out-of-process probe in ci/front_end_smoke.sh goes further) with
    // submissions interleaved between every batch of 1000. The submissions
    // must keep completing, and connections idle since the very first batch
    // must still be served afterwards.
    const BATCHES: usize = 5;
    const PER_BATCH: usize = 1000;
    let handle = spawn(2, 16);
    let addr = handle.addr().to_string();

    let mut idle: Vec<TcpStream> = Vec::with_capacity(BATCHES * PER_BATCH);
    let mut payloads = Vec::new();
    for batch in 0..BATCHES {
        for _ in 0..PER_BATCH {
            idle.push(TcpStream::connect(&addr).expect("connect an idle connection"));
        }
        // Alternate wire modes so both share the loop with the idle crowd.
        let mut client = if batch % 2 == 0 {
            Client::connect(&addr).unwrap()
        } else {
            Client::connect_binary(&addr).unwrap()
        };
        payloads.push(solve_over(
            &mut client,
            &format!("SUBMIT ring:20 2 2ecss auto {batch}"),
        ));
    }
    assert_eq!(idle.len(), BATCHES * PER_BATCH);
    // Same spec modulo seed: all verified, first and last batch agree on
    // everything but the echoed seed.
    for payload in &payloads {
        let text = String::from_utf8(payload.clone()).unwrap();
        assert!(text.contains("verified k=2 yes"), "{text}");
    }

    // Connections that sat idle through everything still answer: first-in,
    // middle, and last-in each serve a request after the 5k crowd is up.
    for pick in [0, idle.len() / 2, idle.len() - 1] {
        let conn = &mut idle[pick];
        conn.write_all(b"STATUS 999999\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("ERR unknown job"),
            "idle connection {pick} got '{reply}'"
        );
    }

    drop(idle);
    let mut control = Client::connect(&addr).unwrap();
    control.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.submitted, BATCHES as u64);
    assert_eq!(summary.completed, BATCHES as u64);
}

/// Extracts one series value from a metrics text exposition (label set must
/// match the rendered form exactly, plus a trailing space).
fn metric_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn stalled_reader_is_disconnected_without_wedging_the_loop() {
    // A small write-queue cap (any single well-formed reply fits, the flood
    // below does not), and a client that requests METRICS thousands of times
    // without ever reading a byte. Once the kernel buffers fill, the
    // server's queue for that connection blows past the cap: the policy
    // replaces it with one ERR and closes. Everyone else keeps being served.
    const CAP: usize = 256 << 10;
    let handle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue_depth: 8,
        write_queue_limit: CAP,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn();
    let addr = handle.addr().to_string();

    let mut stalled = TcpStream::connect(&addr).unwrap();
    // ~20k METRICS replies is far beyond any loopback kernel buffering, so
    // the overflow deterministically trips. The server keeps draining our
    // request bytes even after it decides to close (level-triggered input is
    // discarded, not left to spin), so these writes cannot block.
    let flood: Vec<u8> = b"METRICS\n".repeat(20_000);
    stalled.write_all(&flood).unwrap();

    // A healthy connection submits and completes while the stalled one is
    // being evicted — the regression this test pins is the loop wedging here.
    let mut healthy = Client::connect(&addr).unwrap();
    let payload = solve_over(&mut healthy, "SUBMIT ring:20 2 2ecss auto 11");
    let text = String::from_utf8(payload).unwrap();
    assert!(text.contains("verified k=2 yes"), "{text}");

    // The stalled connection was closed on the server's terms: draining it
    // ends in EOF (or a reset once the server dropped it), never a hang.
    stalled
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut sink = [0u8; 64 << 10];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // And the eviction was counted.
    let metrics = healthy.metrics().unwrap();
    assert!(
        metric_value(&metrics, "server_conn_limit_total{kind=\"write\"} ") >= 1,
        "{metrics}"
    );
    healthy.shutdown().unwrap();
    handle.join();
}

/// `SUBMIT` lines of `ring:100000 1 mst` at distinct seeds: a 1.9 MB
/// `RESULT` payload each, and a quick job even in a debug build.
fn large_result_lines(seeds: std::ops::Range<u64>) -> Vec<String> {
    seeds
        .map(|seed| format!("SUBMIT ring:100000 1 mst auto {seed}"))
        .collect()
}

/// The bytes that ask for `lines`' jobs and then their pushed results,
/// the submits first so every ack precedes every result: the jobs get ids
/// `first_id..`.
fn submit_then_wait(lines: &[String], first_id: u64, binary: bool) -> Vec<u8> {
    let waits = (first_id..).take(lines.len()).map(Request::ResultWait);
    let requests: Vec<Request> = lines
        .iter()
        .map(|line| Request::parse(line).unwrap())
        .chain(waits)
        .collect();
    if binary {
        let mut bytes = wire::PREAMBLE.to_vec();
        for request in &requests {
            bytes.extend_from_slice(&wire::encode_request(request));
        }
        bytes
    } else {
        requests
            .iter()
            .map(|request| format!("{}\n", request.to_line()))
            .collect::<String>()
            .into_bytes()
    }
}

#[test]
fn large_results_queued_past_the_socket_buffers_arrive_byte_exact() {
    // One worker runs the jobs in submission order. Each connection asks
    // for five 1.9 MB results before reading a byte, so its queue outgrows
    // the kernel's socket buffers (about 4 MB on loopback) and the server's
    // writes stop part-way through a body; the reader then drains a few
    // bytes at a time. The stream must be exactly the replies the framing
    // renders.
    const READ: usize = 61;
    let handle = spawn(1, 8);
    let addr = handle.addr().to_string();
    let lines = large_result_lines(0..5);
    let payloads: Vec<Arc<Vec<u8>>> = lines
        .iter()
        .map(|line| {
            let Request::Submit(spec) = Request::parse(line).unwrap() else {
                panic!("not a SUBMIT line: {line}")
            };
            Arc::new(kecss_server::job::run(&spec, &kecss_runtime::Executor::Sequential).unwrap())
        })
        .collect();
    let mut next_id = 1;
    for binary in [false, true] {
        let mode = if binary { "KGW1" } else { "text" };
        let ids: Vec<u64> = (next_id..).take(lines.len()).collect();
        let render = |reply: Response| {
            if binary {
                wire::encode_response(&reply)
            } else {
                reply.render_text()
            }
        };
        let acks: Vec<u8> = ids
            .iter()
            .flat_map(|id| render(Response::Ok(format!("{id} QUEUED"))))
            .collect();
        let results = ids.iter().zip(&payloads).flat_map(|(&id, payload)| {
            render(Response::Result {
                id,
                payload: Arc::clone(payload),
            })
        });
        let expected: Vec<u8> = acks.iter().copied().chain(results).collect();
        assert!(expected.len() > 8 << 20, "{}", expected.len());

        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(DEADLINE)).unwrap();
        conn.write_all(&submit_then_wait(&lines, ids[0], binary))
            .unwrap();
        // Reading the acks first admits these jobs before the next one.
        let mut acked = vec![0u8; acks.len()];
        conn.read_exact(&mut acked).unwrap();
        assert_eq!(acked, acks, "{mode}");

        // The next job runs after this connection's, so once it is done
        // every result above is queued on the server.
        let mut sync = Client::connect(&addr).unwrap();
        solve_over(&mut sync, "SUBMIT ring:20 2 2ecss auto 1");
        next_id += lines.len() as u64 + 1;

        let mut chunk = [0u8; READ];
        let mut at = acks.len();
        while at < expected.len() {
            let want = READ.min(expected.len() - at);
            let n = conn.read(&mut chunk[..want]).unwrap();
            assert!(
                n > 0,
                "{mode}: the stream ended at byte {at} of {}",
                expected.len()
            );
            assert!(
                chunk[..n] == expected[at..at + n],
                "{mode}: the stream differs from the rendered replies within bytes {at}..{}",
                at + n
            );
            at += n;
        }
    }
    let mut control = Client::connect(&addr).unwrap();
    control.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!((summary.submitted, summary.completed), (12, 12));
}

#[test]
fn a_stalled_reader_of_large_results_trips_the_write_bound() {
    // Ten 1.9 MB results for a reader that never reads, against a 2 MiB
    // bound that one of them fits: once the kernel's socket buffers are
    // full (19 MB is more than they hold, even sized at 16 MB), the queued
    // bodies push the queue past the bound, which replaces it with one
    // final ERR and closes the connection. A neighbour's submit, queued
    // behind them on the one worker, completes meanwhile.
    const JOBS: u64 = 10;
    const CAP: usize = 2 << 20;
    let handle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue_depth: JOBS as usize + 1,
        write_queue_limit: CAP,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn();
    let addr = handle.addr().to_string();
    let mut healthy = Client::connect(&addr).unwrap();
    let trips = |client: &mut Client| {
        metric_value(
            &client.metrics().unwrap(),
            "server_conn_limit_total{kind=\"write\"} ",
        )
    };
    let tripped_before = trips(&mut healthy);

    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled.set_read_timeout(Some(DEADLINE)).unwrap();
    stalled
        .write_all(&submit_then_wait(&large_result_lines(0..JOBS), 1, false))
        .unwrap();
    // Read the acks, so these jobs are admitted before the neighbour's,
    // then stall.
    let acks: String = (1..=JOBS).map(|id| format!("OK {id} QUEUED\n")).collect();
    let mut acked = vec![0u8; acks.len()];
    stalled.read_exact(&mut acked).unwrap();
    assert_eq!(acked, acks.as_bytes());
    let payload = solve_over(&mut healthy, "SUBMIT ring:20 2 2ecss auto 11");
    assert!(String::from_utf8(payload)
        .unwrap()
        .contains("verified k=2 yes"));

    // Draining the stalled connection ends in its final ERR, then EOF.
    let mut received = Vec::new();
    let _ = stalled.read_to_end(&mut received);
    let err = Response::Err(format!(
        "write queue exceeded {CAP} bytes; closing slow connection"
    ))
    .render_text();
    assert!(
        received.ends_with(&err),
        "the stream of {} bytes does not end with the bound's ERR",
        received.len()
    );
    let finals = received.windows(err.len()).filter(|w| *w == err).count();
    assert_eq!(finals, 1);
    assert!(trips(&mut healthy) > tripped_before);
    healthy.shutdown().unwrap();
    handle.join();
}

#[test]
fn poll_backend_serves_both_wire_modes_identically() {
    // The portable poll(2) fallback must be behaviourally identical to the
    // platform default: same payloads over both wire modes, same shutdown
    // drain.
    let mut server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    server.set_backend(Backend::Poll);
    let handle = server.spawn();
    let addr = handle.addr().to_string();

    let line = "SUBMIT harary:12:9 3 kecss auto 4";
    let mut text = Client::connect(&addr).unwrap();
    let mut binary = Client::connect_binary(&addr).unwrap();
    let from_text = solve_over(&mut text, line);
    let from_binary = solve_over(&mut binary, line);
    assert_eq!(from_text, from_binary);
    assert!(String::from_utf8(from_text)
        .unwrap()
        .contains("verified k=3 yes"));

    // Control verbs work over binary frames on this backend too.
    assert!(binary.metrics().unwrap().contains("server_requests_total"));
    binary.shutdown().unwrap();
    let summary = handle.join();
    assert_eq!(summary.submitted, 2);
    assert_eq!(summary.completed, 2);
}

/// A script of the verbs both roles share, and the text reply each role must
/// answer it with. Every job it admits stays in flight: a coordinator with
/// no workers keeps its jobs queued, and the standalone server's one worker
/// is held on job 1, which the script therefore never asks about.
const PARITY_SCRIPT: [(&str, &str); 16] = [
    ("STATUS 99", "ERR unknown job 99"),
    ("RESULT 99", "ERR unknown job 99"),
    ("RESULT WAIT 99", "ERR unknown job 99"),
    ("CANCEL 99", "ERR unknown job 99"),
    ("SUBMIT ring:20 2 2ecss auto 1", "OK 1 QUEUED"),
    ("SUBMIT ring:20 2 2ecss auto 2", "OK 2 QUEUED"),
    ("STATUS 2", "OK 2 QUEUED"),
    ("RESULT 2", "WAIT 2 QUEUED"),
    ("CANCEL 2", "OK 2 CANCELLED"),
    ("RESULT 2", "ERR job 2 was cancelled before it ran"),
    ("CANCEL 2", "ERR job 2 already finished"),
    ("SUBMIT ring:20 2 2ecss auto 3", "OK 3 QUEUED"),
    // Jobs 1 and 3 fill the depth bound of 2.
    ("SUBMIT ring:20 2 2ecss auto 4", "BUSY 2"),
    ("STATUS 2", "OK 2 CANCELLED"),
    ("SHUTDOWN", "OK SHUTDOWN"),
    (
        "SUBMIT ring:20 2 2ecss auto 5",
        "ERR the service is shutting down; accepted jobs drain but no new jobs are admitted",
    ),
];

/// A connection that sends request lines in one wire mode and returns each
/// raw reply. No reply [`PARITY_SCRIPT`] asks for carries a payload, so a
/// text reply is one line.
struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    binary: bool,
}

impl RawConn {
    fn open(addr: &str, binary: bool) -> RawConn {
        let mut writer = TcpStream::connect(addr).unwrap();
        // A request parked by mistake fails the test instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        if binary {
            writer.write_all(&wire::PREAMBLE).unwrap();
        }
        let reader = BufReader::new(writer.try_clone().unwrap());
        RawConn {
            writer,
            reader,
            binary,
        }
    }

    fn send(&mut self, line: &str) -> Vec<u8> {
        let mut reply = Vec::new();
        if self.binary {
            let request = Request::parse(line).unwrap();
            self.writer
                .write_all(&wire::encode_request(&request))
                .unwrap();
            let mut header = [0u8; wire::FRAME_HEADER_BYTES];
            self.reader.read_exact(&mut header).unwrap();
            let (_, _, len) = wire::parse_frame_header(&header).unwrap();
            reply.extend_from_slice(&header);
            reply.resize(wire::FRAME_HEADER_BYTES + len, 0);
            self.reader
                .read_exact(&mut reply[wire::FRAME_HEADER_BYTES..])
                .unwrap();
        } else {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .unwrap();
            self.reader.read_until(b'\n', &mut reply).unwrap();
        }
        reply
    }
}

#[test]
fn a_coordinator_and_a_standalone_server_answer_the_shared_verbs_byte_identically() {
    for (binary, backend) in [false, true]
        .into_iter()
        .flat_map(|b| [(b, None), (b, Some(Backend::Poll))])
    {
        let mode = format!("{} on {backend:?}", if binary { "KGW1" } else { "text" });
        // The standalone server's one worker waits at the gate on job 1.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let held = Arc::clone(&gate);
        let scheduler = Scheduler::with_start_hook(
            1,
            2,
            Some(Arc::new(move |_| {
                let (open, opened) = &*held;
                let _open = opened
                    .wait_while(open.lock().unwrap(), |open| !*open)
                    .unwrap();
            })),
        );
        let mut server = Server::bind_with(
            &ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            },
            scheduler,
        )
        .expect("bind an ephemeral port");
        let mut coordinator = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_depth: 2,
            role: Role::Coordinator {
                heartbeat_timeout: Duration::from_secs(3),
                max_retries: 5,
            },
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        if let Some(backend) = backend {
            server.set_backend(backend);
            coordinator.set_backend(backend);
        }
        let (server, coordinator) = (server.spawn(), coordinator.spawn());

        let mut to_server = RawConn::open(&server.addr().to_string(), binary);
        let mut to_coordinator = RawConn::open(&coordinator.addr().to_string(), binary);
        for (line, expected) in PARITY_SCRIPT {
            let reply = to_server.send(line);
            assert_eq!(reply, to_coordinator.send(line), "'{line}' over {mode}");
            let text = if binary {
                let (header, body) = reply.split_first_chunk().unwrap();
                let (opcode, _, _) = wire::parse_frame_header(header).unwrap();
                wire::decode_response(opcode, body).unwrap().render_text()
            } else {
                reply
            };
            assert_eq!(
                String::from_utf8(text).unwrap(),
                format!("{expected}\n"),
                "'{line}' over {mode}"
            );
        }

        // The server runs its jobs once the gate opens; the coordinator's
        // jobs have no worker, so cancelling them is what lets it drain.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        for id in [1, 3] {
            to_coordinator.send(&format!("CANCEL {id}"));
        }
        let served = server.join();
        assert_eq!((served.completed, served.cancelled), (2, 1), "{mode}");
        let fleet = coordinator.join();
        assert_eq!((fleet.completed, fleet.cancelled), (0, 3), "{mode}");
        assert_eq!((served.rejected, fleet.rejected), (1, 1), "{mode}");
    }
}

/// One valid request of every verb, both `SUBMIT` instance kinds included.
const VALID_REQUESTS: [&str; 10] = [
    "SUBMIT ring:20 2 2ecss auto 1",
    "SUBMIT inline:4:0-1-3,1-2-1,2-3-4,3-0-1 2 kecss label 9",
    "STATUS 7",
    "RESULT 7",
    "RESULT WAIT 7",
    "CANCEL 7",
    "METRICS",
    "HEARTBEAT w1 127.0.0.1:7461",
    "FLEET",
    "SHUTDOWN",
];

/// One reply of every kind, `WAIT` with the coordinator-only state word.
fn valid_replies() -> [Response; 9] {
    [
        Response::Ok("3 QUEUED".into()),
        Response::Busy(16),
        Response::Wait {
            id: 4,
            state: "ASSIGNED",
        },
        Response::Result {
            id: 7,
            payload: Arc::new(b"# kecss job result v1\nedge 0 1 3\n".to_vec()),
        },
        Response::Gone(7),
        Response::Err("unknown job 12".into()),
        Response::Metrics(Arc::new(b"# TYPE x counter\nx 1\n".to_vec())),
        Response::Fleet(Arc::new(b"workers 0 live 0\n".to_vec())),
        Response::Ok(String::new()),
    ]
}

/// Runs both frame decoders over `frame` as the front-end would: the header,
/// then whatever of the declared body is present. Neither may panic.
fn decode_frame(frame: &[u8]) {
    let Some(header) = frame.first_chunk::<{ wire::FRAME_HEADER_BYTES }>() else {
        return;
    };
    if let Ok((opcode, flags, len)) = wire::parse_frame_header(header) {
        let body = &frame[wire::FRAME_HEADER_BYTES..];
        let body = &body[..len.min(body.len())];
        let _ = wire::decode_request(opcode, flags, body);
        let _ = wire::decode_response(opcode, body);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10_000, ..ProptestConfig::default() })]

    /// Random bytes as a text line, as a frame, and as a body under every
    /// assigned opcode: each decoder returns `Ok` or `Err` and none panics.
    #[test]
    fn request_decoders_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
        flags in 0u8..=255,
    ) {
        let _ = Request::parse(&String::from_utf8_lossy(&bytes));
        decode_frame(&bytes);
        for opcode in 0u8..=10 {
            let _ = wire::decode_request(opcode, flags, &bytes);
            let _ = wire::decode_response(opcode, &bytes);
        }
    }

    /// Valid requests with one byte flipped, then cut short, in both wire
    /// encodings: each decoder returns `Ok` or `Err` and none panics.
    #[test]
    fn request_decoders_survive_flipped_and_truncated_requests(
        pick in 0usize..VALID_REQUESTS.len(),
        at in 0usize..1 << 16,
        mask in 1u8..=255,
        cut in 0usize..1 << 16,
    ) {
        let line = VALID_REQUESTS[pick];
        let frame = wire::encode_request(&Request::parse(line).unwrap());
        for mut bytes in [frame, line.as_bytes().to_vec()] {
            let flip = at % bytes.len();
            bytes[flip] ^= mask;
            let len = cut % (bytes.len() + 1);
            for bytes in [&bytes[..], &bytes[..len]] {
                decode_frame(bytes);
                let _ = Request::parse(&String::from_utf8_lossy(bytes));
            }
        }
    }

    /// Random bytes, and valid replies with one byte flipped, then cut
    /// short, in both wire encodings: the text reply decoder and the frame
    /// decoders return `Ok` or `Err` and none panics.
    #[test]
    fn reply_decoders_survive_arbitrary_flipped_and_truncated_replies(
        random in proptest::collection::vec(0u8..=255, 0..64),
        pick in 0usize..9,
        at in 0usize..1 << 16,
        mask in 1u8..=255,
        cut in 0usize..1 << 16,
    ) {
        let _ = Response::read_text(&mut &random[..]);
        let reply = &valid_replies()[pick];
        for mut bytes in [wire::encode_response(reply), reply.render_text()] {
            let flip = at % bytes.len();
            bytes[flip] ^= mask;
            let len = cut % (bytes.len() + 1);
            for bytes in [&bytes[..], &bytes[..len]] {
                decode_frame(bytes);
                let _ = Response::read_text(&mut &bytes[..]);
            }
        }
    }
}
