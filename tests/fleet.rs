//! The fleet suite: a real coordinator plus real workers on ephemeral ports,
//! driven through the wire protocol (DESIGN.md §13).
//!
//! Covered here: end-to-end dispatch returning payloads byte-identical to the
//! pure [`kecss_server::job::run`] oracle; worker registration visible in the
//! `FLEET` status text, two workers sharing a port on two addresses
//! included; retry-on-worker-loss (a worker lost before its ack,
//! and scripted `KGW1` workers that ack and then close their link, tear a
//! `RESULT` frame mid-body, go silent with the link held open, or keep
//! heartbeating but never ack — each job must complete on a surviving worker
//! with the identical payload); jobs queued with no workers until one
//! registers; a worker whose dial hangs, and one that stops reading its link,
//! neither of which may hold up the others; many jobs in flight on one
//! worker link, each with its own outcome; `BUSY`
//! back-off against a depth-1 worker without charging the retry budget;
//! waits that time out naming their job, in both wire modes; and the
//! determinism property that fleet size never changes a payload byte.
//!
//! These check the decisions end to end over real sockets. The decisions
//! themselves — the ack deadline, the heartbeat timeout, `BUSY` back-off,
//! late registration, stale links — are also checked over thousands of
//! seeded faulty schedules by the coordinator's simulator
//! (`coordinator::sim`).

use kecss_runtime::Executor;
use kecss_server::client::{Client, ClientError};
use kecss_server::protocol::{Request, Response};
use kecss_server::server::{Role, Server, ServerConfig, ServerHandle};
use kecss_server::wire;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(20);
const DEADLINE: Duration = Duration::from_secs(300);

fn spawn_coordinator(queue_depth: usize, heartbeat_timeout: Duration) -> ServerHandle {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_depth,
        role: Role::Coordinator {
            heartbeat_timeout,
            max_retries: 5,
        },
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn()
}

/// A worker's config: 50 ms heartbeats to `coordinator`, bound to `addr`.
fn worker_config(addr: &str, coordinator: &str, id: &str, threads: usize) -> ServerConfig {
    ServerConfig {
        addr: addr.into(),
        threads,
        role: Role::Worker {
            coordinator: coordinator.into(),
            worker_id: id.into(),
            heartbeat_interval: Duration::from_millis(50),
            advertise: String::new(),
        },
        ..ServerConfig::default()
    }
}

fn spawn_worker(coordinator: &str, id: &str, threads: usize, queue_depth: usize) -> ServerHandle {
    Server::bind(&ServerConfig {
        queue_depth,
        ..worker_config("127.0.0.1:0", coordinator, id, threads)
    })
    .expect("bind an ephemeral port")
    .spawn()
}

fn wait_workers(addr: &str, n: usize) {
    kecss_server::client::wait_for_live_workers(addr, n, POLL, Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("{n} workers never registered: {e}"));
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

/// The byte oracle: what the pure job runner produces for this spec.
fn oracle(line: &str) -> Vec<u8> {
    let Request::Submit(spec) = Request::parse(line).unwrap() else {
        panic!("not a SUBMIT line: {line}")
    };
    kecss_server::job::run(&spec, &Executor::Sequential).expect("oracle spec solves")
}

/// Shuts a worker down through its own serving port (fleet workers answer the
/// full standalone protocol, SHUTDOWN included).
fn stop_worker(handle: ServerHandle) {
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    c.shutdown().unwrap();
    handle.join();
}

#[test]
fn fleet_serves_jobs_with_payloads_identical_to_the_pure_runner() {
    let coordinator = spawn_coordinator(32, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let w1 = spawn_worker(&addr, "fleet-a", 2, 8);
    let w2 = spawn_worker(&addr, "fleet-b", 2, 8);
    wait_workers(&addr, 2);

    // A mixed batch across both workers, each spec submitted twice from
    // separate connections — duplicates must agree and match the oracle.
    let specs: Vec<String> = [1u64, 2, 3]
        .iter()
        .flat_map(|seed| {
            vec![
                format!("SUBMIT ring:20 2 2ecss auto {seed}"),
                format!("SUBMIT harary:12:9 3 kecss auto {seed}"),
            ]
        })
        .collect();
    let results: Vec<(String, Vec<u8>, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|line| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut a = Client::connect(&addr).unwrap();
                    let mut b = Client::connect(&addr).unwrap();
                    let id_a = submit_line(&mut a, line);
                    let id_b = submit_line(&mut b, line);
                    let bytes_a = a.wait_result(id_a, DEADLINE).unwrap();
                    let bytes_b = b.wait_result(id_b, DEADLINE).unwrap();
                    (line.clone(), bytes_a, bytes_b)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (line, a, b) in &results {
        assert_eq!(a, b, "duplicate submissions of '{line}' must agree");
        assert_eq!(a, &oracle(line), "'{line}' differs from the pure runner");
    }

    // The FLEET text sees both workers live and all jobs accounted for.
    let mut control = Client::connect(&addr).unwrap();
    let fleet = control.fleet_status().unwrap();
    assert!(fleet.contains("workers 2 live 2"), "{fleet}");
    assert!(fleet.contains("worker fleet-a "), "{fleet}");
    assert!(fleet.contains("worker fleet-b "), "{fleet}");
    assert!(
        fleet.contains(&format!(
            "jobs submitted {} completed {}",
            2 * specs.len(),
            2 * specs.len()
        )),
        "{fleet}"
    );

    control.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.submitted, 2 * specs.len() as u64);
    assert_eq!(summary.completed, 2 * specs.len() as u64);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.retries, 0);
    stop_worker(w1);
    stop_worker(w2);
}

/// A scripted worker that registers once and never beats again. It speaks
/// the text protocol, so on the coordinator's `KGW1` link it never reads a
/// `SUBMIT` line and never acks: it is a worker lost before its ack. Its
/// last beat is older than the job, so the sweep's heartbeat timeout finds
/// it if the closed link does not. Returns its id.
fn doomed_worker(coordinator: &str) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let id = format!("doomed-{}", listener.local_addr().unwrap().port());
    let mut beat = Client::connect(coordinator).unwrap();
    let word = beat.heartbeat(&id, &addr).unwrap();
    assert_eq!(word, "REGISTERED");
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut line = String::new();
            if reader.read_line(&mut line).is_ok() && line.starts_with("SUBMIT") {
                let mut stream = stream;
                let _ = stream.write_all(b"OK 1 QUEUED\n");
            }
            // Dropping the stream here closes the link without an ack.
        }
    });
    id
}

#[test]
fn a_job_on_a_dying_worker_retries_on_a_survivor_with_identical_bytes() {
    // Tight heartbeat timeout so the dead scripted worker is swept quickly
    // even when the loss is noticed by the sweep rather than the dispatch.
    let coordinator = spawn_coordinator(8, Duration::from_millis(400));
    let addr = coordinator.addr().to_string();

    // Only the doomed worker is registered at submission time, so the job is
    // guaranteed to be assigned to it first.
    let doomed = doomed_worker(&addr);
    wait_workers(&addr, 1);

    let line = "SUBMIT ring:20 2 2ecss auto 11";
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);

    // The doomed worker accepts the job and dies; with no live workers left
    // the job re-queues and waits. Then a real worker arrives and the retry
    // lands there.
    let survivor = spawn_worker(&addr, "survivor", 1, 4);
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert_eq!(
        payload,
        oracle(line),
        "a retried job must produce the exact standalone bytes"
    );

    // The loss is visible end to end: a charged retry, a dead worker in the
    // FLEET text, and the retry counter in METRICS.
    let fleet = client.fleet_status().unwrap();
    assert!(fleet.contains(&format!("worker {doomed} ")), "{fleet}");
    assert!(fleet.contains("dead"), "{fleet}");
    assert!(fleet.contains("worker survivor "), "{fleet}");
    let metrics = client.metrics().unwrap();
    let retries: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("fleet_job_retries_total "))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0);
    assert!(retries >= 1, "no retry recorded:\n{metrics}");

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 0);
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(survivor);
}

/// How a scripted `KGW1` worker treats the first job it is sent. All but
/// `NeverAck` stop heartbeating and ack it first.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Script {
    /// Close the link: the coordinator reads its end.
    Close,
    /// Write a `RESULT` frame whose header names more body bytes than
    /// follow, and close: the coordinator reads a frame torn mid-body.
    Tear,
    /// Go black: hold the link open without sending anything more until the
    /// coordinator closes it.
    Hold,
    /// Keep heartbeating and never ack, holding the link open until the
    /// coordinator closes it: only the ack deadline can find this loss.
    NeverAck,
}

/// Registers worker `id` at `addr`, then heartbeats every 50 ms on a thread
/// of its own until `stop` is set.
fn beat_until(coordinator: &str, id: &str, addr: &str, stop: &Arc<AtomicBool>) -> JoinHandle<()> {
    let mut beat = Client::connect(coordinator).unwrap();
    assert_eq!(beat.heartbeat(id, addr).unwrap(), "REGISTERED");
    let (id, addr, stop) = (id.to_string(), addr.to_string(), Arc::clone(stop));
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            let _ = beat.heartbeat(&id, &addr);
        }
    })
}

/// A scripted worker that speaks the coordinator's link protocol by hand. It
/// heartbeats every 50 ms, accepts the one link the coordinator dials, and
/// checks the `KGW1` preamble and that the first frame is a wait-flagged
/// `SUBMIT`. Then it follows `script` (acks are `OK 1 QUEUED`), and it beats
/// no more once it has acked or read the end of its link. Returns its worker
/// id, a channel that reports `"dispatched"` once it holds the job (and has
/// acked it, if the script acks), then `"eof"` once it reads the end of a
/// link it holds, and its thread.
fn scripted_kgw1_worker(
    coordinator: &str,
    script: Script,
) -> (String, mpsc::Receiver<&'static str>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let id = format!("scripted-{}", listener.local_addr().unwrap().port());
    let stop = Arc::new(AtomicBool::new(false));
    let beats = beat_until(coordinator, &id, &addr, &stop);
    let (events, received) = mpsc::channel();
    let script = std::thread::spawn(move || {
        let mut beats = Some(beats);
        let mut stop_beating = || {
            stop.store(true, Ordering::SeqCst);
            if let Some(beats) = beats.take() {
                beats.join().unwrap();
            }
        };
        let (mut link, _) = listener.accept().expect("the coordinator dials its link");
        drop(listener);
        let mut preamble = [0u8; 4];
        link.read_exact(&mut preamble).unwrap();
        assert_eq!(preamble, wire::PREAMBLE);
        let mut header = [0u8; wire::FRAME_HEADER_BYTES];
        link.read_exact(&mut header).unwrap();
        let (opcode, flags, len) = wire::parse_frame_header(&header).unwrap();
        let mut body = vec![0u8; len];
        link.read_exact(&mut body).unwrap();
        let request = wire::decode_request(opcode, flags, &body).unwrap();
        assert!(matches!(request, Request::SubmitWait(_)), "{request:?}");
        if script != Script::NeverAck {
            // The last beat goes out before the ack, so no beat can
            // re-register this worker after the coordinator counted it lost.
            stop_beating();
            let ack = wire::encode_response(&Response::Ok("1 QUEUED".into()));
            link.write_all(&ack).unwrap();
        }
        if script == Script::Tear {
            let payload = Arc::new(vec![b'x'; 512]);
            let frame = wire::encode_response(&Response::Result { id: 1, payload });
            let body = frame.len() - wire::FRAME_HEADER_BYTES;
            link.write_all(&frame[..wire::FRAME_HEADER_BYTES + body / 2])
                .unwrap();
        }
        events.send("dispatched").unwrap();
        if matches!(script, Script::Hold | Script::NeverAck) {
            let mut sink = [0u8; 4096];
            while matches!(link.read(&mut sink), Ok(n) if n > 0) {}
            events.send("eof").unwrap();
        }
        stop_beating();
        // `Close` and `Tear`: dropping the stream here closes the link.
    });
    (id, received, script)
}

#[test]
fn a_worker_that_closes_its_link_after_the_ack_is_a_charged_loss() {
    // A heartbeat timeout far beyond the test: only the link's EOF can
    // reveal this loss.
    let coordinator = spawn_coordinator(8, Duration::from_secs(60));
    let addr = coordinator.addr().to_string();
    let (scripted, events, script) = scripted_kgw1_worker(&addr, Script::Close);
    wait_workers(&addr, 1);

    let line = "SUBMIT ring:20 2 2ecss auto 12";
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);
    assert_eq!(events.recv_timeout(DEADLINE), Ok("dispatched"));
    let survivor = spawn_worker(&addr, "survivor", 1, 4);
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert_eq!(
        payload,
        oracle(line),
        "the retry must give the standalone bytes"
    );
    let fleet = client.fleet_status().unwrap();
    assert!(fleet.contains(&format!("worker {scripted} ")), "{fleet}");
    assert!(fleet.contains(" dead "), "{fleet}");

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!((summary.completed, summary.failed), (1, 0));
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(survivor);
    script.join().unwrap();
}

#[test]
fn a_worker_that_tears_a_result_frame_is_a_charged_loss() {
    // A heartbeat timeout far beyond the test: only the torn frame can
    // reveal this loss.
    let coordinator = spawn_coordinator(8, Duration::from_secs(60));
    let addr = coordinator.addr().to_string();
    let (scripted, events, script) = scripted_kgw1_worker(&addr, Script::Tear);
    wait_workers(&addr, 1);

    let line = "SUBMIT ring:20 2 2ecss auto 15";
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);
    assert_eq!(events.recv_timeout(DEADLINE), Ok("dispatched"));
    let survivor = spawn_worker(&addr, "survivor", 1, 4);
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert_eq!(
        payload,
        oracle(line),
        "the retry must give the standalone bytes"
    );
    let fleet = client.fleet_status().unwrap();
    let dead = format!("worker {scripted} ");
    assert!(
        fleet
            .lines()
            .any(|l| l.starts_with(&dead) && l.contains(" dead ")),
        "{fleet}"
    );

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!((summary.completed, summary.failed), (1, 0));
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(survivor);
    script.join().unwrap();
}

#[test]
fn a_black_holed_worker_is_swept_and_its_link_closed() {
    let timeout = Duration::from_millis(400);
    let coordinator = spawn_coordinator(8, timeout);
    let addr = coordinator.addr().to_string();
    let (scripted, events, script) = scripted_kgw1_worker(&addr, Script::Hold);
    wait_workers(&addr, 1);

    let line = "SUBMIT ring:20 2 2ecss auto 13";
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);
    assert_eq!(events.recv_timeout(DEADLINE), Ok("dispatched"));
    let acked = Instant::now();
    let survivor = spawn_worker(&addr, "survivor", 1, 4);
    // The held link never answers, so only the heartbeat deadline can free
    // the job: one heartbeat timeout after the last beat, when the
    // coordinator wakes. The bound leaves room for a loaded host.
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert!(acked.elapsed() < timeout * 10, "took {:?}", acked.elapsed());
    assert_eq!(
        payload,
        oracle(line),
        "the retry must give the standalone bytes"
    );
    // The coordinator closed the link: the scripted worker read its end.
    assert_eq!(events.recv_timeout(DEADLINE), Ok("eof"));
    let fleet = client.fleet_status().unwrap();
    assert!(fleet.contains(&format!("worker {scripted} ")), "{fleet}");
    assert!(fleet.contains(" dead "), "{fleet}");

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!((summary.completed, summary.failed), (1, 0));
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(survivor);
    script.join().unwrap();
}

#[test]
fn a_worker_that_never_acks_is_lost_at_the_ack_deadline() {
    let timeout = Duration::from_millis(400);
    let coordinator = spawn_coordinator(8, timeout);
    let addr = coordinator.addr().to_string();
    // It keeps heartbeating while it sits on the job, so the heartbeat
    // timeout never fires: only the ack deadline can find this loss.
    let (_, events, script) = scripted_kgw1_worker(&addr, Script::NeverAck);
    wait_workers(&addr, 1);

    let line = "SUBMIT ring:20 2 2ecss auto 14";
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);
    assert_eq!(events.recv_timeout(DEADLINE), Ok("dispatched"));
    let survivor = spawn_worker(&addr, "survivor", 1, 4);
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert_eq!(
        payload,
        oracle(line),
        "the retry must give the standalone bytes"
    );
    // The coordinator closed the unacked link.
    assert_eq!(events.recv_timeout(DEADLINE), Ok("eof"));

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!((summary.completed, summary.failed), (1, 0));
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(survivor);
    script.join().unwrap();
}

#[test]
fn a_worker_whose_dial_hangs_does_not_hold_up_the_others() {
    let timeout = Duration::from_secs(3);
    let coordinator = spawn_coordinator(32, timeout);
    let addr = coordinator.addr().to_string();
    // A worker that beats but never accepts: with its listener's backlog
    // filled, the kernel drops further SYNs, so a dial to it hangs until the
    // dial's timeout (the heartbeat timeout).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let stalled = listener.local_addr().unwrap();
    let backlog: Vec<TcpStream> = (0..4096)
        .map_while(|_| TcpStream::connect_timeout(&stalled, Duration::from_millis(100)).ok())
        .collect();
    assert!(backlog.len() < 4096, "the listener's backlog never filled");
    let stop = Arc::new(AtomicBool::new(false));
    let beats = beat_until(&addr, "stalled", &stalled.to_string(), &stop);
    wait_workers(&addr, 1);

    // The stalled worker is the only live one, so the first job opens its
    // link, and that dial now hangs. Then a healthy worker joins.
    let mut lines = vec!["SUBMIT ring:20 2 2ecss auto 21".to_string()];
    let mut client = Client::connect(&addr).unwrap();
    let mut ids = vec![submit_line(&mut client, &lines[0])];
    let dialling = Instant::now();
    let healthy = spawn_worker(&addr, "healthy", 1, 16);
    wait_workers(&addr, 2);
    lines.extend((1..=16).map(|seed| format!("SUBMIT ring:20 2 2ecss auto {seed}")));
    ids.extend(lines[1..].iter().map(|l| submit_line(&mut client, l)));

    // Long before that dial can end, every job given to the healthy worker
    // is done: only the stalled worker's jobs are still open.
    loop {
        let fleet = client.fleet_status().unwrap();
        let open = fleet.lines().filter(|l| l.starts_with("job "));
        let held_up = open.filter(|l| !l.contains(" worker stalled ")).count();
        let served = fleet
            .lines()
            .any(|l| l.starts_with("worker healthy ") && !l.contains(" dispatched 0 "));
        if held_up == 0 && served {
            break;
        }
        assert!(
            dialling.elapsed() < timeout / 2,
            "the hanging dial held up the healthy worker:\n{fleet}"
        );
        std::thread::sleep(POLL);
    }

    // Let the stalled worker go: its link is lost and its jobs re-run on the
    // healthy worker, with the oracle's bytes.
    stop.store(true, Ordering::SeqCst);
    beats.join().unwrap();
    drop((listener, backlog));
    for (line, id) in lines.iter().zip(&ids) {
        let payload = client.wait_result(*id, DEADLINE).unwrap();
        assert_eq!(payload, oracle(line), "'{line}' differs");
    }
    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!((summary.completed, summary.failed), (lines.len() as u64, 0));
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(healthy);
}

/// A scripted worker that registers and keeps heartbeating every 50 ms,
/// accepts the one link the coordinator dials, reports `"linked"`, and never
/// reads a byte of it. Its listener goes with the accept, so no later dial
/// reaches it. Setting the returned flag stops its heartbeats, and its
/// thread then drops the link. Returns its worker id too.
fn deaf_worker(
    coordinator: &str,
) -> (
    String,
    mpsc::Receiver<&'static str>,
    Arc<AtomicBool>,
    JoinHandle<()>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let id = format!("deaf-{}", listener.local_addr().unwrap().port());
    let stop = Arc::new(AtomicBool::new(false));
    let beats = beat_until(coordinator, &id, &addr, &stop);
    let (events, received) = mpsc::channel();
    let held = Arc::clone(&stop);
    let script = std::thread::spawn(move || {
        let (link, _) = listener.accept().expect("the coordinator dials its link");
        drop(listener);
        events.send("linked").unwrap();
        beats.join().unwrap();
        drop(link);
    });
    (id, received, held, script)
}

/// A job that is cheap to solve but large on the wire: `mst` over
/// `copies` parallel edges of a triangle, 16 bytes each in a `KGW1` frame.
fn parallel_triangle(copies: usize, seed: u64) -> kecss_server::job::JobSpec {
    let edges = (0..copies)
        .map(|i| (i % 3, (i + 1) % 3, 1 + (i as u64 * 7919 + seed) % 1000))
        .collect();
    kecss_server::job::JobSpec {
        instance: kecss_server::instance::InstanceSpec::Inline { n: 3, edges },
        k: 1,
        algorithm: kecss_server::job::Algorithm::MstOnly,
        enumerator: kecss::cuts::EnumeratorPolicy::Auto,
        seed,
    }
}

#[test]
fn a_worker_that_stops_reading_does_not_hold_up_the_others() {
    let timeout = Duration::from_secs(3);
    let coordinator = spawn_coordinator(32, timeout);
    let addr = coordinator.addr().to_string();
    let (deaf, linked, stop, script) = deaf_worker(&addr);
    wait_workers(&addr, 1);

    // The deaf worker is the only live one: the first job opens its link,
    // and every job until the healthy worker joins goes there too — four
    // 4 MiB SUBMITs, far more than the loopback socket buffers hold.
    let mut client = Client::connect_binary(&addr).unwrap();
    let mut specs = vec![parallel_triangle(3, 0)];
    let submit = |client: &mut Client, spec: &kecss_server::job::JobSpec| {
        (client.submit(spec).unwrap()).unwrap_or_else(|depth| panic!("BUSY at depth {depth}"))
    };
    let mut ids = vec![submit(&mut client, &specs[0])];
    assert_eq!(linked.recv_timeout(DEADLINE), Ok("linked"));
    for seed in 1..=4 {
        specs.push(parallel_triangle(1 << 18, seed));
        ids.push(submit(&mut client, &specs[seed as usize]));
    }
    let healthy = spawn_worker(&addr, "healthy", 1, 16);
    wait_workers(&addr, 2);

    // Every job given to the healthy worker is done long before the deaf
    // worker's ack deadline: only the deaf worker's jobs are still open.
    let submitted = Instant::now();
    let small = specs.len();
    specs.extend((1..=12).map(|seed| parallel_triangle(3, seed)));
    ids.extend(specs[small..].iter().map(|spec| submit(&mut client, spec)));
    loop {
        let fleet = client.fleet_status().unwrap();
        let open = fleet.lines().filter(|l| l.starts_with("job "));
        let held_up = open
            .filter(|l| !l.contains(&format!(" worker {deaf} ")))
            .count();
        let served = fleet
            .lines()
            .any(|l| l.starts_with("worker healthy ") && !l.contains(" dispatched 0 "));
        if held_up == 0 && served {
            break;
        }
        assert!(
            submitted.elapsed() < timeout / 2,
            "the worker that stopped reading held up the healthy worker:\n{fleet}"
        );
        std::thread::sleep(POLL);
    }

    // The deaf worker beats no more, so its ack deadline finds it lost, and
    // its jobs re-run on the healthy worker, with the oracle's bytes.
    stop.store(true, Ordering::SeqCst);
    for (spec, id) in specs.iter().zip(&ids) {
        let payload = client.wait_result(*id, DEADLINE).unwrap();
        let oracle = kecss_server::job::run(spec, &Executor::Sequential).unwrap();
        assert_eq!(payload, oracle, "job {id} differs");
    }
    let fleet = client.fleet_status().unwrap();
    assert!(fleet.contains(&format!("worker {deaf} ")), "{fleet}");
    assert!(fleet.contains(" dead "), "{fleet}");
    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!((summary.completed, summary.failed), (ids.len() as u64, 0));
    assert!(summary.retries >= 1, "{summary:?}");
    stop_worker(healthy);
    script.join().unwrap();
}

/// The failure text a standalone server gives for `line`, after its
/// `job <id> failed: ` prefix.
fn standalone_failure(line: &str) -> String {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let id = submit_line(&mut client, line);
    let message = match client.wait_result(id, DEADLINE) {
        Err(ClientError::Server(message)) => message,
        other => panic!("'{line}' must fail, got {other:?}"),
    };
    client.shutdown().unwrap();
    server.join();
    let prefix = format!("job {id} failed: ");
    message
        .strip_prefix(&prefix)
        .expect("a failure reply")
        .to_string()
}

#[test]
fn one_link_carries_a_burst_of_jobs_that_finish_out_of_order() {
    let coordinator = spawn_coordinator(32, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    // One worker, two solver threads: every job shares its one link.
    let worker = spawn_worker(&addr, "wide", 2, 16);
    wait_workers(&addr, 1);

    // A slow job first, then fast ones: the fast jobs finish, and come back
    // on the link, while the slow one still runs on the other thread. In a
    // debug build the slow job takes ~200 ms, ~120x the six fast ones
    // together (~1.7 ms), and its 3-ECSS solve runs no cut enumeration.
    let mut lines = vec!["SUBMIT torus:256 3 3ecss auto 1".to_string()];
    lines.extend((1..=6).map(|seed| format!("SUBMIT ring:20 2 2ecss auto {seed}")));
    let missing = "SUBMIT file:/no/such/inst.graph 2 2ecss auto 1";
    let mut client = Client::connect(&addr).unwrap();
    let ids: Vec<u64> = lines.iter().map(|l| submit_line(&mut client, l)).collect();
    let missing_id = submit_line(&mut client, missing);

    let check = |client: &mut Client, i: usize| {
        let payload = client.wait_result(ids[i], DEADLINE).unwrap();
        assert_eq!(payload, oracle(&lines[i]), "'{}' differs", lines[i]);
    };
    (1..lines.len()).for_each(|i| check(&mut client, i));
    assert_eq!(
        client.status(ids[0]).unwrap(),
        "RUNNING",
        "finished in order"
    );
    check(&mut client, 0);
    match client.wait_result(missing_id, DEADLINE) {
        Err(ClientError::Server(message)) => assert_eq!(
            message,
            format!("job {missing_id} failed: {}", standalone_failure(missing))
        ),
        other => panic!("'{missing}' must fail, got {other:?}"),
    }
    let fleet = client.fleet_status().unwrap();
    let dispatched = format!("live inflight 0 dispatched {} ", lines.len() + 1);
    assert!(fleet.contains(&dispatched), "{fleet}");

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.completed, lines.len() as u64);
    assert_eq!((summary.failed, summary.retries), (1, 0));
    stop_worker(worker);
}

#[test]
fn busy_workers_back_off_without_charging_the_retry_budget() {
    let coordinator = spawn_coordinator(16, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    // One worker, depth 1: concurrent dispatches beyond the first bounce with
    // BUSY and must re-queue (back-off), not retry or fail.
    let worker = spawn_worker(&addr, "narrow", 1, 1);
    wait_workers(&addr, 1);

    let mut client = Client::connect(&addr).unwrap();
    let lines: Vec<String> = (1u64..=4)
        .map(|seed| format!("SUBMIT ring:20 2 2ecss auto {seed}"))
        .collect();
    let ids: Vec<u64> = lines.iter().map(|l| submit_line(&mut client, l)).collect();
    for (id, line) in ids.iter().zip(&lines) {
        let payload = client.wait_result(*id, DEADLINE).unwrap();
        assert_eq!(
            payload,
            oracle(line),
            "'{line}' differs from the pure runner"
        );
    }

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.completed, 4);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.retries, 0, "BUSY back-offs must not charge retries");
    stop_worker(worker);
}

#[test]
fn a_heartbeat_with_no_port_to_dial_registers_no_worker() {
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for bad in ["127.0.0.1:0", "worker-a"] {
        let reply = client.request_line(&format!("HEARTBEAT w {bad}")).unwrap();
        assert!(
            matches!(&reply, kecss_server::protocol::Response::Err(_)),
            "`{bad}`: {reply:?}"
        );
    }
    let fleet = client.fleet_status().unwrap();
    assert!(fleet.contains("workers 0 live 0\n"), "{fleet}");
    assert!(!fleet.lines().any(|l| l.starts_with("worker ")), "{fleet}");
    client.shutdown().unwrap();
    coordinator.join();
}

#[test]
fn two_workers_with_no_id_on_one_port_register_as_two() {
    // Linux routes all of 127.0.0.0/8 to loopback, so two workers can bind
    // one port on two addresses. Each derives its id from the address the
    // coordinator dials, not from the port alone.
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let first = Server::bind(&worker_config("127.0.0.1:0", &addr, "", 1)).expect("bind");
    let second = format!("127.0.0.2:{}", first.local_addr().port());
    let second = Server::bind(&worker_config(&second, &addr, "", 1)).expect("bind");
    let workers = [first.spawn(), second.spawn()];
    wait_workers(&addr, 2);
    let mut client = Client::connect(&addr).unwrap();
    let fleet = client.fleet_status().unwrap();
    assert!(fleet.contains("workers 2 live 2\n"), "{fleet}");
    for worker in &workers {
        let at = worker.addr();
        assert!(
            fleet.contains(&format!("worker worker-{at} {at} live")),
            "{fleet}"
        );
    }
    client.shutdown().unwrap();
    coordinator.join();
    workers.into_iter().for_each(stop_worker);
}

#[test]
fn a_fleet_with_no_workers_queues_jobs_until_one_registers() {
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let line = "SUBMIT ring:20 2 2ecss auto 21";

    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, line);
    // No workers: the job sits QUEUED (observable over STATUS).
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(client.status(id).unwrap(), "QUEUED");

    let worker = spawn_worker(&addr, "late", 1, 4);
    let payload = client.wait_result(id, DEADLINE).unwrap();
    assert_eq!(payload, oracle(line));

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.retries, 0);
    stop_worker(worker);
}

#[test]
fn cancelling_a_queued_fleet_job_works_like_the_standalone_server() {
    // No workers registered, so a submitted job stays QUEUED and cancellable.
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let id = submit_line(&mut client, "SUBMIT ring:20 2 2ecss auto 31");
    client
        .cancel(id)
        .expect("a queued fleet job is cancellable");
    assert_eq!(client.status(id).unwrap(), "CANCELLED");
    match client.result(id) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains(&format!("job {id} was cancelled")), "{msg}");
        }
        other => panic!("RESULT of a cancelled job must be an ERR, got {other:?}"),
    }
    assert!(client.cancel(id).is_err(), "cancelling twice is an error");

    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.completed, 0);
}

/// How long the timeout tests wait on a job that cannot finish.
const SHORT_WAIT: Duration = Duration::from_millis(500);

/// Checks that a wait on a job no worker can run came back as a timeout for
/// that job, after about [`SHORT_WAIT`]; returns the job id it names.
fn timed_out_job<T: std::fmt::Debug>(waited: Result<T, ClientError>, started: Instant) -> u64 {
    let elapsed = started.elapsed();
    assert!(
        elapsed >= SHORT_WAIT && elapsed < SHORT_WAIT + Duration::from_secs(10),
        "timed out after {elapsed:?}"
    );
    match waited {
        Err(ClientError::Timeout { id }) => id,
        other => panic!("expected a timeout, got {other:?}"),
    }
}

/// Cancels the still-queued job `id` over a fresh connection, then shuts the
/// coordinator down. The cancel must come first: a coordinator drains queued
/// jobs on shutdown, and with no workers that never ends.
fn cancel_and_shut_down(coordinator: ServerHandle, id: u64) {
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();
    assert_eq!(client.status(id).unwrap(), "QUEUED");
    client
        .cancel(id)
        .expect("the timed-out job is still cancellable");
    client.shutdown().unwrap();
    let summary = coordinator.join();
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.completed, 0);
}

#[test]
fn a_text_wait_that_times_out_names_its_job() {
    // No workers registered, so the job cannot finish.
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let mut client = Client::connect(&coordinator.addr().to_string()).unwrap();
    let id = submit_line(&mut client, "SUBMIT ring:20 2 2ecss auto 41");
    let started = Instant::now();
    let waited = client.wait_result(id, SHORT_WAIT);
    assert_eq!(timed_out_job(waited, started), id);
    drop(client);
    cancel_and_shut_down(coordinator, id);
}

#[test]
fn a_binary_submit_wait_that_times_out_names_the_acked_job() {
    let coordinator = spawn_coordinator(4, Duration::from_secs(3));
    let mut client = Client::connect_binary(&coordinator.addr().to_string()).unwrap();
    let Request::Submit(spec) = Request::parse("SUBMIT ring:20 2 2ecss auto 42").unwrap() else {
        unreachable!()
    };
    let started = Instant::now();
    let waited = client.submit_wait(&spec, SHORT_WAIT);
    // The first job a coordinator acks is job 1.
    let id = timed_out_job(waited, started);
    assert_eq!(id, 1);
    drop(client);
    cancel_and_shut_down(coordinator, id);
}

/// Runs `lines` through a fleet of `workers` workers and returns the payloads
/// in submission order.
fn run_fleet(lines: &[String], workers: usize) -> Vec<Vec<u8>> {
    let coordinator = spawn_coordinator(lines.len().max(1), Duration::from_secs(3));
    let addr = coordinator.addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|i| spawn_worker(&addr, &format!("prop-{i}"), 1, 4))
        .collect();
    wait_workers(&addr, workers);
    let mut client = Client::connect(&addr).unwrap();
    let ids: Vec<u64> = lines.iter().map(|l| submit_line(&mut client, l)).collect();
    let payloads = ids
        .iter()
        .map(|id| client.wait_result(*id, DEADLINE).unwrap())
        .collect();
    client.shutdown().unwrap();
    coordinator.join();
    for handle in handles {
        stop_worker(handle);
    }
    payloads
}

proptest! {
    // Each case spins three servers twice; a handful of cases is plenty.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The determinism property from DESIGN.md §13: fleet size never changes
    /// a payload byte. A 1-worker fleet, a 3-worker fleet and the pure runner
    /// agree bit-exactly on every spec and seed.
    #[test]
    fn fleet_payloads_are_identical_across_worker_counts(
        n in 12usize..24,
        seed in 0u64..1_000,
    ) {
        let lines = vec![
            format!("SUBMIT ring:{n} 2 2ecss auto {seed}"),
            format!("SUBMIT harary:{n}:9 3 kecss auto {seed}"),
        ];
        let solo = run_fleet(&lines, 1);
        let trio = run_fleet(&lines, 3);
        for (i, line) in lines.iter().enumerate() {
            prop_assert_eq!(&solo[i], &trio[i], "'{}' differs across fleet sizes", line);
            prop_assert_eq!(&solo[i], &oracle(line), "'{}' differs from the pure runner", line);
        }
    }
}
