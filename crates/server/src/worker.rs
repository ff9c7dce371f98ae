//! A fleet worker: the standalone [`Server`] plus a heartbeat thread that
//! registers with (and stays registered at) a coordinator.
//!
//! A worker *is* a server — the coordinator dispatches jobs to it with the
//! ordinary client protocol, as wait-flagged `KGW1` `SUBMIT` frames on one
//! persistent connection — so everything the standalone server guarantees
//! (bounded queue, `BUSY` backpressure, byte-deterministic payloads,
//! drain-on-shutdown) holds per worker with no new code. That connection
//! carries every job the coordinator sends here, which is why a worker has
//! no per-connection request limit and why its write-queue bound scales
//! with its queue depth (see [`Worker::bind`]). The only addition is
//! liveness: `HEARTBEAT <id> <addr>` every interval, which doubles as
//! registration — there is no separate enrolment step, and a worker that
//! restarts (or outlives a coordinator restart) re-registers automatically
//! on its next beat.

use crate::client::{Client, ClientError};
use crate::scheduler::ServeSummary;
use crate::server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker configuration (the CLI's `kecss serve --role worker` flags).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// The job-serving address to bind (port 0 picks one).
    pub addr: String,
    /// The coordinator's client-facing address to register with.
    pub coordinator: String,
    /// The stable worker identifier sent in every heartbeat. Empty derives
    /// `worker-<port>` from the bound address — stable across heartbeats,
    /// unique per host.
    pub worker_id: String,
    /// Scheduler pool workers.
    pub threads: usize,
    /// Maximum jobs in flight before `BUSY` (the coordinator backs off and
    /// re-queues on `BUSY`, so a small depth is safe).
    pub queue_depth: usize,
    /// Heartbeat period. The coordinator's `heartbeat_timeout` should be a
    /// comfortable multiple of this (the default pairing is 500 ms beats
    /// against a 3 s timeout).
    pub heartbeat_interval: Duration,
    /// The address heartbeats advertise for dispatch. Empty advertises the
    /// bound address, which is right whenever the coordinator can dial it;
    /// set it when the bind address is not dialable from the coordinator
    /// (e.g. a `0.0.0.0` bind inside a container — advertise the service
    /// name, as `deployment/docker-compose.yml` does).
    pub advertise: String,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            addr: "127.0.0.1:0".into(),
            coordinator: "127.0.0.1:7460".into(),
            worker_id: String::new(),
            threads: 1,
            queue_depth: 16,
            heartbeat_interval: Duration::from_millis(500),
            advertise: String::new(),
        }
    }
}

/// A bound, not-yet-running worker (bind/run split as on [`Server`]).
pub struct Worker {
    server: Server,
    worker_id: String,
    coordinator: String,
    heartbeat_interval: Duration,
    advertise: String,
}

impl Worker {
    /// Binds the job-serving listener and fixes the worker id.
    ///
    /// The coordinator's one link carries the replies of every job queued
    /// here, so each connection's unsent-reply bound is the server's default
    /// times the queue depth: room for one full-size reply per job held.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &WorkerConfig) -> std::io::Result<Worker> {
        let defaults = ServerConfig::default();
        let server = Server::bind(&ServerConfig {
            addr: config.addr.clone(),
            threads: config.threads,
            queue_depth: config.queue_depth,
            write_queue_limit: defaults
                .write_queue_limit
                .saturating_mul(config.queue_depth.max(1)),
            ..defaults
        })?;
        let worker_id = if config.worker_id.is_empty() {
            format!("worker-{}", server.local_addr().port())
        } else {
            config.worker_id.clone()
        };
        Ok(Worker {
            server,
            worker_id,
            coordinator: config.coordinator.clone(),
            heartbeat_interval: config.heartbeat_interval.max(Duration::from_millis(10)),
            advertise: config.advertise.clone(),
        })
    }

    /// The actually-bound job-serving address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The worker id sent in heartbeats.
    pub fn worker_id(&self) -> &str {
        &self.worker_id
    }

    /// Runs the job server until a `SHUTDOWN` request arrives (the heartbeat
    /// thread runs alongside and stops with it), then returns the server's
    /// final counters.
    pub fn run(self) -> ServeSummary {
        let stop = Arc::new(AtomicBool::new(false));
        let heartbeats = {
            let stop = Arc::clone(&stop);
            let coordinator = self.coordinator.clone();
            let worker_id = self.worker_id.clone();
            let addr = if self.advertise.is_empty() {
                self.local_addr().to_string()
            } else {
                self.advertise.clone()
            };
            let interval = self.heartbeat_interval;
            std::thread::spawn(move || {
                heartbeat_loop(&coordinator, &worker_id, &addr, interval, &stop);
            })
        };
        let summary = self.server.run();
        stop.store(true, Ordering::SeqCst);
        let _ = heartbeats.join();
        summary
    }

    /// Spawns [`Worker::run`] on a background thread (tests, benches and the
    /// in-process harness).
    pub fn spawn(self) -> WorkerHandle {
        let addr = self.local_addr();
        let worker_id = self.worker_id.clone();
        let thread = std::thread::spawn(move || self.run());
        WorkerHandle {
            addr,
            worker_id,
            thread,
        }
    }
}

/// A running background worker.
pub struct WorkerHandle {
    addr: SocketAddr,
    worker_id: String,
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl WorkerHandle {
    /// The worker's job-serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The worker id it registers under.
    pub fn worker_id(&self) -> &str {
        &self.worker_id
    }

    /// Waits for the worker to shut down (send `SHUTDOWN` to its serving
    /// address first) and returns its final counters.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread panicked.
    pub fn join(self) -> ServeSummary {
        self.thread.join().expect("worker thread panicked")
    }
}

/// Sends `HEARTBEAT <id> <addr>` to the coordinator every `interval` over a
/// persistent connection, re-dialling after an I/O or protocol error. A
/// missing or restarting coordinator is tolerated indefinitely: the worker
/// just keeps trying, and its first successful beat (re-)registers it. An
/// `ERR` reply keeps the connection: the peer answered, it only refused the
/// beat (it is not a coordinator, or the advertised address is not
/// dialable). The refusal goes to stderr when it first appears and whenever
/// its text changes, and the worker keeps beating, since a coordinator may
/// come up at that address later.
fn heartbeat_loop(
    coordinator: &str,
    worker_id: &str,
    addr: &str,
    interval: Duration,
    stop: &AtomicBool,
) {
    let sent = kecss_obs::counter("fleet_heartbeats_sent_total");
    let mut client: Option<Client> = None;
    let mut refusal: Option<String> = None;
    while !stop.load(Ordering::SeqCst) {
        if client.is_none() {
            client = Client::connect(coordinator)
                .and_then(|mut c| {
                    // Bound the reply read so a wedged coordinator cannot
                    // wedge the heartbeat thread past a few intervals.
                    c.set_read_timeout(Some(interval.max(Duration::from_millis(100)) * 4))?;
                    Ok(c)
                })
                .ok();
        }
        if let Some(c) = client.as_mut() {
            match c.heartbeat(worker_id, addr) {
                Ok(_word) => {
                    sent.inc();
                    refusal = None;
                }
                Err(ClientError::Server(message)) => {
                    if refusal.as_deref() != Some(message.as_str()) {
                        eprintln!("worker {worker_id}: coordinator {coordinator} refused the heartbeat: {message}");
                        refusal = Some(message);
                    }
                }
                Err(_) => client = None,
            }
        }
        // Sleep in small slices so shutdown is prompt even with long
        // intervals.
        let mut remaining = interval;
        while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}
