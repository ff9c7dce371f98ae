//! The one serve entry point: a standalone server, a fleet worker and a
//! fleet coordinator all bind, run and join through [`Server`], and differ
//! only in [`ServerConfig::role`] (DESIGN.md §13).
//!
//! Accepting, framing and reply delivery all happen on the single
//! [`crate::event_loop`] thread (DESIGN.md §14), whose responder answers
//! every request over the role's job table: a [`Scheduler`] solving on its
//! own worker pool (standalone and worker), or the fleet table dispatching
//! to registered workers (coordinator), so the event thread never blocks.
//! A coordinator's worker links are connections of that same loop
//! ([`crate::coordinator`]); a worker runs one thread of its own beside it,
//! its heartbeats ([`crate::worker`]). Both wire modes — the text line
//! protocol and `KGW1` binary frames — are served on the same port, sniffed
//! from the first bytes of each connection. `SHUTDOWN` stops accepting and refuses
//! further submissions, then [`Server::run`] drains the in-flight jobs
//! before returning — nothing that was accepted is ever dropped.

use crate::coordinator::Shared;
use crate::event_loop::{run_event_loop, Service};
use crate::scheduler::{Scheduler, ServeSummary};
use crate::worker::heartbeat_loop;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use polling::Backend;

/// Server configuration (the CLI's `kecss serve` flags), for every role.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// The address to bind, e.g. `127.0.0.1:7461` (port 0 picks one).
    pub addr: String,
    /// Scheduler pool workers (a coordinator solves nothing and has none).
    pub threads: usize,
    /// Maximum jobs in flight (queued, assigned or running) before `BUSY`.
    pub queue_depth: usize,
    /// Maximum requests a single connection may issue before the server
    /// answers `ERR` and closes it (0 means unlimited). Bounds the damage a
    /// stuck client loop can do to a shared server. A worker has no limit:
    /// the coordinator sends every job over one link.
    pub max_requests_per_conn: usize,
    /// Maximum unsent reply bytes buffered for one connection before the
    /// slow-client policy answers `ERR` and closes it. Bounds the memory a
    /// stalled reader can pin. A worker's bound is this times its queue
    /// depth: the coordinator's one link carries the replies of every job
    /// held there, so it gets room for one full-size reply per job.
    pub write_queue_limit: usize,
    /// What the server does besides answering requests.
    pub role: Role,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7461".into(),
            threads: 1,
            queue_depth: 16,
            max_requests_per_conn: 0,
            write_queue_limit: 16 << 20,
            role: Role::Standalone,
        }
    }
}

/// The fleet role of a server (DESIGN.md §13).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// One process that accepts clients and solves every job itself.
    Standalone,
    /// A standalone server that also registers with a coordinator by
    /// heartbeating to it, and solves the jobs the coordinator sends.
    Worker {
        /// The coordinator's client-facing address.
        coordinator: String,
        /// The stable id sent in every heartbeat. Empty derives
        /// `worker-<advertised address>`, which is unique in a fleet:
        /// the coordinator dials each worker at that address.
        worker_id: String,
        /// Heartbeat period (at least 10 ms). The coordinator's
        /// `heartbeat_timeout` should be a comfortable multiple of this (the
        /// CLI pairs 500 ms beats with a 3 s timeout).
        heartbeat_interval: Duration,
        /// The address heartbeats advertise for dispatch. Empty advertises
        /// the bound address, which is right whenever the coordinator can
        /// dial it; set it when the bind address is not dialable from the
        /// coordinator (e.g. a `0.0.0.0` bind inside a container — advertise
        /// the service name, as `deployment/docker-compose.yml` does).
        advertise: String,
    },
    /// The fleet control plane: accepts clients and dispatches every job to
    /// a registered worker over the same wire protocol.
    Coordinator {
        /// A worker whose last heartbeat, or oldest unacked `SUBMIT`, is
        /// older than this is lost and its jobs re-queued; it also bounds
        /// each dial (at least 1 ms).
        heartbeat_timeout: Duration,
        /// Worker-loss re-queues a job tolerates before failing.
        max_retries: u32,
    },
}

impl Role {
    /// The one-line summary `kecss serve` prints on exit: `served …`, and
    /// `fleet served …, <n> retries` for a coordinator.
    pub fn summary_line(&self, summary: &ServeSummary) -> String {
        let line = format!(
            "served {} jobs: {} completed, {} failed, {} cancelled, {} rejected busy",
            summary.submitted,
            summary.completed,
            summary.failed,
            summary.cancelled,
            summary.rejected
        );
        match self {
            Role::Coordinator { .. } => format!("fleet {line}, {} retries", summary.retries),
            _ => line,
        }
    }
}

/// A role's job table: what the readiness loop answers over.
enum Table {
    /// Standalone and worker: jobs solved on the local pool.
    Scheduler(Scheduler),
    /// Coordinator: jobs dispatched to the fleet.
    Fleet(Shared),
}

/// A bound, not-yet-running server. Splitting bind from run lets callers
/// learn the ephemeral port (`--addr 127.0.0.1:0`) before the blocking event
/// loop starts.
pub struct Server {
    listener: TcpListener,
    table: Table,
    /// The configuration as bound: a worker's id, advertised address and
    /// connection limits are resolved.
    config: ServerConfig,
    backend: Option<Backend>,
}

impl Server {
    /// Binds the listener and builds the role's job table: a scheduler pool,
    /// or a coordinator's fleet table.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let table = match config.role {
            Role::Coordinator {
                heartbeat_timeout,
                max_retries,
            } => Table::Fleet(Shared::new(
                config.queue_depth,
                heartbeat_timeout.max(Duration::from_millis(1)),
                max_retries,
            )),
            _ => Table::Scheduler(Scheduler::new(config.threads, config.queue_depth)),
        };
        Server::bind_table(config, table)
    }

    /// Same as [`Server::bind`] with a caller-constructed scheduler (the seam
    /// the integration tests use to attach a
    /// [`crate::scheduler::StartHook`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    ///
    /// # Panics
    ///
    /// Panics for [`Role::Coordinator`], which runs no scheduler.
    pub fn bind_with(config: &ServerConfig, scheduler: Scheduler) -> std::io::Result<Server> {
        let coordinator = matches!(config.role, Role::Coordinator { .. });
        assert!(!coordinator, "a coordinator runs no scheduler");
        Server::bind_table(config, Table::Scheduler(scheduler))
    }

    /// Binds the listener and resolves what a worker derives: its limits,
    /// its advertised address and its id.
    fn bind_table(config: &ServerConfig, table: Table) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut config = config.clone();
        config.write_queue_limit = config.write_queue_limit.max(1);
        if let Role::Worker {
            worker_id,
            advertise,
            ..
        } = &mut config.role
        {
            config.max_requests_per_conn = 0;
            config.write_queue_limit =
                (config.write_queue_limit).saturating_mul(config.queue_depth.max(1));
            if advertise.is_empty() {
                *advertise = listener.local_addr()?.to_string();
            }
            if worker_id.is_empty() {
                *worker_id = format!("worker-{advertise}");
            }
        }
        Ok(Server {
            listener,
            table,
            config,
            backend: None,
        })
    }

    /// Overrides the readiness backend (tests drive the portable `poll(2)`
    /// fallback through this; production uses the platform default).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = Some(backend);
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the bound address (it just bound it).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// The line `kecss serve` prints once bound, naming the role and the
    /// bound address after `listening on` (kbench and the CI scripts read
    /// it from there).
    pub fn banner(&self) -> String {
        let (addr, config) = (self.local_addr(), &self.config);
        let (threads, depth) = (config.threads.max(1), config.queue_depth.max(1));
        match &config.role {
            Role::Standalone => {
                format!("kecss serve listening on {addr} (threads={threads}, queue-depth={depth})")
            }
            Role::Worker {
                coordinator,
                worker_id,
                heartbeat_interval,
                ..
            } => format!(
                "kecss worker {worker_id} listening on {addr} (coordinator={coordinator}, \
                 heartbeat={}ms, threads={threads}, queue-depth={depth})",
                heartbeat_interval.as_millis()
            ),
            Role::Coordinator {
                heartbeat_timeout,
                max_retries,
            } => format!(
                "kecss coordinator listening on {addr} (queue-depth={depth}, \
                 heartbeat-timeout={}ms, max-retries={max_retries})",
                heartbeat_timeout.as_millis()
            ),
        }
    }

    /// Runs the readiness loop — and beside it a worker's heartbeats —
    /// until a `SHUTDOWN` request arrives; then drains the in-flight jobs,
    /// stops the heartbeats and returns the final counters. A coordinator's
    /// drain needs live workers: one shut down with queued jobs and no
    /// workers waits until a worker registers (heartbeats on already-open
    /// connections are still served; only new connects are refused).
    ///
    /// # Panics
    ///
    /// Panics if the readiness poller cannot be constructed (fd exhaustion).
    pub fn run(self) -> ServeSummary {
        let stop = Arc::new(AtomicBool::new(false));
        let (service, coordinator): (&dyn Service, _) = match &self.table {
            Table::Fleet(fleet) => (fleet, Some(fleet)),
            Table::Scheduler(scheduler) => (scheduler, None),
        };
        let beats = match &self.config.role {
            Role::Worker {
                coordinator,
                worker_id,
                heartbeat_interval,
                advertise,
            } => {
                let (coordinator, worker_id, advertise) =
                    (coordinator.clone(), worker_id.clone(), advertise.clone());
                let interval = (*heartbeat_interval).max(Duration::from_millis(10));
                let stop = Arc::clone(&stop);
                Some(std::thread::spawn(move || {
                    heartbeat_loop(&coordinator, &worker_id, &advertise, interval, &stop);
                }))
            }
            _ => None,
        };
        run_event_loop(
            self.listener,
            service,
            &self.config,
            self.backend,
            coordinator,
        )
        .expect("readiness loop failed to start");
        // The loop returns once every admitted job is terminal.
        stop.store(true, Ordering::SeqCst);
        if let Some(beats) = beats {
            beats.join().expect("the heartbeat thread panicked");
        }
        match &self.table {
            Table::Scheduler(scheduler) => {
                scheduler.drain();
                scheduler.summary()
            }
            Table::Fleet(fleet) => fleet.summary(),
        }
    }

    /// Spawns [`Server::run`] on a background thread (the form the tests and
    /// the in-process harness use).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

/// A running background server.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to shut down (send `SHUTDOWN` first) and returns
    /// its final counters.
    ///
    /// # Panics
    ///
    /// Panics if the server thread panicked.
    pub fn join(self) -> ServeSummary {
        self.thread.join().expect("server thread panicked")
    }
}
