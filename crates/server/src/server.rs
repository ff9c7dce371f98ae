//! The TCP front-end: the standalone server role on the readiness loop.
//!
//! Accepting, framing and reply delivery all happen on the single
//! [`crate::event_loop`] thread (DESIGN.md §14), whose responder answers
//! every request over the [`Scheduler`]; the actual solving happens on the
//! scheduler's worker pool, so the event thread never blocks. Both
//! wire modes — the text line protocol and `KGW1` binary frames — are served
//! on the same port, sniffed from the first bytes of each connection.
//! `SHUTDOWN` stops accepting and refuses further submissions, then
//! [`Server::run`] drains the in-flight jobs before returning — nothing that
//! was accepted is ever dropped.

use crate::event_loop::{run_event_loop, EventLoopConfig};
use crate::scheduler::{Scheduler, ServeSummary};
use std::net::{SocketAddr, TcpListener};

pub use polling::Backend;

/// Server configuration (the CLI's `kecss serve` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The address to bind, e.g. `127.0.0.1:7461` (port 0 picks one).
    pub addr: String,
    /// Scheduler pool workers.
    pub threads: usize,
    /// Maximum jobs in flight (queued + running) before `BUSY`.
    pub queue_depth: usize,
    /// Maximum requests a single connection may issue before the server
    /// answers `ERR` and closes it (0 means unlimited). Bounds the damage a
    /// stuck client loop can do to a shared server.
    pub max_requests_per_conn: usize,
    /// Maximum unsent reply bytes buffered for one connection before the
    /// slow-client policy answers `ERR` and closes it. Bounds the memory a
    /// stalled reader can pin.
    pub write_queue_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7461".into(),
            threads: 1,
            queue_depth: 16,
            max_requests_per_conn: 0,
            write_queue_limit: 16 << 20,
        }
    }
}

/// A bound, not-yet-running server. Splitting bind from run lets callers
/// learn the ephemeral port (`--addr 127.0.0.1:0`) before the blocking event
/// loop starts.
pub struct Server {
    listener: TcpListener,
    scheduler: Scheduler,
    loop_config: EventLoopConfig,
}

impl Server {
    /// Binds the listener and spins up the scheduler pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        Server::bind_with(config, Scheduler::new(config.threads, config.queue_depth))
    }

    /// Same as [`Server::bind`] with a caller-constructed scheduler (the seam
    /// the integration tests use to attach a
    /// [`crate::scheduler::StartHook`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(config: &ServerConfig, scheduler: Scheduler) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            scheduler,
            loop_config: EventLoopConfig {
                max_requests_per_conn: config.max_requests_per_conn,
                write_queue_limit: config.write_queue_limit.max(1),
                backend: None,
            },
        })
    }

    /// Overrides the readiness backend (tests drive the portable `poll(2)`
    /// fallback through this; production uses the platform default).
    pub fn set_backend(&mut self, backend: polling::Backend) {
        self.loop_config.backend = Some(backend);
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the bound address (it just bound it).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Runs the readiness loop until a `SHUTDOWN` request arrives, then
    /// drains the in-flight jobs and returns the final counters.
    ///
    /// # Panics
    ///
    /// Panics if the readiness poller cannot be constructed (fd exhaustion).
    pub fn run(self) -> ServeSummary {
        run_event_loop(self.listener, &self.scheduler, &self.loop_config)
            .expect("readiness loop failed to start");
        // The loop exits only once the service is idle; the drain is a
        // belt-and-braces barrier before reading the final counters.
        self.scheduler.drain();
        self.scheduler.summary()
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

/// Formats a one-line human summary (used by the CLI and the binary).
pub fn summary_line(summary: &ServeSummary) -> String {
    format!(
        "served {} jobs: {} completed, {} failed, {} cancelled, {} rejected busy",
        summary.submitted, summary.completed, summary.failed, summary.cancelled, summary.rejected
    )
}
