//! The TCP front-end: the standalone server role on the readiness loop.
//!
//! Accepting, framing and reply delivery all happen on the single
//! [`crate::event_loop`] thread (DESIGN.md §14); the actual solving happens
//! on the scheduler's worker pool, so the event thread never blocks. Both
//! wire modes — the text line protocol and `KGW1` binary frames — are served
//! on the same port, sniffed from the first bytes of each connection.
//! `SHUTDOWN` stops accepting and refuses further submissions, then
//! [`Server::run`] drains the in-flight jobs before returning — nothing that
//! was accepted is ever dropped.

use crate::event_loop::{run_event_loop, EventLoopConfig, Service, ServiceReply};
use crate::protocol::{Request, Response};
use crate::scheduler::{CompletionHook, JobId, Scheduler, ServeSummary};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

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
    scheduler: Arc<Scheduler>,
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
            scheduler: Arc::new(scheduler),
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
        let service: Arc<dyn Service> = Arc::new(ServerService {
            scheduler: Arc::clone(&self.scheduler),
        });
        run_event_loop(self.listener, &service, &self.loop_config)
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

/// The standalone role behind the readiness loop: scheduler-backed request
/// handling. Metrics are recorded out-of-band only: the response bytes for
/// every job-facing verb are exactly what they were before instrumentation
/// (DESIGN.md §11), and per-verb counters fire identically for text and
/// binary connections.
struct ServerService {
    scheduler: Arc<Scheduler>,
}

/// Counts the reply-classification metrics (`BUSY`/`GONE`/request-`ERR`),
/// shared by immediate and pushed replies of both roles.
pub(crate) fn classify_response(response: &Response) {
    if !kecss_obs::enabled() {
        return;
    }
    match response {
        Response::Busy(_) => kecss_obs::counter("server_reply_busy_total").inc(),
        Response::Gone(_) => kecss_obs::counter("server_reply_gone_total").inc(),
        Response::Err(_) => {
            kecss_obs::counter_with("server_reply_err_total", &[("cause", "request")]).inc();
        }
        _ => {}
    }
}

impl Service for ServerService {
    fn respond(&self, request: Request) -> ServiceReply {
        kecss_obs::counter_with("server_requests_total", &[("verb", request.verb())]).inc();
        let reply = match request {
            // Admission control lives in the scheduler, under its table
            // lock: after a SHUTDOWN closes the scheduler, this returns
            // `ServiceShuttingDown`, and any submission admitted before the
            // close is visible to the shutdown drain. The wait-flagged
            // variant additionally parks the connection for the terminal
            // push — but only when the job was actually admitted.
            Request::Submit(spec) => match self.scheduler.submit(spec) {
                Ok(id) => ServiceReply::Line(Response::Ok(format!("{id} QUEUED"))),
                Err(kecss::Error::JobQueueFull { depth }) => {
                    ServiceReply::Line(Response::Busy(depth as u64))
                }
                Err(other) => ServiceReply::Line(Response::Err(other.to_string())),
            },
            Request::SubmitWait(spec) => match self.scheduler.submit(spec) {
                Ok(id) => ServiceReply::LineAndSubscribe(Response::Ok(format!("{id} QUEUED")), id),
                Err(kecss::Error::JobQueueFull { depth }) => {
                    ServiceReply::Line(Response::Busy(depth as u64))
                }
                Err(other) => ServiceReply::Line(Response::Err(other.to_string())),
            },
            Request::Status(id) => match self.scheduler.status(id) {
                Some(status) => {
                    ServiceReply::Line(Response::Ok(format!("{id} {}", status.wire_name())))
                }
                None => ServiceReply::Line(Response::Err(format!("unknown job {id}"))),
            },
            Request::Result(id) => {
                match (self.scheduler.status(id), self.scheduler.take_result(id)) {
                    (None, _) => ServiceReply::Line(Response::Err(format!("unknown job {id}"))),
                    (Some(status), None) => ServiceReply::Line(Response::Wait {
                        id,
                        state: status.wire_name(),
                    }),
                    // Fetched-once: `take_result` dropped the payload from
                    // the table; a repeat RESULT for this id answers GONE.
                    (_, Some(outcome)) => ServiceReply::Line(outcome.into_response(id)),
                }
            }
            Request::ResultWait(id) => match self.scheduler.status(id) {
                None => ServiceReply::Line(Response::Err(format!("unknown job {id}"))),
                // Known job: park the connection. Already-terminal jobs are
                // answered by the subscribe-time re-check in the loop.
                Some(_) => ServiceReply::Subscribe(id),
            },
            Request::Cancel(id) => match self.scheduler.cancel(id) {
                Ok(()) => ServiceReply::Line(Response::Ok(format!("{id} CANCELLED"))),
                Err(message) => ServiceReply::Line(Response::Err(message)),
            },
            Request::Metrics => {
                // Framed with the byte length, then the text exposition
                // verbatim (it is multi-line, so line framing alone cannot
                // carry it).
                let text = kecss_obs::Registry::global().render();
                ServiceReply::Line(Response::Metrics(Arc::new(text.into_bytes())))
            }
            // Fleet verbs are the coordinator's alone: a standalone server
            // (and a worker, which serves this same path) refuses them, so a
            // client pointed at the wrong role finds out immediately.
            Request::Heartbeat { .. } | Request::Fleet => ServiceReply::Line(Response::Err(
                "not a fleet coordinator (HEARTBEAT/FLEET need `kecss serve --role coordinator`)"
                    .into(),
            )),
            Request::Shutdown => {
                // Close the scheduler first (authoritative, under the
                // admission lock); the loop stops accepting and drains.
                // Everything admitted up to the close is served; everything
                // after is refused.
                self.scheduler.close();
                ServiceReply::Shutdown(Response::Ok("SHUTDOWN".into()))
            }
        };
        if let ServiceReply::Line(response)
        | ServiceReply::Shutdown(response)
        | ServiceReply::LineAndSubscribe(response, _) = &reply
        {
            classify_response(response);
        }
        reply
    }

    fn result_reply(&self, id: JobId) -> Option<Response> {
        let response = self.scheduler.take_result(id)?.into_response(id);
        classify_response(&response);
        Some(response)
    }

    fn idle(&self) -> bool {
        self.scheduler.inflight() == 0
    }

    fn install_completion_hook(&self, hook: CompletionHook) {
        self.scheduler.set_completion_hook(hook);
    }
}

/// Formats a one-line human summary (used by the CLI and the binary).
pub fn summary_line(summary: &ServeSummary) -> String {
    format!(
        "served {} jobs: {} completed, {} failed, {} cancelled, {} rejected busy",
        summary.submitted, summary.completed, summary.failed, summary.cancelled, summary.rejected
    )
}
