//! The readiness loop: one thread, every connection (DESIGN.md §14).
//!
//! The previous front-end spawned an OS thread per accepted socket; this
//! module replaces it with a single non-blocking loop over a level-triggered
//! [`polling::Poller`] (epoll on Linux, portable `poll(2)` fallback). Every
//! role — standalone server, worker, coordinator — serves on this loop, and
//! one responder answers every request for all of them: what differs per
//! role is only its job table, behind the [`Service`] trait. A client
//! therefore cannot tell a coordinator from a standalone server by the
//! verbs they share (DESIGN.md §13). The loop's one caller is
//! [`crate::server::Server::run`].
//!
//! Per-connection state machine:
//!
//! ```text
//!   Sniff ──("KGW1")──> Binary ──┐
//!     │                          ├──> decode request ──> respond
//!     └──(anything else)> Text ──┘          │
//!                                           ├─ Line(r)      -> queue reply bytes
//!                                           ├─ Subscribe(id)-> park until completion
//!                                           └─ Shutdown(r)  -> queue, drop listener, drain
//! ```
//!
//! **The event thread never blocks**: solver work runs on the scheduler's
//! worker threads (or on fleet workers); reads and writes are
//! nonblocking with pending bytes parked in per-connection queues.
//!
//! **Push-on-complete**: a `RESULT WAIT` subscribes its connection to the
//! job id. The [`Service`] installs a completion hook into its job table;
//! when a job goes terminal the hook pushes the id onto a ready list and
//! [`polling::Poller::notify`]s the loop, which delivers the reply — no code
//! path anywhere polls for results. The hook-fires-before-subscribe race is
//! closed by re-checking [`Service::fetch`] immediately after registering a
//! waiter.
//!
//! **Replies are sent without copying their payloads**: a connection's
//! output is one queue of rendered heads and shared bodies. A reply's head
//! ([`Response::text_head`] or [`wire::encode_response_head`]) is appended
//! to the queue's tail buffer, where small replies coalesce, and a
//! `RESULT`, `METRICS` or `FLEET` body follows as a reference to the
//! [`Response`]'s `Arc`. The queue is written with `writev`.
//!
//! **Backpressure**: each connection's unsent reply bytes, queued bodies
//! included, are bounded by [`ServerConfig::write_queue_limit`]. A reader
//! stalled past that bound gets its queue replaced by one final `ERR` and
//! the connection closed (counted under
//! `server_conn_limit_total{kind="write"}`) — one stalled client can neither
//! wedge the loop nor grow the server's memory.
//!
//! **Determinism**: the loop orders replies, never payload bytes. Payloads
//! are produced by the pure [`crate::job::run`] and stored by the scheduler;
//! text and binary framing both serialize the same [`Response`] values, so
//! connection interleaving and wire mode cannot influence result bytes.

use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::scheduler::{CompletionHook, JobId, JobState, Outcome};
use crate::server::ServerConfig;
use crate::wire;
use polling::{Backend, Event, Interest, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The longest text request line the server will buffer (inline instances
/// are the only long requests). Bounding it keeps a malicious client from
/// growing the read buffer without ever sending a newline.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// How long the loop keeps flushing pending replies to slow readers after
/// the shutdown drain completes, before closing them unconditionally.
const SHUTDOWN_FLUSH_CAP: Duration = Duration::from_secs(5);

/// What the loop should do with a handled request.
enum ServiceReply {
    /// Answer immediately.
    Line(Response),
    /// Park the request: push [`pushed_reply`] when job `id` reaches a
    /// terminal state (`RESULT WAIT` on a live job).
    Subscribe(JobId),
    /// Answer immediately **and** park for job `id`'s terminal push (the
    /// wait-flagged binary `SUBMIT`: the ack and the result subscription
    /// from one request).
    LineAndSubscribe(Response, JobId),
    /// Answer, then stop accepting, drain in-flight jobs and exit the loop.
    Shutdown(Response),
}

/// The role-specific half of the front-end: the role's job table. The
/// standalone scheduler and the fleet coordinator each implement it, and the
/// loop's one responder answers every request over it. All methods are
/// called from the event thread except the completion hook, which job
/// workers fire.
pub trait Service: Send + Sync {
    /// The per-verb request counter this role counts under
    /// (`server_requests_total` or `fleet_requests_total`).
    fn requests_metric(&self) -> &'static str;

    /// Admits a job and returns its id.
    ///
    /// # Errors
    ///
    /// [`kecss::Error::JobQueueFull`] (answered `BUSY`) or
    /// [`kecss::Error::ServiceShuttingDown`].
    fn submit(&self, spec: JobSpec) -> kecss::error::Result<JobId>;

    /// A job's state, or `None` for an unknown id.
    fn status(&self, id: JobId) -> Option<JobState>;

    /// A terminal job's outcome, fetched once ([`Outcome::fetch`]); `None`
    /// while the job is in flight, or for an unknown id.
    fn fetch(&self, id: JobId) -> Option<Outcome>;

    /// Cancels a queued job.
    ///
    /// # Errors
    ///
    /// The state that prevented cancellation, or `None` for an unknown id.
    fn cancel(&self, id: JobId) -> Result<(), Option<JobState>>;

    /// Refuses every later submission (`SHUTDOWN`).
    fn close(&self);

    /// True when no job is queued or running (the shutdown drain's exit
    /// condition).
    fn idle(&self) -> bool;

    /// Installs the completion hook the loop uses for push delivery and
    /// drain wakeups. Called once before the loop starts.
    fn set_completion_hook(&self, hook: CompletionHook);

    /// Answers `HEARTBEAT`. Only a coordinator registers workers; every
    /// other role refuses, so a client pointed at the wrong role finds out
    /// at once.
    fn heartbeat(&self, _worker: String, _addr: String) -> Response {
        Response::Err(NOT_A_COORDINATOR.into())
    }

    /// Answers `FLEET` (the coordinator's status text; refused elsewhere).
    fn fleet(&self) -> Response {
        Response::Err(NOT_A_COORDINATOR.into())
    }
}

const NOT_A_COORDINATOR: &str =
    "not a fleet coordinator (HEARTBEAT/FLEET need `kecss serve --role coordinator`)";

/// Answers one request over the role's job table. Metrics are recorded
/// out-of-band only (DESIGN.md §11), and per-verb counters fire identically
/// for text and binary connections.
fn respond(jobs: &dyn Service, request: Request) -> ServiceReply {
    kecss_obs::counter_with(jobs.requests_metric(), &[("verb", request.verb())]).inc();
    let unknown = |id: JobId| ServiceReply::Line(Response::Err(format!("unknown job {id}")));
    let reply = match request {
        // Admission control lives in the job table, under its lock: after a
        // SHUTDOWN closes it, submissions are refused, and any submission
        // admitted before the close is visible to the shutdown drain. The
        // wait-flagged variant also parks the connection for the terminal
        // push, but only when the job was admitted.
        Request::Submit(spec) => ServiceReply::Line(admission(jobs.submit(spec))),
        Request::SubmitWait(spec) => match jobs.submit(spec) {
            Ok(id) => ServiceReply::LineAndSubscribe(admission(Ok(id)), id),
            refused => ServiceReply::Line(admission(refused)),
        },
        Request::Status(id) => match jobs.status(id) {
            Some(state) => ServiceReply::Line(Response::Ok(format!("{id} {}", state.wire_name()))),
            None => unknown(id),
        },
        // Fetched-once: the first RESULT of a finished job takes its
        // payload, and a repeat RESULT for the id answers GONE.
        Request::Result(id) => match jobs.status(id) {
            Some(state) => ServiceReply::Line(match jobs.fetch(id) {
                Some(outcome) => outcome.into_response(id),
                None => Response::Wait {
                    id,
                    state: state.wire_name(),
                },
            }),
            None => unknown(id),
        },
        // Known job: park the connection. An already-terminal job is
        // answered by the subscribe-time re-check.
        Request::ResultWait(id) => match jobs.status(id) {
            Some(_) => ServiceReply::Subscribe(id),
            None => unknown(id),
        },
        Request::Cancel(id) => match jobs.cancel(id) {
            Ok(()) => ServiceReply::Line(Response::Ok(format!("{id} CANCELLED"))),
            Err(None) => unknown(id),
            Err(Some(state)) => ServiceReply::Line(Response::Err(if state.is_terminal() {
                format!("job {id} already finished")
            } else {
                format!("job {id} is already {}", state.wire_name().to_lowercase())
            })),
        },
        // Framed with the byte length, then the text exposition verbatim
        // (it is multi-line, so line framing alone cannot carry it).
        Request::Metrics => ServiceReply::Line(Response::Metrics(Arc::new(
            kecss_obs::Registry::global().render().into_bytes(),
        ))),
        Request::Heartbeat { worker, addr } => ServiceReply::Line(jobs.heartbeat(worker, addr)),
        Request::Fleet => ServiceReply::Line(jobs.fleet()),
        // Close the table first (authoritative, under the admission lock);
        // the loop stops accepting and drains. Everything admitted up to the
        // close is served; everything after is refused.
        Request::Shutdown => {
            jobs.close();
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

/// The reply to a `SUBMIT`: its ack, `BUSY` at the depth bound, or `ERR`.
fn admission(admitted: kecss::error::Result<JobId>) -> Response {
    match admitted {
        Ok(id) => Response::Ok(format!("{id} QUEUED")),
        Err(kecss::Error::JobQueueFull { depth }) => Response::Busy(depth as u64),
        Err(other) => Response::Err(other.to_string()),
    }
}

/// The pushed reply for a subscribed job, or `None` while it is still in
/// flight. Fetched-once applies: the first subscriber takes the payload,
/// later ones see `GONE`.
fn pushed_reply(jobs: &dyn Service, id: JobId) -> Option<Response> {
    let response = jobs.fetch(id)?.into_response(id);
    classify_response(&response);
    Some(response)
}

/// Counts the reply-classification metrics (`BUSY`/`GONE`/request-`ERR`) of
/// immediate and pushed replies.
fn classify_response(response: &Response) {
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

/// Wire mode of one connection.
enum Mode {
    /// Undecided: fewer than 4 bytes seen and they could still be the
    /// binary preamble.
    Sniff,
    /// Line-framed text (the default; byte-compatible with every prior PR).
    Text,
    /// `KGW1` binary frames.
    Binary,
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into a complete request.
    buf: Vec<u8>,
    /// Replies not yet written to the socket.
    out: OutQueue,
    mode: Mode,
    /// Requests handled (for `max_requests_per_conn`).
    served: usize,
    /// Close once `out` is flushed.
    closing: bool,
    /// Whether the poller registration currently includes write interest.
    wants_write: bool,
}

/// One piece of a connection's unsent reply stream.
enum Chunk {
    /// Rendered bytes: reply heads and whole one-line replies, coalesced.
    Owned(Vec<u8>),
    /// A reply body shared with its [`Response`] (`RESULT`, `METRICS`,
    /// `FLEET`), queued by reference.
    Shared(Arc<Vec<u8>>),
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared(bytes) => bytes,
        }
    }
}

/// The most chunks one `writev` hands the kernel.
const MAX_WRITE_SLICES: usize = 32;

/// A connection's reply stream: owned heads and shared bodies in wire
/// order, written with `writev`. A reply's head is appended to the tail
/// owned chunk, so consecutive small replies share one buffer, and its body
/// follows as a reference, so no payload is copied to be sent.
#[derive(Default)]
struct OutQueue {
    chunks: VecDeque<Chunk>,
    /// Bytes of the front chunk already written.
    sent: usize,
    /// Unsent bytes over all chunks, body bytes included: what the
    /// write-queue bound counts.
    pending: usize,
}

impl OutQueue {
    /// Queues `response` in the connection's wire mode.
    fn push(&mut self, mode: &Mode, response: &Response) {
        if !matches!(self.chunks.back(), Some(Chunk::Owned(_))) {
            // Room for a typical head without regrowing.
            self.chunks.push_back(Chunk::Owned(Vec::with_capacity(64)));
        }
        let Some(Chunk::Owned(tail)) = self.chunks.back_mut() else {
            unreachable!("an owned tail was just ensured")
        };
        let before = tail.len();
        let body = match mode {
            Mode::Binary => wire::encode_response_head(response, tail),
            // A connection that never sent a byte (Sniff) is answered in text.
            Mode::Text | Mode::Sniff => response.text_head(tail),
        };
        self.pending += tail.len() - before;
        if let Some(body) = body {
            self.pending += body.len();
            self.chunks.push_back(Chunk::Shared(Arc::clone(body)));
        }
    }

    /// Drops the first `n` unsent bytes, which the socket accepted.
    fn consume(&mut self, mut n: usize) {
        self.pending -= n;
        while let Some(front) = self.chunks.front() {
            let left = front.bytes().len() - self.sent;
            if n < left {
                self.sent += n;
                return;
            }
            n -= left;
            self.sent = 0;
            self.chunks.pop_front();
        }
    }

    /// Writes as much of the queue as the socket accepts. Returns `false`
    /// when the connection is dead.
    fn flush(&mut self, stream: &mut TcpStream) -> bool {
        while self.pending > 0 {
            let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
            for (slice, chunk) in slices.iter_mut().zip(&self.chunks) {
                *slice = IoSlice::new(chunk.bytes());
            }
            slices[0] = IoSlice::new(&self.chunks[0].bytes()[self.sent..]);
            let count = self.chunks.len().min(MAX_WRITE_SLICES);
            match stream.write_vectored(&slices[..count]) {
                Ok(0) => return false,
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

/// The poller key reserved for the listener.
const LISTENER_KEY: usize = 0;

/// Runs the readiness loop until a `SHUTDOWN` request has been answered and
/// the service has drained. Consumes the listener (it is dropped the moment
/// shutdown begins, so late connects are refused by the OS). Each
/// connection is bounded by `config`'s request limit and write-queue bound;
/// `backend` overrides the platform's readiness backend.
///
/// # Errors
///
/// Propagates poller-construction and listener-registration failures; per
/// connection I/O errors just close that connection.
pub(crate) fn run_event_loop(
    listener: TcpListener,
    service: &dyn Service,
    config: &ServerConfig,
    backend: Option<Backend>,
) -> std::io::Result<()> {
    let poller = Arc::new(match backend {
        Some(backend) => Poller::with_backend(backend)?,
        None => Poller::new()?,
    });
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)?;
    let mut listener = Some(listener);

    // Completed job ids, pushed by pool workers, drained by the loop.
    let ready: Arc<Mutex<Vec<JobId>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let ready = Arc::clone(&ready);
        let waker = Arc::clone(&poller);
        service.set_completion_hook(Arc::new(move |id| {
            ready.lock().expect("ready list poisoned").push(id);
            let _ = waker.notify();
        }));
    }

    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut waiters: HashMap<JobId, Vec<usize>> = HashMap::new();
    let mut next_key: usize = LISTENER_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut shutting_down = false;
    let mut flush_deadline: Option<Instant> = None;

    loop {
        // Exit: shutdown requested, every accepted job terminal, every
        // pushed reply delivered, and every queued byte flushed (or the
        // flush cap for stalled readers has lapsed).
        if shutting_down && service.idle() && ready.lock().expect("ready list poisoned").is_empty()
        {
            let unflushed = conns.values().any(|c| c.out.pending > 0);
            let expired = flush_deadline.is_some_and(|d| Instant::now() >= d);
            if !unflushed || expired {
                return Ok(());
            }
        }

        let timeout = if shutting_down {
            // Belt and braces: re-check the drain condition periodically
            // even if a wakeup is lost.
            Some(Duration::from_millis(100))
        } else {
            None
        };
        poller.wait(&mut events, timeout)?;

        let round: Vec<Event> = std::mem::take(&mut events);
        for event in round {
            if event.key == LISTENER_KEY {
                accept_ready(&poller, &mut listener, &mut conns, &mut next_key);
                continue;
            }
            let Some(conn) = conns.get_mut(&event.key) else {
                continue;
            };
            let mut dead = false;
            if event.readable && conn.closing {
                // Drain and discard: a closing connection's socket must not
                // keep reporting readable forever (level-triggered).
                dead = !discard_input(conn);
            } else if event.readable {
                dead = !read_ready(
                    conn,
                    service,
                    config,
                    &mut waiters,
                    event.key,
                    &mut shutting_down,
                );
                if shutting_down && listener.is_some() {
                    // Stop accepting the moment shutdown is requested; the
                    // OS refuses late connects once the fd closes.
                    if let Some(l) = listener.take() {
                        let _ = poller.delete(l.as_raw_fd());
                    }
                }
            }
            if !dead && (event.writable || conn.out.pending > 0) {
                dead = !conn.out.flush(&mut conn.stream);
            }
            if dead || (conn.closing && conn.out.pending == 0) {
                let conn = conns.remove(&event.key).expect("conn exists");
                let _ = poller.delete(conn.stream.as_raw_fd());
            } else {
                sync_write_interest(&poller, event.key, conn);
            }
        }

        // Deliver push-on-complete replies for jobs that went terminal.
        let done: Vec<JobId> = std::mem::take(&mut *ready.lock().expect("ready list poisoned"));
        for id in done {
            let Some(keys) = waiters.remove(&id) else {
                continue;
            };
            for key in keys {
                // A waiter whose connection died must not consume the
                // payload: skip it before calling `pushed_reply`.
                let Some(conn) = conns.get_mut(&key) else {
                    continue;
                };
                let Some(reply) = pushed_reply(service, id) else {
                    // Not terminal after all (cannot happen for hook-pushed
                    // ids, but a lost entry must not wedge the waiter).
                    waiters.entry(id).or_default().push(key);
                    continue;
                };
                queue_reply(conn, config, &reply);
                if !conn.out.flush(&mut conn.stream) || (conn.closing && conn.out.pending == 0) {
                    let conn = conns.remove(&key).expect("conn exists");
                    let _ = poller.delete(conn.stream.as_raw_fd());
                } else {
                    sync_write_interest(&poller, key, conn);
                }
            }
        }

        if shutting_down && flush_deadline.is_none() {
            flush_deadline = Some(Instant::now() + SHUTDOWN_FLUSH_CAP);
        }
    }
}

/// Accepts every pending connection (level-triggered: stop at `WouldBlock`).
fn accept_ready(
    poller: &Poller,
    listener: &mut Option<TcpListener>,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    let Some(listener) = listener.as_ref() else {
        return;
    };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let key = *next_key;
                *next_key += 1;
                if poller
                    .add(stream.as_raw_fd(), key, Interest::READABLE)
                    .is_err()
                {
                    // fd exhaustion or similar: drop the connection, keep
                    // serving the others.
                    kecss_obs::counter_with("server_conn_limit_total", &[("kind", "register")])
                        .inc();
                    continue;
                }
                conns.insert(
                    key,
                    Conn {
                        stream,
                        buf: Vec::new(),
                        out: OutQueue::default(),
                        mode: Mode::Sniff,
                        served: 0,
                        closing: false,
                        wants_write: false,
                    },
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Reads and discards a closing connection's input so a level-triggered
/// readable socket cannot spin the loop. Returns `false` when the peer is
/// gone.
fn discard_input(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Reads whatever the socket has, parses complete requests and dispatches
/// them. Returns `false` when the connection is dead (EOF or I/O error).
fn read_ready(
    conn: &mut Conn,
    service: &dyn Service,
    config: &ServerConfig,
    waiters: &mut HashMap<JobId, Vec<usize>>,
    key: usize,
    shutting_down: &mut bool,
) -> bool {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                if !process_buffer(conn, service, config, waiters, key, shutting_down) {
                    return false;
                }
                if conn.closing {
                    return true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Parses and dispatches every complete request currently buffered. Returns
/// `false` to drop the connection immediately (unrecoverable framing).
fn process_buffer(
    conn: &mut Conn,
    service: &dyn Service,
    config: &ServerConfig,
    waiters: &mut HashMap<JobId, Vec<usize>>,
    key: usize,
    shutting_down: &mut bool,
) -> bool {
    loop {
        if conn.closing {
            return true;
        }
        match conn.mode {
            Mode::Sniff => {
                if conn.buf.first().is_some_and(|b| *b != wire::PREAMBLE[0]) {
                    conn.mode = Mode::Text;
                    continue;
                }
                if conn.buf.len() < wire::PREAMBLE.len() {
                    return true; // need more bytes
                }
                if conn.buf[..4] == wire::PREAMBLE {
                    conn.buf.drain(..4);
                    conn.mode = Mode::Binary;
                } else {
                    // Starts with 'K' but is not the preamble: no text verb
                    // does, so let the text parser produce its error.
                    conn.mode = Mode::Text;
                }
            }
            Mode::Text => {
                let Some(pos) = conn.buf.iter().position(|b| *b == b'\n') else {
                    if conn.buf.len() >= MAX_REQUEST_LINE {
                        // The limit cut the line short: refuse and drop
                        // (resynchronizing mid-line is not worth the
                        // ambiguity).
                        kecss_obs::counter_with("server_conn_limit_total", &[("kind", "line")])
                            .inc();
                        let refusal = Response::Err("request line exceeds the size limit".into());
                        queue_reply(conn, config, &refusal);
                        conn.closing = true;
                    }
                    return true;
                };
                let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                if !check_request_budget(conn, config) {
                    return true;
                }
                let Ok(text) = std::str::from_utf8(&line) else {
                    return false; // not a text protocol client after all
                };
                match Request::parse(text.trim_end()) {
                    Ok(request) => {
                        dispatch(conn, service, config, waiters, key, shutting_down, request);
                    }
                    Err(message) => {
                        kecss_obs::counter_with("server_reply_err_total", &[("cause", "parse")])
                            .inc();
                        queue_reply(conn, config, &Response::Err(message));
                    }
                }
            }
            Mode::Binary => {
                if conn.buf.len() < wire::FRAME_HEADER_BYTES {
                    return true;
                }
                let header: [u8; wire::FRAME_HEADER_BYTES] = conn.buf[..wire::FRAME_HEADER_BYTES]
                    .try_into()
                    .expect("sized");
                let (opcode, flags, body_len) = match wire::parse_frame_header(&header) {
                    Ok(parsed) => parsed,
                    Err(message) => {
                        // An over-cap frame cannot be skipped (its length is
                        // the lie); answer and drop.
                        kecss_obs::counter_with("server_conn_limit_total", &[("kind", "frame")])
                            .inc();
                        queue_reply(conn, config, &Response::Err(message));
                        conn.closing = true;
                        return true;
                    }
                };
                if conn.buf.len() < wire::FRAME_HEADER_BYTES + body_len {
                    return true; // frame body still in flight
                }
                let body: Vec<u8> = conn
                    .buf
                    .drain(..wire::FRAME_HEADER_BYTES + body_len)
                    .skip(wire::FRAME_HEADER_BYTES)
                    .collect();
                if !check_request_budget(conn, config) {
                    return true;
                }
                match wire::decode_request(opcode, flags, &body) {
                    Ok(request) => {
                        dispatch(conn, service, config, waiters, key, shutting_down, request);
                    }
                    Err(message) => {
                        kecss_obs::counter_with("server_reply_err_total", &[("cause", "parse")])
                            .inc();
                        queue_reply(conn, config, &Response::Err(message));
                    }
                }
            }
        }
    }
}

/// Enforces `max_requests_per_conn`; queues the refusal and closes when the
/// budget is spent. Returns `false` when the request must not be served.
fn check_request_budget(conn: &mut Conn, config: &ServerConfig) -> bool {
    let max = config.max_requests_per_conn;
    if max != 0 && conn.served >= max {
        kecss_obs::counter_with("server_conn_limit_total", &[("kind", "requests")]).inc();
        queue_reply(
            conn,
            config,
            &Response::Err(format!("connection exceeded {max} requests")),
        );
        conn.closing = true;
        return false;
    }
    conn.served += 1;
    true
}

/// Hands one parsed request to the service and queues the reply (or parks a
/// subscription).
fn dispatch(
    conn: &mut Conn,
    service: &dyn Service,
    config: &ServerConfig,
    waiters: &mut HashMap<JobId, Vec<usize>>,
    key: usize,
    shutting_down: &mut bool,
    request: Request,
) {
    match respond(service, request) {
        ServiceReply::Line(response) => queue_reply(conn, config, &response),
        ServiceReply::Subscribe(id) => subscribe(conn, service, config, waiters, key, id),
        ServiceReply::LineAndSubscribe(response, id) => {
            // Ack first so the wire order is always ack-then-result, then
            // park exactly like a RESULT WAIT.
            queue_reply(conn, config, &response);
            subscribe(conn, service, config, waiters, key, id);
        }
        ServiceReply::Shutdown(response) => {
            queue_reply(conn, config, &response);
            *shutting_down = true;
        }
    }
}

/// Parks connection `key` for job `id`'s terminal push, closing the
/// completed-before-subscribed race: the completion hook may have fired (and
/// been drained) before the waiter was registered, so check the terminal
/// state now. If the job completes between registration and this check, both
/// the check and the hook see it — the fetched-once table makes the second
/// delivery a GONE, and `waiters` is emptied for this id either way before
/// any duplicate could queue.
fn subscribe(
    conn: &mut Conn,
    service: &dyn Service,
    config: &ServerConfig,
    waiters: &mut HashMap<JobId, Vec<usize>>,
    key: usize,
    id: JobId,
) {
    waiters.entry(id).or_default().push(key);
    if let Some(response) = pushed_reply(service, id) {
        if let Some(keys) = waiters.get_mut(&id) {
            keys.retain(|k| *k != key);
            if keys.is_empty() {
                waiters.remove(&id);
            }
        }
        queue_reply(conn, config, &response);
    }
}

/// Queues a [`Response`] in the connection's wire mode, enforcing the
/// slow-client write-queue bound: on overflow the unsent queue is replaced
/// by one final `ERR` and the connection is marked closing. (The replaced
/// bytes may include a torn partial reply — the client was stalled past the
/// bound and is being disconnected; the `ERR` is best-effort diagnosis.)
fn queue_reply(conn: &mut Conn, config: &ServerConfig, response: &Response) {
    if conn.closing {
        return;
    }
    conn.out.push(&conn.mode, response);
    if conn.out.pending > config.write_queue_limit {
        kecss_obs::counter_with("server_conn_limit_total", &[("kind", "write")]).inc();
        conn.out = OutQueue::default();
        let err = Response::Err(format!(
            "write queue exceeded {} bytes; closing slow connection",
            config.write_queue_limit
        ));
        conn.out.push(&conn.mode, &err);
        conn.closing = true;
    }
}

/// Keeps the poller's write interest in sync with whether the connection has
/// pending output.
fn sync_write_interest(poller: &Poller, key: usize, conn: &mut Conn) {
    let want = conn.out.pending > 0;
    if want != conn.wants_write {
        let interest = if want {
            Interest::READABLE_WRITABLE
        } else {
            Interest::READABLE
        };
        if poller
            .modify(conn.stream.as_raw_fd(), key, interest)
            .is_ok()
        {
            conn.wants_write = want;
        }
    }
}
