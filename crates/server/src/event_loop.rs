//! The readiness loop: one thread, every connection (DESIGN.md §14).
//!
//! The previous front-end spawned an OS thread per accepted socket; this
//! module replaces it with a single non-blocking loop over a level-triggered
//! [`polling::Poller`] (epoll on Linux, portable `poll(2)` fallback). Every
//! role — standalone server, worker, coordinator — serves on this loop; the
//! role-specific request handling sits behind the [`Service`] trait.
//!
//! Per-connection state machine:
//!
//! ```text
//!   Sniff ──("KGW1")──> Binary ──┐
//!     │                          ├──> decode request ──> Service::respond
//!     └──(anything else)> Text ──┘          │
//!                                           ├─ Line(r)      -> queue reply bytes
//!                                           ├─ Subscribe(id)-> park until completion
//!                                           └─ Shutdown(r)  -> queue, drop listener, drain
//! ```
//!
//! **The event thread never blocks**: solver work runs on the scheduler's
//! worker threads (or on fleet workers); reads and writes are
//! nonblocking with pending bytes parked in per-connection buffers.
//!
//! **Push-on-complete**: a `RESULT WAIT` subscribes its connection to the
//! job id. The [`Service`] installs a completion hook into its job table;
//! when a job goes terminal the hook pushes the id onto a ready list and
//! [`polling::Poller::notify`]s the loop, which delivers the reply — no code
//! path anywhere polls for results. The hook-fires-before-subscribe race is
//! closed by re-checking [`Service::result_reply`] immediately after
//! registering a waiter.
//!
//! **Backpressure**: each connection's unsent reply bytes are bounded by
//! [`EventLoopConfig::write_queue_limit`]. A reader stalled past that bound
//! gets its queue replaced by one final `ERR` and the connection closed
//! (counted under `server_conn_limit_total{kind="write"}`) — one stalled
//! client can neither wedge the loop nor grow the server's memory.
//!
//! **Determinism**: the loop orders replies, never payload bytes. Payloads
//! are produced by the pure [`crate::job::run`] and stored by the scheduler;
//! text and binary framing both serialize the same [`Response`] values, so
//! connection interleaving and wire mode cannot influence result bytes.

use crate::protocol::{Request, Response};
use crate::scheduler::{CompletionHook, JobId};
use crate::wire;
use polling::{Backend, Event, Interest, Poller};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
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
pub enum ServiceReply {
    /// Answer immediately.
    Line(Response),
    /// Park the request: push [`Service::result_reply`] when job `id`
    /// reaches a terminal state (`RESULT WAIT` on a live job).
    Subscribe(JobId),
    /// Answer immediately **and** park for job `id`'s terminal push (the
    /// wait-flagged binary `SUBMIT`: the ack and the result subscription
    /// from one request).
    LineAndSubscribe(Response, JobId),
    /// Answer, then stop accepting, drain in-flight jobs and exit the loop.
    Shutdown(Response),
}

/// The role-specific half of the front-end: the standalone server and the
/// fleet coordinator each implement this over their job table. All methods
/// are called from the event thread except the completion hook, which job
/// workers fire; implementations count their own per-verb and per-reply
/// metrics so text and binary connections are indistinguishable to
/// observability.
pub trait Service: Send + Sync {
    /// Handles one request. Must not block on job completion — return
    /// [`ServiceReply::Subscribe`] for that.
    fn respond(&self, request: Request) -> ServiceReply;

    /// The pushed reply for a subscribed job, or `None` while the job is
    /// still in flight. Called once per subscribed connection, in
    /// subscription order; fetched-once result semantics apply (the first
    /// caller takes the payload, later ones see `GONE`).
    fn result_reply(&self, id: JobId) -> Option<Response>;

    /// True when no job is queued or running (the shutdown drain's exit
    /// condition).
    fn idle(&self) -> bool;

    /// Installs the completion hook the loop uses for push delivery and
    /// drain wakeups. Called once before the loop starts.
    fn install_completion_hook(&self, hook: CompletionHook);
}

/// Loop configuration (a subset of the role configs).
#[derive(Clone, Debug)]
pub struct EventLoopConfig {
    /// Maximum requests a single connection may issue before the server
    /// answers `ERR` and closes it (0 = unlimited).
    pub max_requests_per_conn: usize,
    /// Maximum unsent reply bytes buffered per connection before the
    /// slow-client policy closes it.
    pub write_queue_limit: usize,
    /// Readiness backend override (`None` = platform default). The tests use
    /// this to drive the portable `poll(2)` fallback on Linux.
    pub backend: Option<Backend>,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            max_requests_per_conn: 0,
            write_queue_limit: 16 << 20,
            backend: None,
        }
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
    /// Rendered replies not yet written to the socket.
    out: Vec<u8>,
    /// How much of `out` has already been written.
    out_pos: usize,
    mode: Mode,
    /// Requests handled (for `max_requests_per_conn`).
    served: usize,
    /// Close once `out` is flushed.
    closing: bool,
    /// Whether the poller registration currently includes write interest.
    wants_write: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// The poller key reserved for the listener.
const LISTENER_KEY: usize = 0;

/// Runs the readiness loop until a `SHUTDOWN` request has been answered and
/// the service has drained. Consumes the listener (it is dropped the moment
/// shutdown begins, so late connects are refused by the OS).
///
/// # Errors
///
/// Propagates poller-construction and listener-registration failures; per
/// connection I/O errors just close that connection.
pub fn run_event_loop(
    listener: TcpListener,
    service: &Arc<dyn Service>,
    config: &EventLoopConfig,
) -> std::io::Result<()> {
    let poller = Arc::new(match config.backend {
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
        service.install_completion_hook(Arc::new(move |id| {
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
            let unflushed = conns.values().any(|c| c.pending_out() > 0);
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
            if !dead && (event.writable || conn.pending_out() > 0) {
                dead = !flush_conn(conn);
            }
            if dead || (conn.closing && conn.pending_out() == 0) {
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
                // payload: skip it before calling `result_reply`.
                let Some(conn) = conns.get_mut(&key) else {
                    continue;
                };
                let Some(reply) = service.result_reply(id) else {
                    // Not terminal after all (cannot happen for hook-pushed
                    // ids, but a lost entry must not wedge the waiter).
                    waiters.entry(id).or_default().push(key);
                    continue;
                };
                queue_reply(conn, config, &reply);
                if !flush_conn(conn) || (conn.closing && conn.pending_out() == 0) {
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
                        out: Vec::new(),
                        out_pos: 0,
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
    service: &Arc<dyn Service>,
    config: &EventLoopConfig,
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
    service: &Arc<dyn Service>,
    config: &EventLoopConfig,
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
                        queue_raw(conn, config, b"ERR request line exceeds the size limit\n");
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
                        queue_raw(conn, config, format!("ERR {message}\n").as_bytes());
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
fn check_request_budget(conn: &mut Conn, config: &EventLoopConfig) -> bool {
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
    service: &Arc<dyn Service>,
    config: &EventLoopConfig,
    waiters: &mut HashMap<JobId, Vec<usize>>,
    key: usize,
    shutting_down: &mut bool,
    request: Request,
) {
    match service.respond(request) {
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
    service: &Arc<dyn Service>,
    config: &EventLoopConfig,
    waiters: &mut HashMap<JobId, Vec<usize>>,
    key: usize,
    id: JobId,
) {
    waiters.entry(id).or_default().push(key);
    if let Some(response) = service.result_reply(id) {
        if let Some(keys) = waiters.get_mut(&id) {
            keys.retain(|k| *k != key);
            if keys.is_empty() {
                waiters.remove(&id);
            }
        }
        queue_reply(conn, config, &response);
    }
}

/// Renders a [`Response`] in the connection's wire mode and queues it.
fn queue_reply(conn: &mut Conn, config: &EventLoopConfig, response: &Response) {
    let bytes = match conn.mode {
        Mode::Binary => wire::encode_response(response),
        // A connection that never sent a byte (Sniff) is answered in text.
        Mode::Text | Mode::Sniff => response.render_text(),
    };
    queue_raw(conn, config, &bytes);
}

/// Queues raw reply bytes, enforcing the slow-client write-queue bound: on
/// overflow the unsent queue is replaced by one final `ERR` and the
/// connection is marked closing. (The replaced bytes may include a torn
/// partial reply — the client was stalled past the bound and is being
/// disconnected; the `ERR` is best-effort diagnosis.)
fn queue_raw(conn: &mut Conn, config: &EventLoopConfig, bytes: &[u8]) {
    if conn.closing {
        return;
    }
    if conn.pending_out() + bytes.len() > config.write_queue_limit {
        kecss_obs::counter_with("server_conn_limit_total", &[("kind", "write")]).inc();
        conn.out.clear();
        conn.out_pos = 0;
        let err = Response::Err(format!(
            "write queue exceeded {} bytes; closing slow connection",
            config.write_queue_limit
        ));
        let bytes = match conn.mode {
            Mode::Binary => wire::encode_response(&err),
            Mode::Text | Mode::Sniff => err.render_text(),
        };
        conn.out.extend_from_slice(&bytes);
        conn.closing = true;
        return;
    }
    // Compact the consumed prefix occasionally so the buffer does not creep.
    if conn.out_pos > 0 && conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    conn.out.extend_from_slice(bytes);
}

/// Writes as much of the pending queue as the socket accepts. Returns
/// `false` when the connection is dead.
fn flush_conn(conn: &mut Conn) -> bool {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    true
}

/// Keeps the poller's write interest in sync with whether the connection has
/// pending output.
fn sync_write_interest(poller: &Poller, key: usize, conn: &mut Conn) {
    let want = conn.pending_out() > 0;
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
