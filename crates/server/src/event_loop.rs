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
//! **A coordinator's worker links are connections too**, in a third mode:
//! the loop writes their `SUBMIT` frames, reads their reply frames, steps
//! the fleet machine with what it reads and carries out the actions the
//! machine returns, and sleeps no longer than the machine's next deadline.
//! Only a link's dial runs elsewhere, on a thread that connects and hands
//! the socket back, so a dial that hangs holds up only its worker.
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

use crate::coordinator::fleet::{self, Action, LinkId};
use crate::coordinator::{dial, Shared};
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
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
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
    /// A coordinator's `KGW1` link to a worker, by worker id and link
    /// number: `SUBMIT` frames out, reply frames in.
    Link(String, LinkId),
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
            Mode::Binary | Mode::Link(..) => wire::encode_response_head(response, tail),
            // A connection that never sent a byte (Sniff) is answered in text.
            Mode::Text | Mode::Sniff => response.text_head(tail),
        };
        self.pending += tail.len() - before;
        if let Some(body) = body {
            self.pending += body.len();
            self.chunks.push_back(Chunk::Shared(Arc::clone(body)));
        }
    }

    /// Queues bytes framed already: a link's preamble and its `SUBMIT`s.
    fn push_frame(&mut self, frame: Vec<u8>) {
        self.pending += frame.len();
        self.chunks.push_back(Chunk::Owned(frame));
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

/// Why a link that read its end, or failed a write, was lost: the words a
/// blocking reader of the link reported, which a job's retry-budget failure
/// quotes.
const LINK_EOF: &str = "connection error: failed to fill whole buffer";

/// A coordinator's link by its number: queued frames while its dial runs,
/// then the key of its connection.
enum Link {
    Dialling(String, OutQueue),
    Up(usize),
}

/// What a dial thread hands back: the link's number and its socket, or the
/// cause its dial failed.
type Dialled = (LinkId, Result<TcpStream, String>);

/// What the request handlers share: the role's job table and limits, a
/// coordinator's machine, the parked `RESULT WAIT`s, whether a `SHUTDOWN`
/// has been answered, and the buffer every socket is read into.
struct Cx<'a> {
    service: &'a dyn Service,
    config: &'a ServerConfig,
    coordinator: Option<&'a Shared>,
    waiters: HashMap<JobId, Vec<usize>>,
    shutting_down: bool,
    chunk: Vec<u8>,
}

/// The loop's state: its connections, client and link alike, and a
/// coordinator's links and dials.
struct Loop<'a> {
    poller: Arc<Poller>,
    listener: Option<TcpListener>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    cx: Cx<'a>,
    /// Completed job ids, pushed by pool workers (or by the fleet machine's
    /// actions), drained by the loop.
    ready: Arc<Mutex<Vec<JobId>>>,
    links: HashMap<LinkId, Link>,
    dialled: mpsc::Sender<Dialled>,
    returned: mpsc::Receiver<Dialled>,
    dials: Vec<JoinHandle<()>>,
    /// When the fleet machine must next see a `Wake`, for a coordinator.
    deadline: Option<Instant>,
}

/// Runs the readiness loop until a `SHUTDOWN` request has been answered and
/// the service has drained. Consumes the listener (it is dropped the moment
/// shutdown begins, so late connects are refused by the OS). Each
/// connection is bounded by `config`'s request limit and write-queue bound;
/// `backend` overrides the platform's readiness backend. A coordinator
/// passes its machine as `coordinator`, and the loop then drives its worker
/// links too; once drained, it closes them and joins every dial still
/// running, which the dial's timeout bounds.
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
    coordinator: Option<&Shared>,
) -> std::io::Result<()> {
    let poller = Arc::new(match backend {
        Some(backend) => Poller::with_backend(backend)?,
        None => Poller::new()?,
    });
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)?;
    let ready: Arc<Mutex<Vec<JobId>>> = Arc::default();
    {
        let ready = Arc::clone(&ready);
        let waker = Arc::clone(&poller);
        service.set_completion_hook(Arc::new(move |id| {
            ready.lock().expect("ready list poisoned").push(id);
            let _ = waker.notify();
        }));
    }
    let (dialled, returned) = mpsc::channel();
    let mut state = Loop {
        poller,
        listener: Some(listener),
        conns: HashMap::new(),
        next_key: LISTENER_KEY + 1,
        cx: Cx {
            service,
            config,
            coordinator,
            waiters: HashMap::new(),
            shutting_down: false,
            chunk: vec![0; 64 * 1024],
        },
        ready,
        links: HashMap::new(),
        dialled,
        returned,
        dials: Vec::new(),
        deadline: None,
    };
    let served = state.run();
    let dials = std::mem::take(&mut state.dials);
    drop(state);
    for dial in dials {
        dial.join().expect("a link's dial panicked");
    }
    served
}

impl Loop<'_> {
    fn run(&mut self) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut flush_deadline: Option<Instant> = None;
        loop {
            // Exit: shutdown requested, every accepted job terminal, every
            // pushed reply delivered, and every queued byte flushed (or the
            // flush cap for stalled readers has lapsed).
            if self.cx.shutting_down && self.cx.service.idle() && self.ready().is_empty() {
                let unflushed = self.conns.values().any(|c| c.out.pending > 0);
                let expired = flush_deadline.is_some_and(|d| Instant::now() >= d);
                if !unflushed || expired {
                    return Ok(());
                }
            }

            // Belt and braces while shutting down: re-check the drain
            // condition periodically even if a wakeup is lost.
            let tick = self.cx.shutting_down.then_some(Duration::from_millis(100));
            let wake = self
                .deadline
                .map(|at| at.saturating_duration_since(Instant::now()));
            self.poller
                .wait(&mut events, tick.into_iter().chain(wake).min())?;

            for event in std::mem::take(&mut events) {
                if event.key == LISTENER_KEY {
                    self.accept_ready();
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&event.key) else {
                    continue;
                };
                let dead = if event.readable && conn.closing {
                    // Drain and discard: a closing connection's socket must
                    // not keep reporting readable forever (level-triggered).
                    (!discard_input(conn)).then(|| LINK_EOF.to_string())
                } else if event.readable {
                    read_ready(conn, &mut self.cx, event.key).err()
                } else {
                    None
                };
                if self.cx.shutting_down {
                    // Stop accepting the moment shutdown is requested; the
                    // OS refuses late connects once the fd closes.
                    if let Some(l) = self.listener.take() {
                        let _ = self.poller.delete(l.as_raw_fd());
                    }
                }
                self.settle(event.key, dead);
            }
            self.take_dials();
            self.drive();
            self.deliver();

            if self.cx.shutting_down && flush_deadline.is_none() {
                flush_deadline = Some(Instant::now() + SHUTDOWN_FLUSH_CAP);
            }
        }
    }

    fn ready(&self) -> std::sync::MutexGuard<'_, Vec<JobId>> {
        self.ready.lock().expect("ready list poisoned")
    }

    /// Accepts every pending connection (level-triggered: stop at
    /// `WouldBlock`).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self
                        .register(stream, Mode::Sniff, OutQueue::default())
                        .is_err()
                    {
                        // fd exhaustion or similar: drop the connection,
                        // keep serving the others.
                        kecss_obs::counter_with("server_conn_limit_total", &[("kind", "register")])
                            .inc();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Adds a nonblocking socket to the poller and the connection table.
    fn register(&mut self, stream: TcpStream, mode: Mode, out: OutQueue) -> std::io::Result<usize> {
        let key = self.next_key;
        self.next_key += 1;
        self.poller
            .add(stream.as_raw_fd(), key, Interest::READABLE)?;
        let conn = Conn {
            stream,
            buf: Vec::new(),
            out,
            mode,
            served: 0,
            closing: false,
            wants_write: false,
        };
        self.conns.insert(key, conn);
        Ok(key)
    }

    /// Writes what connection `key` can take and keeps its write interest in
    /// step, or removes it: when `dead` says why it died, when a write fails,
    /// or once a closing connection has flushed. A link removed for a
    /// failure is reported lost to the machine.
    fn settle(&mut self, key: usize, mut dead: Option<String>) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if dead.is_none() && !conn.out.flush(&mut conn.stream) {
            dead = Some(LINK_EOF.into());
        }
        if dead.is_none() && !(conn.closing && conn.out.pending == 0) {
            return sync_write_interest(&self.poller, key, conn);
        }
        let conn = self.remove(key).expect("conn exists");
        if let (Mode::Link(worker, id), Some(coordinator)) = (conn.mode, self.cx.coordinator) {
            self.links.remove(&id);
            let cause = dead.expect("a link never closes itself");
            coordinator.step(fleet::Event::LinkError(worker, id, cause));
        }
    }

    /// Drops connection `key` from the table and the poller; its socket
    /// closes with it.
    fn remove(&mut self, key: usize) -> Option<Conn> {
        let conn = self.conns.remove(&key)?;
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        Some(conn)
    }

    /// Takes every socket a dial handed back. A link still dialling becomes
    /// a connection whose queue holds the preamble and the frames sent
    /// meanwhile; a failed dial is a loss with the dial's cause; a socket
    /// whose link was closed meanwhile is dropped.
    fn take_dials(&mut self) {
        while let Ok((id, dialled)) = self.returned.try_recv() {
            let Some(Link::Dialling(worker, out)) = self.links.remove(&id) else {
                continue;
            };
            let mode = Mode::Link(worker.clone(), id);
            let registered = dialled
                .and_then(|stream| self.register(stream, mode, out).map_err(|e| e.to_string()));
            match registered {
                Ok(key) => {
                    self.links.insert(id, Link::Up(key));
                    self.settle(key, None);
                }
                Err(cause) => {
                    let coordinator = self.cx.coordinator.expect("only a coordinator dials");
                    coordinator.step(fleet::Event::LinkError(worker, id, cause));
                }
            }
        }
    }

    /// Carries out a coordinator's actions until a round leaves none (a
    /// failed link write steps the machine again).
    fn drive(&mut self) {
        let Some(coordinator) = self.cx.coordinator else {
            return;
        };
        loop {
            let actions = coordinator.actions(&mut self.deadline);
            if actions.is_empty() {
                return;
            }
            for action in actions {
                self.act(action, coordinator.timeout);
            }
        }
    }

    /// Carries out one action of the fleet machine.
    fn act(&mut self, action: Action, timeout: Duration) {
        match action {
            Action::Dial(worker, id, addr) => {
                let mut out = OutQueue::default();
                out.push_frame(wire::PREAMBLE.to_vec());
                self.links.insert(id, Link::Dialling(worker, out));
                let (dialled, waker) = (self.dialled.clone(), Arc::clone(&self.poller));
                let finished = self.dials.extract_if(.., |dial| dial.is_finished());
                finished.for_each(|dial| dial.join().expect("a link's dial panicked"));
                self.dials.push(std::thread::spawn(move || {
                    let _ = dialled.send((id, dial(&addr, timeout)));
                    let _ = waker.notify();
                }));
            }
            Action::Send(id, spec) => {
                let frame = wire::encode_request(&Request::SubmitWait(spec));
                match self.links.get_mut(&id) {
                    Some(Link::Dialling(_, out)) => out.push_frame(frame),
                    Some(&mut Link::Up(key)) => {
                        let conn = self
                            .conns
                            .get_mut(&key)
                            .expect("a link that is up has a conn");
                        conn.out.push_frame(frame);
                        self.settle(key, None);
                    }
                    None => {}
                }
            }
            Action::Close(id) => {
                if let Some(Link::Up(key)) = self.links.remove(&id) {
                    self.remove(key);
                }
            }
            Action::Terminal(id) => self.ready().push(id),
        }
    }

    /// Delivers the push-on-complete replies of the jobs that went terminal.
    fn deliver(&mut self) {
        let done: Vec<JobId> = std::mem::take(&mut *self.ready());
        for id in done {
            let Some(keys) = self.cx.waiters.remove(&id) else {
                continue;
            };
            for key in keys {
                // A waiter whose connection died must not consume the
                // payload: skip it before calling `pushed_reply`.
                let Some(conn) = self.conns.get_mut(&key) else {
                    continue;
                };
                let Some(reply) = pushed_reply(self.cx.service, id) else {
                    // Not terminal after all (cannot happen for hook-pushed
                    // ids, but a lost entry must not wedge the waiter).
                    self.cx.waiters.entry(id).or_default().push(key);
                    continue;
                };
                queue_reply(conn, self.cx.config, &reply);
                self.settle(key, None);
            }
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

/// Reads whatever the socket has and handles every complete request (or,
/// on a link, reply) in it. Fails with the cause when the connection is
/// dead: EOF, an I/O error, or framing it cannot recover from.
fn read_ready(conn: &mut Conn, cx: &mut Cx, key: usize) -> Result<(), String> {
    loop {
        match conn.stream.read(&mut cx.chunk) {
            Ok(0) => return Err(LINK_EOF.into()),
            Ok(n) => {
                conn.buf.extend_from_slice(&cx.chunk[..n]);
                process_buffer(conn, cx, key)?;
                if conn.closing {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("connection error: {e}")),
        }
    }
}

/// Handles every complete request buffered — or, on a link, steps the
/// machine with every complete reply. Fails with the cause when the
/// connection must be dropped at once (unrecoverable framing).
fn process_buffer(conn: &mut Conn, cx: &mut Cx, key: usize) -> Result<(), String> {
    loop {
        if conn.closing {
            return Ok(());
        }
        match &conn.mode {
            Mode::Sniff => {
                if conn.buf.first().is_some_and(|b| *b != wire::PREAMBLE[0]) {
                    conn.mode = Mode::Text;
                    continue;
                }
                if conn.buf.len() < wire::PREAMBLE.len() {
                    return Ok(()); // need more bytes
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
                        queue_reply(conn, cx.config, &refusal);
                        conn.closing = true;
                    }
                    return Ok(());
                };
                let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                if !check_request_budget(conn, cx.config) {
                    return Ok(());
                }
                let Ok(text) = std::str::from_utf8(&line) else {
                    // Not a text protocol client after all.
                    return Err("request line is not UTF-8".into());
                };
                match Request::parse(text.trim_end()) {
                    Ok(request) => dispatch(conn, cx, key, request),
                    Err(message) => {
                        kecss_obs::counter_with("server_reply_err_total", &[("cause", "parse")])
                            .inc();
                        queue_reply(conn, cx.config, &Response::Err(message));
                    }
                }
            }
            Mode::Binary => {
                let (opcode, flags, body) = match wire::take_frame(&mut conn.buf) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => return Ok(()), // frame still in flight
                    Err(message) => {
                        // An over-cap frame cannot be skipped (its length is
                        // the lie); answer and drop.
                        kecss_obs::counter_with("server_conn_limit_total", &[("kind", "frame")])
                            .inc();
                        queue_reply(conn, cx.config, &Response::Err(message));
                        conn.closing = true;
                        return Ok(());
                    }
                };
                if !check_request_budget(conn, cx.config) {
                    return Ok(());
                }
                match wire::decode_request(opcode, flags, &body) {
                    Ok(request) => dispatch(conn, cx, key, request),
                    Err(message) => {
                        kecss_obs::counter_with("server_reply_err_total", &[("cause", "parse")])
                            .inc();
                        queue_reply(conn, cx.config, &Response::Err(message));
                    }
                }
            }
            Mode::Link(worker, id) => {
                let violation = |message| format!("protocol violation: {message}");
                let Some((opcode, _, body)) = wire::take_frame(&mut conn.buf).map_err(violation)?
                else {
                    return Ok(());
                };
                let response = wire::decode_response(opcode, &body).map_err(violation)?;
                let coordinator = cx.coordinator.expect("only a coordinator has links");
                coordinator.step(fleet::Event::Reply(worker.clone(), *id, response));
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
fn dispatch(conn: &mut Conn, cx: &mut Cx, key: usize, request: Request) {
    match respond(cx.service, request) {
        ServiceReply::Line(response) => queue_reply(conn, cx.config, &response),
        ServiceReply::Subscribe(id) => subscribe(conn, cx, key, id),
        ServiceReply::LineAndSubscribe(response, id) => {
            // Ack first so the wire order is always ack-then-result, then
            // park exactly like a RESULT WAIT.
            queue_reply(conn, cx.config, &response);
            subscribe(conn, cx, key, id);
        }
        ServiceReply::Shutdown(response) => {
            queue_reply(conn, cx.config, &response);
            cx.shutting_down = true;
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
fn subscribe(conn: &mut Conn, cx: &mut Cx, key: usize, id: JobId) {
    cx.waiters.entry(id).or_default().push(key);
    if let Some(response) = pushed_reply(cx.service, id) {
        if let Some(keys) = cx.waiters.get_mut(&id) {
            keys.retain(|k| *k != key);
            if keys.is_empty() {
                cx.waiters.remove(&id);
            }
        }
        queue_reply(conn, cx.config, &response);
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
