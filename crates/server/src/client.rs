//! A blocking client for the service protocol (used by `kecss submit`, the
//! integration tests and the CI smoke script).
//!
//! Speaks both wire modes over the same helpers: [`Client::connect`] uses the
//! text line protocol; [`Client::connect_binary`] negotiates `KGW1` binary
//! frames with the 4-byte preamble and then encodes/decodes every request
//! through [`crate::wire`]. Replies in both modes decode to the
//! [`Response`] the server rendered them from ([`Response::read_text`] reads
//! a text reply, [`crate::wire::decode_response`] a frame), so the helpers
//! and their callers match on that one type. Waiting for a result is
//! push-based in both modes: [`Client::wait_result`] sends one `RESULT WAIT`
//! and blocks until the server pushes the terminal reply — no client code
//! path polls.

use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::scheduler::JobId;
use crate::wire;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The wire mode this client negotiated at connect time.
enum WireMode {
    Text,
    Binary,
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    mode: WireMode,
}

/// Errors surfaced by the client helpers.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or broke.
    Io(std::io::Error),
    /// The server sent something outside the protocol grammar.
    Protocol(String),
    /// The server answered, but with an error or an unexpected reply.
    Server(String),
    /// [`Client::wait_result`] ran out of time.
    Timeout {
        /// The job that did not finish in time.
        id: JobId,
    },
    /// [`wait_for_live_workers`] ran out of time.
    WorkersTimeout {
        /// The live workers waited for.
        wanted: usize,
        /// The live workers at the last `FLEET` reply.
        live: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Timeout { id } => write!(f, "timed out waiting for job {id}"),
            ClientError::WorkersTimeout { wanted, live } => {
                write!(f, "timed out with {live} of {wanted} workers live")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(value: std::io::Error) -> Self {
        ClientError::Io(value)
    }
}

impl Client {
    /// Connects to a server address (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply with small frames: Nagle + delayed ACK costs ~40 ms
        // per round trip whenever a frame spans two writes.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            mode: WireMode::Text,
        })
    }

    /// Connects in `KGW1` binary frame mode: sends the 4-byte preamble, after
    /// which every request goes out as a binary frame (inline instances as
    /// zero-parse `KGB1` edge records) and every reply comes back as one.
    /// The replies decode to the same [`Response`] values as text mode, so
    /// all helpers work identically.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect_binary(addr: &str) -> Result<Client, ClientError> {
        let mut client = Client::connect(addr)?;
        client.writer.write_all(&wire::PREAMBLE)?;
        client.mode = WireMode::Binary;
        Ok(client)
    }

    /// Bounds every read on this connection: a reply (or payload byte) that
    /// takes longer than `timeout` to arrive fails with an I/O error instead
    /// of blocking forever. The worker's heartbeat thread sets this so a
    /// wedged coordinator cannot wedge it, and [`Client::wait_result`] bounds
    /// its wait with it. `None` restores unbounded blocking reads.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one raw request line and parses the reply (the seam the
    /// malformed-request tests use; text mode only).
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations.
    pub fn request_line(&mut self, line: &str) -> Result<Response, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Response::read_text(&mut self.reader).map_err(|e| match e.kind() {
            ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
            _ => ClientError::Io(e),
        })
    }

    /// Sends a typed request in the connection's wire mode.
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.mode {
            WireMode::Text => self.request_line(&request.to_line()),
            WireMode::Binary => {
                self.writer.write_all(&wire::encode_request(request))?;
                read_reply_frame(&mut self.reader)
            }
        }
    }

    /// Submits a job spec: `Ok(Ok(id))` when queued, `Ok(Err(depth))` when
    /// the server answered `BUSY`.
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<Result<JobId, usize>, ClientError> {
        admission(self.request(&Request::Submit(spec.clone()))?)
    }

    /// Queries a job's state word (`QUEUED`, `RUNNING`, ...).
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies.
    pub fn status(&mut self, id: JobId) -> Result<String, ClientError> {
        second_word(self.request(&Request::Status(id))?)
    }

    /// Fetches a result: `Some(payload)` when done, `None` while in flight.
    /// Results are fetched-once — the server evicts the payload on a
    /// successful fetch, and a repeat fetch is a `GONE` error.
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR`/`GONE`
    /// replies (including failed and cancelled jobs).
    pub fn result(&mut self, id: JobId) -> Result<Option<Vec<u8>>, ClientError> {
        match self.request(&Request::Result(id))? {
            Response::Wait { .. } => Ok(None),
            other => payload(other).map(Some),
        }
    }

    /// Waits for the payload with one blocking `RESULT WAIT`: the server
    /// pushes the terminal reply when the job completes, so nothing polls.
    /// On [`ClientError::Timeout`] the connection should be discarded — the
    /// server may still push the reply later, and a timed-out read can tear a
    /// partially received frame.
    ///
    /// # Errors
    ///
    /// Everything [`Client::result`] can return, plus
    /// [`ClientError::Timeout`] after `timeout`.
    pub fn wait_result(&mut self, id: JobId, timeout: Duration) -> Result<Vec<u8>, ClientError> {
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let outcome = self.request(&Request::ResultWait(id));
        // Restore unbounded reads so later requests on this client are not
        // silently bounded by a stale wait deadline.
        self.set_read_timeout(None)?;
        payload(outcome.map_err(|e| timed_out(e, id))?)
    }

    /// Submits and waits for the payload in as few requests as the wire
    /// mode allows: `Ok(Ok((id, payload)))` when the job completed,
    /// `Ok(Err(depth))` when the server answered `BUSY`.
    ///
    /// In binary mode this is **one write** — the `SUBMIT` frame carries the
    /// [`wire::FLAG_SUBMIT_WAIT`] bit, the server acks `OK <id> QUEUED` and
    /// pushes the terminal reply on the same connection, so a full
    /// submit-to-result round costs a single request instead of two. Text
    /// mode has no spelling for the flag and falls back to `SUBMIT` +
    /// `RESULT WAIT` (still push-based, one extra round trip).
    ///
    /// # Errors
    ///
    /// Everything [`Client::submit`] and [`Client::wait_result`] can return.
    /// On [`ClientError::Timeout`] the connection should be discarded, as
    /// with [`Client::wait_result`]. A timeout before the server acks the
    /// job is an I/O error: there is no job id to report yet.
    pub fn submit_wait(
        &mut self,
        spec: &JobSpec,
        timeout: Duration,
    ) -> Result<Result<(JobId, Vec<u8>), usize>, ClientError> {
        if matches!(self.mode, WireMode::Text) {
            return match self.submit(spec)? {
                Ok(id) => self
                    .wait_result(id, timeout)
                    .map(|payload| Ok((id, payload))),
                Err(depth) => Ok(Err(depth)),
            };
        }
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let outcome = self.submit_wait_binary(spec);
        self.set_read_timeout(None)?;
        outcome
    }

    /// The binary-mode body of [`Client::submit_wait`]: one wait-flagged
    /// `SUBMIT` frame, then the `OK` ack and the pushed terminal reply. A
    /// read that times out after the ack is [`ClientError::Timeout`] for the
    /// acked job.
    fn submit_wait_binary(
        &mut self,
        spec: &JobSpec,
    ) -> Result<Result<(JobId, Vec<u8>), usize>, ClientError> {
        let id = match admission(self.request(&Request::SubmitWait(spec.clone()))?)? {
            Ok(id) => id,
            Err(depth) => return Ok(Err(depth)),
        };
        let reply = read_reply_frame(&mut self.reader).map_err(|e| timed_out(e, id))?;
        payload(reply).map(|payload| Ok((id, payload)))
    }

    /// Cancels a queued job.
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies
    /// (running or finished jobs).
    pub fn cancel(&mut self, id: JobId) -> Result<(), ClientError> {
        second_word(self.request(&Request::Cancel(id))?)?;
        Ok(())
    }

    /// Fetches the server's metrics registry as a text exposition.
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(text) => utf8(text, "METRICS"),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one registration/liveness heartbeat for `worker` (serving at
    /// `addr`) and returns the coordinator's acknowledgement word
    /// (`REGISTERED` for a new or re-registered worker, `ALIVE` otherwise).
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies
    /// (e.g. the peer is not a coordinator).
    pub fn heartbeat(&mut self, worker: &str, addr: &str) -> Result<String, ClientError> {
        let request = Request::Heartbeat {
            worker: worker.to_string(),
            addr: addr.to_string(),
        };
        second_word(self.request(&request)?)
    }

    /// Fetches the coordinator's fleet status text (`FLEET`).
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies
    /// (e.g. the peer is not a coordinator).
    pub fn fleet_status(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Fleet)? {
            Response::Fleet(text) => utf8(text, "FLEET"),
            other => Err(unexpected(other)),
        }
    }

    /// Requests a server shutdown (drain + exit).
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Ok(_) => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// The `ERR` a server answered, or a reply the helper did not expect.
fn unexpected(response: Response) -> ClientError {
    match response {
        Response::Err(message) => ClientError::Server(message),
        other => ClientError::Protocol(format!("unexpected reply {other:?}")),
    }
}

/// The word after the id (or worker id) of an `OK` reply: a `STATUS`
/// state, `CANCELLED`, or a heartbeat's `REGISTERED`/`ALIVE`.
fn second_word(response: Response) -> Result<String, ClientError> {
    match response {
        Response::Ok(words) => words
            .split_whitespace()
            .nth(1)
            .map(String::from)
            .ok_or_else(|| ClientError::Protocol(format!("OK reply '{words}' lacks a word"))),
        other => Err(unexpected(other)),
    }
}

/// A `SUBMIT` reply: `Ok(id)` for the ack, `Err(depth)` for `BUSY`.
fn admission(response: Response) -> Result<Result<JobId, usize>, ClientError> {
    match response {
        Response::Ok(words) => words
            .split_whitespace()
            .next()
            .and_then(|w| w.parse().ok())
            .map(Ok)
            .ok_or_else(|| ClientError::Protocol("OK reply without a job id".into())),
        Response::Busy(depth) => Ok(Err(usize::try_from(depth).unwrap_or(usize::MAX))),
        other => Err(unexpected(other)),
    }
}

/// The payload of a terminal `RESULT` reply; `GONE` is a server error like
/// `ERR`.
fn payload(response: Response) -> Result<Vec<u8>, ClientError> {
    match response {
        Response::Result { payload, .. } => Ok(Arc::unwrap_or_clone(payload)),
        Response::Gone(id) => Err(ClientError::Server(format!(
            "job {id}: the result was already fetched and evicted (GONE)"
        ))),
        other => Err(unexpected(other)),
    }
}

/// A `METRICS` or `FLEET` payload as text.
fn utf8(text: Arc<Vec<u8>>, verb: &str) -> Result<String, ClientError> {
    String::from_utf8(Arc::unwrap_or_clone(text))
        .map_err(|_| ClientError::Protocol(format!("{verb} payload is not UTF-8")))
}

/// Turns a read that ran past its timeout into [`ClientError::Timeout`] for
/// job `id`; every other error passes through.
fn timed_out(error: ClientError, id: JobId) -> ClientError {
    match error {
        ClientError::Io(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            ClientError::Timeout { id }
        }
        other => other,
    }
}

/// Reads one binary reply frame — header, body, then decode — for a
/// binary-mode [`Client`].
fn read_reply_frame(reader: &mut impl Read) -> Result<Response, ClientError> {
    let mut header = [0u8; wire::FRAME_HEADER_BYTES];
    reader.read_exact(&mut header)?;
    let (opcode, _flags, body_len) =
        wire::parse_frame_header(&header).map_err(ClientError::Protocol)?;
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body)?;
    wire::decode_response(opcode, &body).map_err(ClientError::Protocol)
}

/// Polls the coordinator's `FLEET` status until at least `workers` workers
/// are live (the handshake the tests, benches and smoke harness use before
/// submitting: heartbeats are periodic, so a freshly spawned worker is not
/// registered instantaneously).
///
/// # Errors
///
/// I/O failures, protocol violations, and [`ClientError::WorkersTimeout`],
/// naming the workers wanted and the last live count, when the fleet does
/// not reach the requested size in time.
pub fn wait_for_live_workers(
    addr: &str,
    workers: usize,
    poll: Duration,
    timeout: Duration,
) -> Result<(), ClientError> {
    let deadline = Instant::now() + timeout;
    let mut client = Client::connect(addr)?;
    loop {
        let text = client.fleet_status()?;
        let live = text
            .lines()
            .find_map(|line| {
                let mut words = line.split_whitespace();
                (words.next() == Some("workers"))
                    .then(|| {
                        words
                            .skip_while(|w| *w != "live")
                            .nth(1)
                            .and_then(|w| w.parse::<usize>().ok())
                    })
                    .flatten()
            })
            .ok_or_else(|| ClientError::Protocol("fleet status without a workers line".into()))?;
        if live >= workers {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(ClientError::WorkersTimeout {
                wanted: workers,
                live,
            });
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A server that reads one request line and answers it with `reply`.
    fn fake_server(reply: &'static [u8]) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            stream.write_all(reply).unwrap();
        });
        (addr, server)
    }

    #[test]
    fn a_reply_naming_a_length_past_the_frame_cap_is_a_protocol_error() {
        let (addr, server) = fake_server(b"RESULT 1 18446744073709551615\n");
        let mut client = Client::connect(&addr).unwrap();
        match client.result(1) {
            Err(ClientError::Protocol(message)) => assert!(message.contains("cap"), "{message}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn waiting_for_workers_times_out_naming_both_counts() {
        let (addr, server) = fake_server(b"FLEET 17\nworkers 0 live 0\n");
        let err = wait_for_live_workers(&addr, 1, Duration::ZERO, Duration::ZERO).unwrap_err();
        assert_eq!(err.to_string(), "timed out with 0 of 1 workers live");
        server.join().unwrap();
    }
}
