//! A blocking client for the service protocol (used by `kecss submit`, the
//! integration tests and the CI smoke script).
//!
//! Speaks both wire modes over the same helpers: [`Client::connect`] uses the
//! text line protocol; [`Client::connect_binary`] negotiates `KGW1` binary
//! frames with the 4-byte preamble and then encodes/decodes every request
//! through [`crate::wire`]. Waiting for a result is push-based in both modes:
//! [`Client::wait_result`] sends one `RESULT WAIT` and blocks until the
//! server pushes the terminal reply — no client code path polls.

use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::scheduler::JobId;
use crate::wire;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `OK ...` — the words after `OK`.
    Ok(Vec<String>),
    /// `BUSY <depth>` — the submission was rejected by backpressure.
    Busy {
        /// The server's configured queue depth.
        depth: usize,
    },
    /// `WAIT <id> <state>` — the result is not ready yet.
    Wait {
        /// The job id.
        id: JobId,
        /// The job's current state word.
        state: String,
    },
    /// `RESULT <id> <len>` + payload — the finished result.
    Result {
        /// The job id.
        id: JobId,
        /// The payload bytes.
        payload: Vec<u8>,
    },
    /// `GONE <id>` — the job completed but its payload was already fetched
    /// and evicted (results are fetched-once).
    Gone {
        /// The job id.
        id: JobId,
    },
    /// `METRICS <len>` + payload — the metrics text exposition.
    Metrics {
        /// The exposition text.
        text: String,
    },
    /// `FLEET <len>` + payload — the coordinator's fleet status text.
    Fleet {
        /// The fleet status text (`# kecss fleet status v1`, DESIGN.md §13).
        text: String,
    },
    /// `ERR <message>`.
    Err(String),
}

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
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Timeout { id } => write!(f, "timed out waiting for job {id}"),
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
    /// The replies decode to the same [`Reply`] values as text mode, so all
    /// helpers work identically.
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
    pub fn request_line(&mut self, line: &str) -> Result<Reply, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.read_reply()
    }

    /// Sends a typed request in the connection's wire mode.
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations.
    pub fn request(&mut self, request: &Request) -> Result<Reply, ClientError> {
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
        match self.request(&Request::Submit(spec.clone()))? {
            Reply::Ok(words) => {
                let id = words
                    .first()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| ClientError::Protocol("OK reply without a job id".into()))?;
                Ok(Ok(id))
            }
            Reply::Busy { depth } => Ok(Err(depth)),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Queries a job's state word (`QUEUED`, `RUNNING`, ...).
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies.
    pub fn status(&mut self, id: JobId) -> Result<String, ClientError> {
        match self.request(&Request::Status(id))? {
            Reply::Ok(words) => words
                .get(1)
                .cloned()
                .ok_or_else(|| ClientError::Protocol("OK status without a state".into())),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
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
            Reply::Result { payload, .. } => Ok(Some(payload)),
            Reply::Wait { .. } => Ok(None),
            Reply::Gone { id } => Err(ClientError::Server(format!(
                "job {id}: the result was already fetched and evicted (GONE)"
            ))),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
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
        match outcome.map_err(|e| timed_out(e, id))? {
            Reply::Result { payload, .. } => Ok(payload),
            Reply::Gone { id } => Err(ClientError::Server(format!(
                "job {id}: the result was already fetched and evicted (GONE)"
            ))),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
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
        let id = match self.request(&Request::SubmitWait(spec.clone()))? {
            Reply::Ok(words) => words
                .first()
                .and_then(|w| w.parse::<JobId>().ok())
                .ok_or_else(|| ClientError::Protocol("OK reply without a job id".into()))?,
            Reply::Busy { depth } => return Ok(Err(depth)),
            Reply::Err(msg) => return Err(ClientError::Server(msg)),
            other => {
                return Err(ClientError::Protocol(format!("unexpected reply {other:?}")));
            }
        };
        match read_reply_frame(&mut self.reader).map_err(|e| timed_out(e, id))? {
            Reply::Result { payload, .. } => Ok(Ok((id, payload))),
            Reply::Gone { id } => Err(ClientError::Server(format!(
                "job {id}: the result was already fetched and evicted (GONE)"
            ))),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Cancels a queued job.
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies
    /// (running or finished jobs).
    pub fn cancel(&mut self, id: JobId) -> Result<(), ClientError> {
        match self.request(&Request::Cancel(id))? {
            Reply::Ok(_) => Ok(()),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Fetches the server's metrics registry as a text exposition.
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Reply::Metrics { text } => Ok(text),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
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
        match self.request(&request)? {
            Reply::Ok(words) => words
                .get(1)
                .cloned()
                .ok_or_else(|| ClientError::Protocol("OK heartbeat without a word".into())),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Fetches the coordinator's fleet status text (`FLEET`).
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, and server-side `ERR` replies
    /// (e.g. the peer is not a coordinator).
    pub fn fleet_status(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Fleet)? {
            Reply::Fleet { text } => Ok(text),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Requests a server shutdown (drain + exit).
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Reply::Ok(_) => Ok(()),
            Reply::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        let line = line.trim_end();
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        match verb {
            "OK" => Ok(Reply::Ok(
                rest.split_whitespace().map(String::from).collect(),
            )),
            "BUSY" => {
                let depth = rest
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Protocol(format!("malformed BUSY '{line}'")))?;
                Ok(Reply::Busy { depth })
            }
            "WAIT" => {
                let mut words = rest.split_whitespace();
                let id = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| ClientError::Protocol(format!("malformed WAIT '{line}'")))?;
                let state = words.next().unwrap_or("UNKNOWN").to_string();
                Ok(Reply::Wait { id, state })
            }
            "GONE" => {
                let id = rest
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Protocol(format!("malformed GONE '{line}'")))?;
                Ok(Reply::Gone { id })
            }
            "RESULT" => {
                let mut words = rest.split_whitespace();
                let id: JobId = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| ClientError::Protocol(format!("malformed RESULT '{line}'")))?;
                let len: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| ClientError::Protocol(format!("malformed RESULT '{line}'")))?;
                let mut payload = vec![0u8; len];
                self.reader.read_exact(&mut payload)?;
                Ok(Reply::Result { id, payload })
            }
            "METRICS" | "FLEET" => {
                let len: usize = rest
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Protocol(format!("malformed {verb} '{line}'")))?;
                let mut payload = vec![0u8; len];
                self.reader.read_exact(&mut payload)?;
                let text = String::from_utf8(payload)
                    .map_err(|_| ClientError::Protocol(format!("{verb} payload is not UTF-8")))?;
                Ok(if verb == "METRICS" {
                    Reply::Metrics { text }
                } else {
                    Reply::Fleet { text }
                })
            }
            "ERR" => Ok(Reply::Err(rest.to_string())),
            _ => Err(ClientError::Protocol(format!("unknown reply '{line}'"))),
        }
    }
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

/// Reads one binary reply frame — header, body, then decode — into the same
/// [`Reply`] values the text parser produces. A binary-mode [`Client`] and
/// the coordinator's worker links both read their replies through this.
pub(crate) fn read_reply_frame(reader: &mut impl Read) -> Result<Reply, ClientError> {
    let mut header = [0u8; wire::FRAME_HEADER_BYTES];
    reader.read_exact(&mut header)?;
    let (opcode, _flags, body_len) =
        wire::parse_frame_header(&header).map_err(ClientError::Protocol)?;
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body)?;
    let response = wire::decode_response(opcode, &body).map_err(ClientError::Protocol)?;
    reply_from_response(response)
}

/// Maps a decoded binary [`Response`] onto the same [`Reply`] values the text
/// parser produces, so the helper methods are wire-mode agnostic.
fn reply_from_response(response: Response) -> Result<Reply, ClientError> {
    let unwrap_bytes = |bytes: Arc<Vec<u8>>| -> Vec<u8> {
        Arc::try_unwrap(bytes).unwrap_or_else(|shared| (*shared).clone())
    };
    let text_of = |bytes: Arc<Vec<u8>>, what: &str| -> Result<String, ClientError> {
        String::from_utf8(unwrap_bytes(bytes))
            .map_err(|_| ClientError::Protocol(format!("{what} payload is not UTF-8")))
    };
    Ok(match response {
        Response::Ok(words) => Reply::Ok(words.split_whitespace().map(String::from).collect()),
        Response::Busy(depth) => Reply::Busy {
            depth: usize::try_from(depth)
                .map_err(|_| ClientError::Protocol("BUSY depth overflows usize".into()))?,
        },
        Response::Wait { id, state } => Reply::Wait {
            id,
            state: state.to_string(),
        },
        Response::Result { id, payload } => Reply::Result {
            id,
            payload: unwrap_bytes(payload),
        },
        Response::Gone(id) => Reply::Gone { id },
        Response::Err(message) => Reply::Err(message),
        Response::Metrics(bytes) => Reply::Metrics {
            text: text_of(bytes, "METRICS")?,
        },
        Response::Fleet(bytes) => Reply::Fleet {
            text: text_of(bytes, "FLEET")?,
        },
    })
}

/// Polls the coordinator's `FLEET` status until at least `workers` workers
/// are live (the handshake the tests, benches and smoke harness use before
/// submitting: heartbeats are periodic, so a freshly spawned worker is not
/// registered instantaneously).
///
/// # Errors
///
/// I/O failures, protocol violations, and [`ClientError::Timeout`] (reported
/// with job id 0 — there is no job yet) when the fleet does not reach the
/// requested size in time.
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
            return Err(ClientError::Timeout { id: 0 });
        }
        std::thread::sleep(poll);
    }
}
