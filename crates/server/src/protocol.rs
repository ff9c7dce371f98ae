//! The wire protocol: line-framed requests, length-prefixed result payloads.
//!
//! Every request is a single UTF-8 line (terminated by `\n`); every response
//! is a single header line, except a successful `RESULT` whose header
//! `RESULT <id> <len>` is followed by exactly `<len>` payload bytes. The full
//! grammar lives in DESIGN.md §9; in short:
//!
//! ```text
//! SUBMIT <instance> <k> <algorithm> <enumerator> <seed>   -> OK <id> QUEUED | BUSY <depth> | ERR <msg>
//! STATUS <id>                                             -> OK <id> <STATE> | ERR <msg>
//! RESULT <id>    -> RESULT <id> <len>\n<payload> | WAIT <id> <STATE> | GONE <id> | ERR <msg>
//! RESULT WAIT <id>  -> RESULT <id> <len>\n<payload> | GONE <id> | ERR <msg>   (pushed on completion)
//! CANCEL <id>                                             -> OK <id> CANCELLED | ERR <msg>
//! METRICS        -> METRICS <len>\n<text exposition>
//! HEARTBEAT <worker-id> <host:port>                       -> OK <worker-id> REGISTERED|ALIVE | ERR <msg>
//! FLEET          -> FLEET <len>\n<fleet status text> | ERR <msg>
//! SHUTDOWN                                                -> OK SHUTDOWN
//! ```
//!
//! `HEARTBEAT` and `FLEET` are the coordinator's (DESIGN.md §13); the other
//! roles answer them with `ERR`. `<STATE>` is a [`JobState`] wire name:
//! `QUEUED`, `RUNNING`, `DONE`, `FAILED`, `CANCELLED`, and on a coordinator
//! also `ASSIGNED`.
//! Result payloads are **fetched-once**: a successful `RESULT` evicts the
//! payload from the job table, so a long-lived server keeps each payload
//! only until its first fetch, and every later `RESULT` for that id answers
//! `GONE <id>` while `STATUS` still reports `DONE`.
//!
//! `RESULT WAIT <id>` is the push variant: instead of answering `WAIT` for an
//! unfinished job, the server parks the connection's request and pushes the
//! `RESULT`/`GONE`/`ERR` reply the moment the job reaches a terminal state —
//! no client polls anywhere in the system. The same requests and responses
//! also travel as `KGW1` binary frames (see [`crate::wire`]); this module's
//! [`Response`] enum is the single source of truth for both renderings, and
//! the one reply type every reader decodes to: the server renders it
//! ([`Response::text_head`], [`crate::wire::encode_response_head`]), and the
//! client and the coordinator's worker links read it back
//! ([`Response::read_text`], [`crate::wire::decode_response`]).

use crate::instance::InstanceSpec;
use crate::job::{Algorithm, JobSpec};
use crate::scheduler::JobState;
use crate::wire::MAX_FRAME_BODY;
use kecss::cuts::EnumeratorPolicy;
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::sync::Arc;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a job for scheduling.
    Submit(JobSpec),
    /// Submit a job **and** subscribe to its terminal reply in one request:
    /// the server acks `OK <id> QUEUED` and then pushes the
    /// `RESULT`/`GONE`/`ERR` the moment the job finishes. Only the `KGW1`
    /// binary framing can spell this (the [`crate::wire::FLAG_SUBMIT_WAIT`]
    /// header bit); the text grammar never parses to it, and
    /// [`Request::to_line`] renders the plain `SUBMIT` (a text client gets
    /// the same effect from `SUBMIT` + `RESULT WAIT`).
    SubmitWait(JobSpec),
    /// Query a job's lifecycle state.
    Status(u64),
    /// Fetch a finished job's result payload.
    Result(u64),
    /// Fetch a job's result payload, blocking until the job finishes: the
    /// reply is pushed to the connection when the job reaches a terminal
    /// state instead of answering `WAIT` immediately.
    ResultWait(u64),
    /// Cancel a queued job (running jobs complete; done jobs are immutable).
    Cancel(u64),
    /// Fetch the process-wide metrics registry as a text exposition.
    Metrics,
    /// A worker's combined registration + liveness beat (coordinator only;
    /// a standalone or worker server answers `ERR`). The first beat from an
    /// unknown (or previously lost) worker id registers it.
    Heartbeat {
        /// The worker's stable identifier (one whitespace-free token).
        worker: String,
        /// The address the worker serves jobs on, where the coordinator
        /// dispatches.
        addr: String,
    },
    /// Fetch the coordinator's fleet status text (framed like `METRICS`;
    /// coordinator only).
    Fleet,
    /// Drain the queue and stop the server.
    Shutdown,
}

impl Request {
    /// Parses one request line (without the trailing newline).
    ///
    /// # Errors
    ///
    /// Returns the human-readable message the server sends back as
    /// `ERR <msg>`.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut words = line.split_whitespace();
        let verb = words.next().ok_or("empty request")?;
        let rest: Vec<&str> = words.collect();
        match verb {
            "SUBMIT" => {
                let [instance, k, algorithm, enumerator, seed] = rest.as_slice() else {
                    return Err(format!(
                        "SUBMIT expects 5 fields '<instance> <k> <algorithm> <enumerator> \
                         <seed>', got {}",
                        rest.len()
                    ));
                };
                let instance = InstanceSpec::parse(instance)?;
                let k: usize = k
                    .parse()
                    .map_err(|_| format!("SUBMIT: malformed k '{k}'"))?;
                let algorithm = Algorithm::parse(algorithm)
                    .ok_or_else(|| format!("SUBMIT: unknown algorithm '{algorithm}'"))?;
                let enumerator = EnumeratorPolicy::parse(enumerator)
                    .ok_or_else(|| format!("SUBMIT: unknown enumerator '{enumerator}'"))?;
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("SUBMIT: malformed seed '{seed}'"))?;
                instance.admit(k)?;
                Ok(Request::Submit(JobSpec {
                    instance,
                    k,
                    algorithm,
                    enumerator,
                    seed,
                }))
            }
            "STATUS" | "RESULT" | "CANCEL" => {
                if verb == "RESULT" {
                    if let ["WAIT", id] = rest.as_slice() {
                        let id: u64 = id
                            .parse()
                            .map_err(|_| format!("RESULT WAIT: malformed job id '{id}'"))?;
                        return Ok(Request::ResultWait(id));
                    }
                }
                let [id] = rest.as_slice() else {
                    return Err(format!("{verb} expects exactly one job id"));
                };
                let id: u64 = id
                    .parse()
                    .map_err(|_| format!("{verb}: malformed job id '{id}'"))?;
                Ok(match verb {
                    "STATUS" => Request::Status(id),
                    "RESULT" => Request::Result(id),
                    _ => Request::Cancel(id),
                })
            }
            "METRICS" => {
                if rest.is_empty() {
                    Ok(Request::Metrics)
                } else {
                    Err("METRICS takes no arguments".into())
                }
            }
            "HEARTBEAT" => {
                let [worker, addr] = rest.as_slice() else {
                    return Err("HEARTBEAT expects 2 fields '<worker-id> <addr>'".into());
                };
                Ok(Request::Heartbeat {
                    worker: (*worker).to_string(),
                    addr: (*addr).to_string(),
                })
            }
            "FLEET" => {
                if rest.is_empty() {
                    Ok(Request::Fleet)
                } else {
                    Err("FLEET takes no arguments".into())
                }
            }
            "SHUTDOWN" => {
                if rest.is_empty() {
                    Ok(Request::Shutdown)
                } else {
                    Err("SHUTDOWN takes no arguments".into())
                }
            }
            other => Err(format!(
                "unknown request '{other}' (expected SUBMIT, STATUS, RESULT, CANCEL, METRICS, \
                 HEARTBEAT, FLEET or SHUTDOWN)"
            )),
        }
    }

    /// The verb label used by the per-verb request counters
    /// (`server_requests_total{verb=...}` / `fleet_requests_total{verb=...}`).
    /// `RESULT WAIT` counts under `RESULT` and the wait-flagged binary
    /// submit under `SUBMIT`: they are the same fetch/submit, so smoke tests
    /// asserting exact per-verb counts hold whichever variant (and whichever
    /// framing, text or binary) a client uses.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Submit(_) | Request::SubmitWait(_) => "SUBMIT",
            Request::Status(_) => "STATUS",
            Request::Result(_) | Request::ResultWait(_) => "RESULT",
            Request::Cancel(_) => "CANCEL",
            Request::Metrics => "METRICS",
            Request::Heartbeat { .. } => "HEARTBEAT",
            Request::Fleet => "FLEET",
            Request::Shutdown => "SHUTDOWN",
        }
    }

    /// The canonical request line (inverse of [`Request::parse`]).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit(spec) | Request::SubmitWait(spec) => {
                format!("SUBMIT {}", spec.canonical())
            }
            Request::Status(id) => format!("STATUS {id}"),
            Request::Result(id) => format!("RESULT {id}"),
            Request::ResultWait(id) => format!("RESULT WAIT {id}"),
            Request::Cancel(id) => format!("CANCEL {id}"),
            Request::Metrics => "METRICS".into(),
            Request::Heartbeat { worker, addr } => format!("HEARTBEAT {worker} {addr}"),
            Request::Fleet => "FLEET".into(),
            Request::Shutdown => "SHUTDOWN".into(),
        }
    }
}

/// A typed server reply: the single source of truth both renderings share.
///
/// [`Response::render_text`] produces the exact byte strings of the line
/// protocol (unchanged since DESIGN.md §9); [`crate::wire::encode_response`]
/// produces the equivalent `KGW1` frame. Result and METRICS/FLEET payloads
/// are carried as shared `Arc`s. Each framing is defined once, by a
/// function that writes only the head in front of that body
/// ([`Response::text_head`], [`crate::wire::encode_response_head`]), so a
/// reply's payload is never copied on its way out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `OK <words>` — acknowledgement; `words` is everything after `OK `.
    Ok(String),
    /// `BUSY <depth>` — the admission queue is full.
    Busy(u64),
    /// `WAIT <id> <STATE>` — the job exists but has not finished.
    Wait {
        /// The job id.
        id: u64,
        /// The lifecycle state's wire name.
        state: &'static str,
    },
    /// `RESULT <id> <len>` + payload bytes.
    Result {
        /// The job id.
        id: u64,
        /// The result payload.
        payload: Arc<Vec<u8>>,
    },
    /// `GONE <id>` — the payload was already fetched (fetched-once).
    Gone(u64),
    /// `ERR <msg>`.
    Err(String),
    /// `METRICS <len>` + text exposition.
    Metrics(Arc<Vec<u8>>),
    /// `FLEET <len>` + fleet status text.
    Fleet(Arc<Vec<u8>>),
}

impl Response {
    /// Renders the reply's text head into `head` and returns the body that
    /// follows it on the wire: the shared payload of `RESULT`, `METRICS` and
    /// `FLEET`, `None` for the one-line replies. This is the text framing's
    /// one definition; the event loop queues the body by reference after
    /// the head, so a payload is never copied to be sent.
    pub fn text_head(&self, head: &mut Vec<u8>) -> Option<&Arc<Vec<u8>>> {
        // Writing into a `Vec` cannot fail.
        let _ = match self {
            Response::Ok(words) => writeln!(head, "OK {words}"),
            Response::Busy(depth) => writeln!(head, "BUSY {depth}"),
            Response::Wait { id, state } => writeln!(head, "WAIT {id} {state}"),
            Response::Result { id, payload } => writeln!(head, "RESULT {id} {}", payload.len()),
            Response::Gone(id) => writeln!(head, "GONE {id}"),
            Response::Err(msg) => writeln!(head, "ERR {msg}"),
            Response::Metrics(text) => writeln!(head, "METRICS {}", text.len()),
            Response::Fleet(text) => writeln!(head, "FLEET {}", text.len()),
        };
        self.body()
    }

    /// The shared body that follows the head of a `RESULT`, `METRICS` or
    /// `FLEET` reply.
    pub(crate) fn body(&self) -> Option<&Arc<Vec<u8>>> {
        match self {
            Response::Result { payload: body, .. }
            | Response::Metrics(body)
            | Response::Fleet(body) => Some(body),
            _ => None,
        }
    }

    /// The whole reply in the text line protocol, byte-exact with the
    /// pre-readiness-loop server: [`Response::text_head`] and its body in
    /// one buffer.
    pub fn render_text(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(body) = self.text_head(&mut out) {
            out.extend_from_slice(body);
        }
        out
    }

    /// Reads one reply in the text line protocol: the inverse of
    /// [`Response::render_text`]. A `WAIT` state must be a [`JobState`] wire
    /// name, and a `RESULT`, `METRICS` or `FLEET` payload may be at most
    /// [`MAX_FRAME_BODY`] bytes, the cap `KGW1` frames have, so the length a
    /// peer names is never allocated unchecked.
    ///
    /// # Errors
    ///
    /// The reader's I/O errors, [`ErrorKind::UnexpectedEof`] for a reply cut
    /// short, and [`ErrorKind::InvalidData`] for one outside the grammar.
    pub fn read_text(reader: &mut impl BufRead) -> io::Result<Response> {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let Some(line) = line.strip_suffix('\n') else {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "the connection closed before a whole reply line",
            ));
        };
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let malformed = || invalid(format!("malformed reply '{line}'"));
        let number = |word: &str| word.parse::<u64>().map_err(|_| malformed());
        Ok(match verb {
            "OK" => Response::Ok(rest.to_string()),
            "ERR" => Response::Err(rest.to_string()),
            "BUSY" => Response::Busy(number(rest)?),
            "GONE" => Response::Gone(number(rest)?),
            "WAIT" => {
                let (id, state) = rest.split_once(' ').ok_or_else(malformed)?;
                let state = JobState::parse(state).ok_or_else(malformed)?;
                Response::Wait {
                    id: number(id)?,
                    state: state.wire_name(),
                }
            }
            "RESULT" => {
                let (id, len) = rest.split_once(' ').ok_or_else(malformed)?;
                let id = number(id)?;
                let payload = read_payload(reader, len)?;
                Response::Result { id, payload }
            }
            "METRICS" => Response::Metrics(read_payload(reader, rest)?),
            "FLEET" => Response::Fleet(read_payload(reader, rest)?),
            _ => return Err(invalid(format!("unknown reply '{line}'"))),
        })
    }

    /// True for `ERR` responses (the reply-classification counters key on
    /// this).
    pub fn is_err(&self) -> bool {
        matches!(self, Response::Err(_))
    }
}

/// Whether `addr` is an address a coordinator can dial back, as a
/// `HEARTBEAT` must advertise: `HOST:PORT` with a non-empty host and a port
/// other than 0. Host names (`worker-a:7461`) qualify.
pub fn is_dialable(addr: &str) -> bool {
    addr.rsplit_once(':')
        .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok_and(|p| p != 0))
}

fn invalid(message: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, message)
}

/// Reads the payload whose length `len` a text reply header names, refusing
/// one above [`MAX_FRAME_BODY`] before allocating it.
fn read_payload(reader: &mut impl Read, len: &str) -> io::Result<Arc<Vec<u8>>> {
    let len: usize = len
        .parse()
        .map_err(|_| invalid(format!("malformed payload length '{len}'")))?;
    if len > MAX_FRAME_BODY {
        return Err(invalid(format!(
            "a payload of {len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Arc::new(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Family;

    #[test]
    fn submit_round_trips() {
        let line = "SUBMIT hypercube:64 6 kecss auto 3";
        let req = Request::parse(line).unwrap();
        match &req {
            Request::Submit(spec) => {
                assert_eq!(
                    spec.instance,
                    InstanceSpec::Family {
                        family: Family::Hypercube,
                        n: 64,
                        max_weight: 1
                    }
                );
                assert_eq!((spec.k, spec.seed), (6, 3));
                assert_eq!(spec.algorithm, Algorithm::KEcss);
                assert_eq!(spec.enumerator, EnumeratorPolicy::Auto);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(req.to_line(), line);
    }

    #[test]
    fn control_requests_round_trip() {
        for line in [
            "STATUS 7",
            "RESULT 0",
            "CANCEL 12",
            "METRICS",
            "FLEET",
            "HEARTBEAT w1 127.0.0.1:7461",
            "SHUTDOWN",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(req.to_line(), line, "{line}");
        }
        assert_eq!(Request::parse("STATUS 7").unwrap(), Request::Status(7));
        assert_eq!(
            Request::parse("HEARTBEAT w1 127.0.0.1:7461").unwrap(),
            Request::Heartbeat {
                worker: "w1".into(),
                addr: "127.0.0.1:7461".into()
            }
        );
    }

    #[test]
    fn result_wait_round_trips_and_shares_the_result_verb() {
        let req = Request::parse("RESULT WAIT 9").unwrap();
        assert_eq!(req, Request::ResultWait(9));
        assert_eq!(req.to_line(), "RESULT WAIT 9");
        assert_eq!(req.verb(), "RESULT");
        assert_eq!(Request::Result(9).verb(), "RESULT");
        let err = Request::parse("RESULT WAIT nine").unwrap_err();
        assert!(err.contains("malformed job id"), "{err}");
        // Two non-WAIT arguments still read as the arity error.
        let err = Request::parse("RESULT 1 2").unwrap_err();
        assert!(err.contains("one job id"), "{err}");
    }

    #[test]
    fn responses_render_the_exact_line_protocol_bytes() {
        let payload = Arc::new(b"# kecss job result v1\n".to_vec());
        for (response, expect) in [
            (Response::Ok("3 QUEUED".into()), b"OK 3 QUEUED\n".to_vec()),
            (Response::Busy(16), b"BUSY 16\n".to_vec()),
            (
                Response::Wait {
                    id: 4,
                    state: "RUNNING",
                },
                b"WAIT 4 RUNNING\n".to_vec(),
            ),
            (
                Response::Result {
                    id: 7,
                    payload: Arc::clone(&payload),
                },
                [b"RESULT 7 22\n".to_vec(), payload.as_ref().clone()].concat(),
            ),
            (Response::Gone(7), b"GONE 7\n".to_vec()),
            (Response::Err("nope".into()), b"ERR nope\n".to_vec()),
            (
                Response::Metrics(Arc::new(b"# TYPE x counter\n".to_vec())),
                b"METRICS 17\n# TYPE x counter\n".to_vec(),
            ),
            (
                Response::Fleet(Arc::new(b"workers 0 live 0\n".to_vec())),
                b"FLEET 17\nworkers 0 live 0\n".to_vec(),
            ),
        ] {
            assert_eq!(response.render_text(), expect, "{response:?}");
        }
        assert!(Response::Err("x".into()).is_err());
        assert!(!Response::Gone(1).is_err());
    }

    /// Every reply, with every job-state word in `WAIT`, decodes back to
    /// itself from both renderings: the text line and the `KGW1` frame.
    #[test]
    fn every_reply_round_trips_through_both_renderings() {
        let mut replies = vec![
            Response::Ok("3 QUEUED".into()),
            Response::Ok(String::new()),
            Response::Busy(16),
            Response::Result {
                id: 7,
                payload: Arc::new(b"# kecss job result v1\nedge 0 1 3\n".to_vec()),
            },
            Response::Result {
                id: u64::MAX,
                payload: Arc::new(Vec::new()),
            },
            Response::Gone(7),
            Response::Err("unknown job 12".into()),
            Response::Metrics(Arc::new(b"# TYPE x counter\nx 1\n".to_vec())),
            Response::Fleet(Arc::new(b"workers 0 live 0\n".to_vec())),
        ];
        replies.extend(JobState::ALL.map(|state| Response::Wait {
            id: 4,
            state: state.wire_name(),
        }));
        for reply in replies {
            let text = reply.render_text();
            let mut unread = text.as_slice();
            assert_eq!(Response::read_text(&mut unread).unwrap(), reply);
            assert!(unread.is_empty(), "{reply:?} left {unread:?} unread");
            let frame = crate::wire::encode_response(&reply);
            let (header, body) = frame.split_first_chunk().unwrap();
            let (opcode, _, len) = crate::wire::parse_frame_header(header).unwrap();
            assert_eq!(len, body.len());
            assert_eq!(crate::wire::decode_response(opcode, body).unwrap(), reply);
        }
    }

    #[test]
    fn text_replies_outside_the_grammar_are_errors() {
        for (bytes, kind) in [
            (
                &b"RESULT 1 18446744073709551615\n"[..],
                ErrorKind::InvalidData,
            ),
            (b"METRICS 67108865\n", ErrorKind::InvalidData),
            (b"FLEET 99999999999999\n", ErrorKind::InvalidData),
            (b"WAIT 1 LIMBO\n", ErrorKind::InvalidData),
            (b"WAIT 1\n", ErrorKind::InvalidData),
            (b"BUSY many\n", ErrorKind::InvalidData),
            (b"HELLO\n", ErrorKind::InvalidData),
            (b"OK 1 QUEUED", ErrorKind::UnexpectedEof),
            (b"RESULT 1 5\nabc", ErrorKind::UnexpectedEof),
            (b"", ErrorKind::UnexpectedEof),
        ] {
            let err = Response::read_text(&mut &bytes[..]).unwrap_err();
            assert_eq!(
                err.kind(),
                kind,
                "{:?}: {err}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for (line, needle) in [
            ("", "empty"),
            ("FROBNICATE", "unknown request"),
            ("SUBMIT", "5 fields"),
            ("SUBMIT ring:20 2 kecss auto", "5 fields"),
            ("SUBMIT nope:20 2 kecss auto 1", "unknown family"),
            ("SUBMIT ring:20 x kecss auto 1", "malformed k"),
            ("SUBMIT ring:20 2 magic auto 1", "unknown algorithm"),
            ("SUBMIT ring:20 2 kecss magic 1", "unknown enumerator"),
            ("SUBMIT ring:20 2 kecss auto x", "malformed seed"),
            ("STATUS", "one job id"),
            ("STATUS seven", "malformed job id"),
            ("RESULT 1 2", "one job id"),
            ("METRICS all", "no arguments"),
            ("HEARTBEAT w1", "2 fields"),
            ("HEARTBEAT w1 addr extra", "2 fields"),
            ("FLEET all", "no arguments"),
            ("SHUTDOWN now", "no arguments"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "'{line}': {err}");
        }
    }
}
