//! The closed-loop client: submits jobs over one connection, keeps a fixed
//! number in flight, and checks every payload against its reference.

use crate::net::{Conn, Msg};
use crate::plan::Reference;
use kecss_server::job::JobSpec;
use kecss_server::protocol::Request;
use kecss_server::wire;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

/// The `SUBMIT` request of every spec, encoded before any clock starts: a
/// wait-flagged `KGW1` frame, or a text line.
pub fn encode(specs: &[JobSpec], binary: bool) -> Vec<Vec<u8>> {
    specs
        .iter()
        .map(|spec| {
            if binary {
                wire::encode_request(&Request::SubmitWait(spec.clone()))
            } else {
                format!("{}\n", Request::Submit(spec.clone()).to_line()).into_bytes()
            }
        })
        .collect()
}

/// Job counts of one or more passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// `ERR`, `BUSY`, an unverified payload, or a payload that differs from
    /// its reference.
    pub failed: u64,
    /// Of `failed`: payloads that arrived but were wrong.
    pub mismatched: u64,
}

/// A verified job: its spec index, when it was sent, and its client-side
/// latency.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    pub spec: usize,
    pub sent: Instant,
    pub latency: Duration,
}

/// Everything a pass needs besides the connection.
pub struct Jobs<'a> {
    pub requests: &'a [Vec<u8>],
    pub refs: &'a [Reference],
    pub window: usize,
}

impl Jobs<'_> {
    fn finish(&self, spec: usize, sent: Instant, payload: &[u8], out: &mut Pass) {
        let latency = sent.elapsed();
        let reference = &self.refs[spec];
        if reference.verified && payload == reference.payload.as_slice() {
            out.done.push(Done {
                spec,
                sent,
                latency,
            });
        } else {
            out.tally.failed += 1;
            out.tally.mismatched += 1;
        }
    }

    /// Runs the jobs `next` yields (spec indices) over `conn`, keeping up to
    /// `window` in flight, and appends the outcomes to `out`. `after_each`
    /// runs after every completion (the traced run samples `/proc` there).
    pub fn run(
        &self,
        conn: &mut Conn,
        next: &mut dyn FnMut() -> Option<usize>,
        out: &mut Pass,
        after_each: &mut dyn FnMut(),
    ) -> io::Result<()> {
        if self.window <= 1 && conn.is_binary() {
            while let Some(spec) = next() {
                out.tally.attempted += 1;
                let sent = Instant::now();
                conn.send(&self.requests[spec])?;
                match conn.recv()? {
                    Msg::Ok(_) => match conn.recv()? {
                        Msg::Result { payload, .. } => self.finish(spec, sent, &payload, out),
                        _ => out.tally.failed += 1,
                    },
                    _ => out.tally.failed += 1,
                }
                after_each();
            }
            return Ok(());
        }
        self.run_window(conn, next, out, after_each)
    }

    /// Text grammar with a pipelined window: `SUBMIT`, then `RESULT WAIT`
    /// once the id is known, and a new `SUBMIT` whenever a job completes.
    fn run_window(
        &self,
        conn: &mut Conn,
        next: &mut dyn FnMut() -> Option<usize>,
        out: &mut Pass,
        after_each: &mut dyn FnMut(),
    ) -> io::Result<()> {
        let mut unacked: VecDeque<(usize, Instant)> = VecDeque::new();
        let mut waiting: BTreeMap<u64, (usize, Instant)> = BTreeMap::new();
        let mut exhausted = false;
        loop {
            while !exhausted && unacked.len() + waiting.len() < self.window.max(1) {
                match next() {
                    Some(spec) => {
                        out.tally.attempted += 1;
                        unacked.push_back((spec, Instant::now()));
                        conn.send(&self.requests[spec])?;
                    }
                    None => exhausted = true,
                }
            }
            if unacked.is_empty() && waiting.is_empty() {
                return Ok(());
            }
            match conn.recv()? {
                Msg::Ok(words) => {
                    let id: u64 = words
                        .split_whitespace()
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| io::Error::other(format!("OK without an id: {words}")))?;
                    let job = unacked
                        .pop_front()
                        .ok_or_else(|| io::Error::other("OK for no pending SUBMIT"))?;
                    conn.send(format!("RESULT WAIT {id}\n").as_bytes())?;
                    waiting.insert(id, job);
                }
                Msg::Result { id, payload } => {
                    let (spec, sent) = waiting
                        .remove(&id)
                        .ok_or_else(|| io::Error::other(format!("RESULT for unknown job {id}")))?;
                    self.finish(spec, sent, &payload, out);
                    after_each();
                }
                Msg::Busy => {
                    unacked.pop_front();
                    out.tally.failed += 1;
                }
                Msg::Err(_) => {
                    // The text grammar does not say which job failed: retire
                    // the oldest one waiting for its result.
                    out.tally.failed += 1;
                    match waiting.keys().next().copied() {
                        Some(id) => {
                            waiting.remove(&id);
                        }
                        None => {
                            unacked.pop_front();
                        }
                    }
                }
                other => return Err(io::Error::other(format!("unexpected reply {other:?}"))),
            }
        }
    }
}

/// The outcomes of one or more passes.
#[derive(Debug, Default)]
pub struct Pass {
    pub done: Vec<Done>,
    pub tally: Tally,
}

impl Pass {
    pub fn latencies_us(&self) -> Vec<f64> {
        self.done
            .iter()
            .map(|d| d.latency.as_secs_f64() * 1e6)
            .collect()
    }
}

/// Yields spec indices from `*cursor` on (cycling over `len`) until
/// `deadline` has passed at a cycle boundary of `shapes` jobs; `*cursor`
/// keeps the position for the next call.
pub fn until(
    deadline: Instant,
    cursor: &mut usize,
    len: usize,
    shapes: usize,
) -> impl FnMut() -> Option<usize> + '_ {
    move || {
        if cursor.is_multiple_of(shapes) && Instant::now() >= deadline {
            return None;
        }
        let spec = *cursor % len;
        *cursor += 1;
        Some(spec)
    }
}

/// Yields the given spec indices once.
pub fn once(specs: Vec<usize>) -> impl FnMut() -> Option<usize> {
    let mut it = specs.into_iter();
    move || it.next()
}
