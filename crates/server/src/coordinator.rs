//! The fleet control plane: a coordinator that speaks the **same**
//! client-facing protocol as the standalone server, but dispatches every job
//! to a registered worker over that same wire format (DESIGN.md §13).
//!
//! # Design
//!
//! * **Clients see no new protocol.** `SUBMIT`/`STATUS`/`RESULT`/`CANCEL`/
//!   `METRICS`/`SHUTDOWN` are answered by the same responder as on a
//!   standalone server ([`crate::event_loop`]), over this role's job table;
//!   the only client-visible novelty is the `ASSIGNED` state word and the
//!   coordinator-only `HEARTBEAT` and `FLEET` verbs.
//! * **Workers are plain servers.** The coordinator is a protocol *client*
//!   of each worker: it keeps one persistent `KGW1` link per live worker and
//!   dispatches a job as one wait-flagged `SUBMIT` frame on it. The worker
//!   acks, then pushes the terminal reply on the same link, so no code path
//!   polls and no thread or connection is made per job. One thread per link
//!   dials it on first use (frames sent meanwhile wait in the link), then
//!   decodes the replies into [`Response`]s and writes every outcome back
//!   through `FleetTable::complete`. Workers register by sending
//!   `HEARTBEAT <id> <addr>` periodically.
//! * **Lifecycle.** Every job walks the [`JobState`] machine
//!   (`QUEUED → ASSIGNED → RUNNING → DONE/FAILED`, with the two loss
//!   transitions back to `QUEUED`); illegal transitions panic rather than
//!   corrupt the table.
//! * **Determinism under failure.** [`crate::job::run`] is pure in the spec,
//!   so *which* worker runs a job — and how many times it is re-dispatched —
//!   cannot change the payload bytes. Deterministic assignment
//!   (`splitmix64(job id)` over the sorted live-worker set) additionally
//!   pins *where* a job runs for a given fleet shape, which keeps scheduling
//!   reproducible, but byte-identical results need only purity. See the
//!   determinism argument in DESIGN.md §13.
//!
//! # Retry semantics
//!
//! A worker loss — a failed dial, a link read or write error, a reply
//! outside the protocol, a heartbeat timeout, or a `SUBMIT` unacked for that
//! long — re-queues the worker's non-terminal jobs and bumps their retry
//! count; past `max_retries` a job fails instead. A `BUSY` answer is *not* a
//! retry: the job returns to the queue with a short back-off. A reply writes
//! back only under the epoch its `SUBMIT` carried, so a stale link can never
//! clobber the table.

use crate::client::read_reply_frame;
use crate::event_loop::{run_event_loop, EventLoopConfig, Service};
use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::scheduler::{CompletionHook, JobId, JobState, Outcome};
use crate::wire;
use kecss_obs::{Counter, Gauge, Histogram};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cached handles into the global registry (the fixed-name fleet series);
/// per-worker labelled series are resolved on demand.
struct Metrics {
    workers_live: Arc<Gauge>,
    retries: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    assignment_wait_ns: Arc<Histogram>,
    heartbeat_gap_ns: Arc<Histogram>,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        workers_live: kecss_obs::gauge("fleet_workers_live"),
        retries: kecss_obs::counter("fleet_job_retries_total"),
        completed: kecss_obs::counter_with("fleet_jobs_total", &[("state", "completed")]),
        failed: kecss_obs::counter_with("fleet_jobs_total", &[("state", "failed")]),
        cancelled: kecss_obs::counter_with("fleet_jobs_total", &[("state", "cancelled")]),
        assignment_wait_ns: kecss_obs::histogram("fleet_assignment_wait_ns"),
        heartbeat_gap_ns: kecss_obs::histogram("fleet_heartbeat_gap_ns"),
    })
}

/// Coordinator configuration (the CLI's `kecss serve --role coordinator`
/// flags).
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// The client-facing address to bind (port 0 picks one).
    pub addr: String,
    /// Maximum jobs in flight (queued + assigned + running) before `BUSY`.
    pub queue_depth: usize,
    /// A worker whose last heartbeat, or oldest unacked `SUBMIT`, is older
    /// than this is deregistered and its jobs re-queued; also bounds writes.
    pub heartbeat_timeout: Duration,
    /// Worker-loss re-queues a job tolerates before failing.
    pub max_retries: u32,
    /// Per-connection request limit (0 = unlimited), as on the server.
    pub max_requests_per_conn: usize,
    /// Per-connection unsent-reply bound (the slow-client policy), as on the
    /// server.
    pub write_queue_limit: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:7460".into(),
            queue_depth: 64,
            heartbeat_timeout: Duration::from_secs(3),
            max_retries: 5,
            max_requests_per_conn: 0,
            write_queue_limit: 16 << 20,
        }
    }
}

/// Aggregate fleet counters, returned by [`Coordinator::run`] and rendered
/// in the `FLEET` status text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetSummary {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that finished with a payload.
    pub completed: u64,
    /// Jobs that finished with an error (including exhausted retries).
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Submissions rejected with `BUSY`.
    pub rejected: u64,
    /// Worker-loss (or `BUSY`) re-queues across all jobs.
    pub retries: u64,
}

/// How long a job a worker answered `BUSY` waits before its next dispatch.
const BUSY_BACKOFF: Duration = Duration::from_millis(25);

/// One fleet job's table entry.
struct FleetJob {
    spec: JobSpec,
    state: JobState,
    /// The worker currently (or last) responsible, by id.
    worker: Option<String>,
    /// Bumped on every (re)assignment and every re-queue; a link reply
    /// writes back only under the epoch its `SUBMIT` carried.
    epoch: u64,
    /// Worker-loss re-queues so far (`BUSY` back-offs do not count).
    retries: u32,
    /// Earliest next dispatch (the `BUSY` back-off).
    not_before: Instant,
    /// Set while non-terminal; consumed into the assignment-wait histogram.
    submitted_at: Instant,
    /// The terminal outcome, with the server's fetched-once semantics.
    outcome: Option<Outcome>,
}

impl FleetJob {
    /// Moves the job to `to`, enforcing the [`JobState`] transition table.
    fn transition(&mut self, to: JobState) {
        assert!(
            self.state.can_transition(to),
            "illegal fleet transition {:?} -> {to:?}",
            self.state
        );
        self.state = to;
    }
}

/// One registered worker.
struct WorkerEntry {
    addr: String,
    last_beat: Instant,
    live: bool,
    /// Jobs ever dispatched to this worker.
    dispatched: u64,
    /// Jobs currently assigned/running on this worker.
    inflight: u64,
    /// The dispatch link, dialled on first use and dropped on loss.
    link: Option<Arc<Link>>,
}

/// What a worker link learned about one dispatched job.
enum Answer {
    /// `OK <wid> QUEUED`: the worker took the job — the RUNNING hop.
    Acked,
    /// `BUSY`: the worker's queue is full; back off, no retry charged.
    Busy,
    /// The terminal push: `Done` with the payload, or `Failed` with the
    /// worker's failure text.
    Finished(JobState, Outcome),
}

#[derive(Default)]
struct FleetTable {
    /// The last job id handed out (ids start at 1).
    next_id: JobId,
    /// Every job, terminal ones included (`STATUS`/`RESULT` answer them).
    jobs: BTreeMap<JobId, FleetJob>,
    /// The ids of the non-terminal jobs, in id order. The dispatch scan, the
    /// back-off deadline, the loss re-queue and `FLEET` walk this, never
    /// `jobs`, and its length is what the depth bound applies to.
    open: BTreeSet<JobId>,
    /// `BTreeMap` so "the sorted live-worker set" is the iteration order.
    workers: BTreeMap<String, WorkerEntry>,
    closed: bool,
    /// Set (under the lock) by everything that makes new dispatch work —
    /// submission, registration, a re-queue or back-off, shutdown — and
    /// cleared by the dispatcher after each scan. A `Condvar` notification
    /// fired between the dispatcher's scan and its wait is otherwise lost,
    /// and the job would sit queued until the next sweep tick.
    kicked: bool,
    /// Job ids that reached a terminal state since the last
    /// [`Shared::release`], which fires the readiness loop's completion
    /// hook for them (push delivery and the shutdown drain).
    pending_terminal: Vec<JobId>,
    summary: FleetSummary,
}

impl FleetTable {
    fn update_live_gauge(&self) {
        let live = self.workers.values().filter(|w| w.live).count();
        metrics().workers_live.set(live as i64);
    }

    /// Admits one submission as job `Ok(id)`, or refuses it with the depth
    /// (`BUSY`).
    fn admit(&mut self, spec: JobSpec, queue_depth: usize) -> Result<JobId, usize> {
        if self.open.len() >= queue_depth {
            self.summary.rejected += 1;
            return Err(queue_depth);
        }
        self.next_id += 1;
        let id = self.next_id;
        self.summary.submitted += 1;
        let now = Instant::now();
        let job = FleetJob {
            spec,
            state: JobState::Queued,
            worker: None,
            epoch: 0,
            retries: 0,
            not_before: now,
            submitted_at: now,
            outcome: None,
        };
        self.jobs.insert(id, job);
        self.open.insert(id);
        self.kicked = true;
        Ok(id)
    }

    /// Assigns every ready queued job, in id order, to `splitmix64(id)` over
    /// the sorted live-worker set, and returns the `SUBMIT`s to write:
    /// `(job, epoch, worker, spec)`.
    fn assign_ready(&mut self, now: Instant) -> Vec<(JobId, u64, String, JobSpec)> {
        let live: Vec<String> = self
            .workers
            .iter()
            .filter(|(_, w)| w.live)
            .map(|(id, _)| id.clone())
            .collect();
        if live.is_empty() {
            return Vec::new();
        }
        let ready: Vec<JobId> = self
            .open
            .iter()
            .copied()
            .filter(|id| {
                let job = &self.jobs[id];
                job.state == JobState::Queued && job.not_before <= now
            })
            .collect();
        let mut sends = Vec::with_capacity(ready.len());
        for id in ready {
            let worker = &live[(splitmix64(id) % live.len() as u64) as usize];
            let job = self.jobs.get_mut(&id).expect("open job exists");
            job.transition(JobState::Assigned);
            job.worker = Some(worker.clone());
            job.epoch += 1;
            if kecss_obs::enabled() {
                let wait = now.duration_since(job.submitted_at).as_nanos();
                metrics()
                    .assignment_wait_ns
                    .record(u64::try_from(wait).unwrap_or(u64::MAX));
            }
            sends.push((id, job.epoch, worker.clone(), job.spec.clone()));
            let entry = self.workers.get_mut(worker).expect("live worker exists");
            entry.dispatched += 1;
            entry.inflight += 1;
            worker_dispatched_counter(worker).inc();
            worker_inflight_gauge(worker).set(entry.inflight as i64);
        }
        sends
    }

    /// The one write-back path for what a link learned about a dispatched
    /// job. Epoch-guarded: an answer for a job that was re-queued (or
    /// finished) since its `SUBMIT` was written is dropped.
    fn complete(&mut self, id: JobId, epoch: u64, answer: Answer) {
        let Some(job) = self.jobs.get_mut(&id).filter(|j| j.epoch == epoch) else {
            return;
        };
        match answer {
            Answer::Acked => job.transition(JobState::Running),
            Answer::Busy => {
                job.transition(JobState::Queued);
                job.epoch += 1;
                job.not_before = Instant::now() + BUSY_BACKOFF;
                let worker = job.worker.take();
                self.detach(worker.as_deref());
                self.kicked = true;
            }
            Answer::Finished(to, outcome) => self.finish(id, to, outcome),
        }
    }

    /// Drops one assigned/running job from `worker`'s in-flight count.
    fn detach(&mut self, worker: Option<&str>) {
        let Some((worker, entry)) = worker.and_then(|w| Some((w, self.workers.get_mut(w)?))) else {
            return;
        };
        entry.inflight = entry.inflight.saturating_sub(1);
        worker_inflight_gauge(worker).set(entry.inflight as i64);
    }

    /// Marks a job terminal: transition, store the outcome, release its
    /// worker and its open slot, count it.
    fn finish(&mut self, id: JobId, to: JobState, outcome: Outcome) {
        let job = self.jobs.get_mut(&id).expect("finishing a known job");
        job.transition(to);
        job.outcome = Some(outcome);
        let worker = job.worker.take();
        self.detach(worker.as_deref());
        self.open.remove(&id);
        self.pending_terminal.push(id);
        let (count, counter) = match to {
            JobState::Done => (&mut self.summary.completed, &metrics().completed),
            JobState::Failed => (&mut self.summary.failed, &metrics().failed),
            JobState::Cancelled => (&mut self.summary.cancelled, &metrics().cancelled),
            _ => unreachable!("finish is only called with terminal states"),
        };
        *count += 1;
        counter.inc();
    }

    /// `worker`'s entry while `link` is its current link (`None`: it has
    /// none).
    fn current(&mut self, worker: &str, link: Option<&Arc<Link>>) -> Option<&mut WorkerEntry> {
        let entry = self.workers.get_mut(worker)?;
        (entry.link.as_ref().map(Arc::as_ptr) == link.map(Arc::as_ptr)).then_some(entry)
    }

    /// The one loss path: marks `worker` dead, closes its link and re-queues
    /// its jobs. Acts only while `link` is still the worker's current link,
    /// so a stale reader cannot tear down the link of a worker that has
    /// since re-registered.
    fn lose(&mut self, worker: &str, link: Option<&Arc<Link>>, cause: &str, max_retries: u32) {
        let Some(entry) = self.current(worker, link) else {
            return;
        };
        if let Some(link) = entry.link.take() {
            link.close();
        }
        entry.live = false;
        self.requeue_worker_jobs(worker, max_retries, cause);
        self.update_live_gauge();
        self.kicked = true;
    }

    /// Returns every non-terminal job owned by `worker` to the queue (or
    /// fails it when its retry budget is spent).
    fn requeue_worker_jobs(&mut self, worker: &str, max_retries: u32, cause: &str) {
        let ids: Vec<JobId> = self
            .open
            .iter()
            .copied()
            .filter(|id| self.jobs[id].worker.as_deref() == Some(worker))
            .collect();
        for id in ids {
            self.summary.retries += 1;
            metrics().retries.inc();
            let job = self.jobs.get_mut(&id).expect("open job exists");
            job.epoch += 1;
            job.retries += 1;
            if job.retries > max_retries {
                let message = format!(
                    "worker lost {} times (last: {cause}); retry budget {max_retries} spent",
                    job.retries
                );
                self.finish(id, JobState::Failed, Outcome::Failed(message));
            } else {
                job.transition(JobState::Queued);
                job.not_before = Instant::now();
                job.worker = None;
                self.detach(Some(worker));
            }
        }
    }

    /// How long the dispatcher may sleep: until the earliest `BUSY` back-off
    /// deadline (a backed-off job has no notification coming), at most
    /// `tick`. Queued jobs with no live worker get no special wake:
    /// registration kicks.
    fn next_wake(&self, tick: Duration) -> Duration {
        if !self.workers.values().any(|w| w.live) {
            return tick;
        }
        let queued = self.open.iter().map(|id| &self.jobs[id]);
        let next = queued
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.not_before)
            .min();
        next.map_or(tick, |t| {
            let wait = t.saturating_duration_since(Instant::now());
            wait.clamp(Duration::from_millis(1), tick)
        })
    }
}

fn worker_inflight_gauge(worker: &str) -> Arc<Gauge> {
    kecss_obs::gauge_with("fleet_worker_inflight", &[("worker", worker)])
}

fn worker_dispatched_counter(worker: &str) -> Arc<Counter> {
    kecss_obs::counter_with("fleet_worker_dispatched_total", &[("worker", worker)])
}

/// One persistent `KGW1` connection to a worker. Every dispatch to that
/// worker is a wait-flagged `SUBMIT` frame sent here; [`run_link`] dials it
/// and decodes the replies on a thread of its own, so a dial that hangs
/// holds up only this worker's jobs.
#[derive(Default)]
struct Link {
    /// Set by the reader once its dial succeeds.
    stream: OnceLock<TcpStream>,
    queue: Mutex<LinkQueue>,
}

/// What a link's lock guards: its frames and its answers are ordered by it.
#[derive(Default)]
struct LinkQueue {
    /// Frames sent while the link was still dialling, written after the
    /// preamble.
    unsent: Vec<u8>,
    /// `(job, epoch, sent at)` of each `SUBMIT` not answered yet. Acks,
    /// `BUSY` and request `ERR`s answer in write order, so an entry is
    /// pushed under the same lock as its write and popped by its answer.
    unacked: VecDeque<(JobId, u64, Instant)>,
}

impl Link {
    fn queue(&self) -> MutexGuard<'_, LinkQueue> {
        self.queue.lock().expect("link lock poisoned")
    }

    fn oldest_unacked(&self) -> Option<Instant> {
        self.queue().unacked.front().map(|s| s.2)
    }

    /// Sends the `SUBMIT` frame of job `id` under `epoch`, or queues it until
    /// the dial finishes.
    fn send(&self, id: JobId, epoch: u64, frame: &[u8]) -> std::io::Result<()> {
        let mut queue = self.queue();
        match self.stream.get() {
            Some(mut stream) => stream.write_all(frame)?,
            None => queue.unsent.extend_from_slice(frame),
        }
        queue.unacked.push_back((id, epoch, Instant::now()));
        Ok(())
    }

    /// Dials `addr`, then writes the preamble and the queued frames; the
    /// dial and every write are bounded by `timeout`. Returns the read half.
    fn dial(&self, addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
        let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no address resolved")
        })?;
        let stream = TcpStream::connect_timeout(&target, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = stream.try_clone()?;
        let mut queue = self.queue();
        let unsent = std::mem::take(&mut queue.unsent);
        (&stream).write_all(&[&wire::PREAMBLE[..], &unsent].concat())?;
        let _ = self.stream.set(stream);
        Ok(reader)
    }

    /// Shuts the socket down, which wakes the reader even when the worker
    /// has gone silent. A link still dialling is closed by its reader, which
    /// checks after the dial that the link is still current.
    fn close(&self) {
        if let Some(stream) = self.stream.get() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The worker job id a terminal `ERR` push names: `job <wid> failed: …` or
/// `job <wid> was cancelled …`.
fn terminal_err_job(message: &str) -> Option<JobId> {
    let (wid, rest) = message.strip_prefix("job ")?.split_once(' ')?;
    let terminal = rest.starts_with("failed: ") || rest.starts_with("was cancelled");
    terminal.then(|| wid.parse().ok()).flatten()
}

/// A link's thread: dials `addr`, then reads until the link is lost. Acks
/// and `BUSY` answer the oldest unanswered `SUBMIT`, a `RESULT` or terminal
/// `ERR` names an acked worker job id, and each answer goes through
/// [`FleetTable::complete`]. Anything else — a failed dial, a read error, a
/// request `ERR`, a reply outside the protocol — is a loss.
fn run_link(shared: &Shared, worker: &str, link: &Arc<Link>, addr: &str) {
    let dialled = link.dial(addr, shared.config.heartbeat_timeout);
    // A loss during the dial found no socket to shut down: close it here.
    let current = shared.lock().current(worker, Some(link)).is_some();
    let stream = match dialled {
        Ok(stream) if current => stream,
        Ok(_) => return link.close(),
        Err(e) => return shared.lose(worker, Some(link), &format!("cannot dial {addr}: {e}")),
    };
    let mut reader = BufReader::new(stream);
    // Acked worker job id -> (fleet job id, epoch).
    let mut acked: HashMap<JobId, (JobId, u64)> = HashMap::new();
    let cause = loop {
        let answer = match read_reply_frame(&mut reader) {
            Err(e) => break e.to_string(),
            Ok(Response::Ok(words)) => {
                let wid = words.split_whitespace().next().and_then(|w| w.parse().ok());
                let front = link.queue().unacked.pop_front();
                front.zip(wid).map(|((id, epoch, _), wid)| {
                    acked.insert(wid, (id, epoch));
                    (id, epoch, Answer::Acked)
                })
            }
            Ok(Response::Busy(_)) => link
                .queue()
                .unacked
                .pop_front()
                .map(|(id, epoch, _)| (id, epoch, Answer::Busy)),
            Ok(Response::Result { id: wid, payload }) => acked.remove(&wid).map(|(id, epoch)| {
                let outcome = Outcome::Done(payload);
                (id, epoch, Answer::Finished(JobState::Done, outcome))
            }),
            Ok(Response::Err(message)) => {
                let job = terminal_err_job(&message).and_then(|w| Some((w, acked.remove(&w)?)));
                let Some((wid, (id, epoch))) = job else {
                    break format!("worker refused the link: {message}");
                };
                let failure = message
                    .strip_prefix(&format!("job {wid} failed: "))
                    .unwrap_or(&message);
                let outcome = Outcome::Failed(failure.to_string());
                Some((id, epoch, Answer::Finished(JobState::Failed, outcome)))
            }
            Ok(other) => break format!("worker answered outside the protocol: {other:?}"),
        };
        match answer {
            Some((id, epoch, answer)) => shared.update(|t| t.complete(id, epoch, answer)),
            None => break "worker answered no SUBMIT of this link".into(),
        }
    };
    shared.lose(worker, Some(link), &cause);
}

#[derive(Default)]
struct Shared {
    table: Mutex<FleetTable>,
    /// Signalled whenever dispatch-relevant state changes (submission,
    /// registration, re-queue, back-off).
    dispatch: Condvar,
    /// Stops the dispatcher thread (set after the shutdown drain).
    stop: AtomicBool,
    /// The readiness loop's completion hook (push delivery + drain wakeups),
    /// installed once before the loop starts serving.
    completion_hook: OnceLock<CompletionHook>,
    /// The link reader threads, joined on shutdown.
    readers: Mutex<Vec<JoinHandle<()>>>,
    config: CoordinatorConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, FleetTable> {
        self.table.lock().expect("coordinator lock poisoned")
    }

    /// Drops the table lock, then wakes the dispatcher if there is new
    /// dispatch work and fires the loop's completion hook for every job that
    /// went terminal. The hook takes its own locks, so it never runs under
    /// the table lock.
    fn release(&self, mut table: MutexGuard<'_, FleetTable>) {
        let ids = std::mem::take(&mut table.pending_terminal);
        let kicked = table.kicked;
        drop(table);
        if kicked {
            self.dispatch.notify_all();
        }
        if let Some(hook) = self.completion_hook.get() {
            ids.into_iter().for_each(|id| hook(id));
        }
    }

    /// Runs `f` on the locked table, then [`Shared::release`]s it.
    fn update<R>(&self, f: impl FnOnce(&mut FleetTable) -> R) -> R {
        let mut table = self.lock();
        let result = f(&mut table);
        self.release(table);
        result
    }

    fn lose(&self, worker: &str, link: Option<&Arc<Link>>, cause: &str) {
        self.update(|t| t.lose(worker, link, cause, self.config.max_retries));
    }

    /// `worker`'s link, made (and its thread, which dials it, started) on
    /// first use; `None` means the job to send was re-queued by a loss.
    fn link(self: &Arc<Self>, worker: &str) -> Option<Arc<Link>> {
        let mut table = self.lock();
        let entry = table.workers.get_mut(worker)?;
        if entry.link.is_some() || !entry.live {
            return entry.link.clone();
        }
        let link = Arc::new(Link::default());
        entry.link = Some(Arc::clone(&link));
        let (shared, name, addr) = (Arc::clone(self), worker.to_string(), entry.addr.clone());
        drop(table);
        let run = Arc::clone(&link);
        let reader = std::thread::spawn(move || run_link(&shared, &name, &run, &addr));
        let mut readers = self.readers.lock().expect("reader list poisoned");
        for finished in readers.extract_if(.., |r| r.is_finished()) {
            finished.join().expect("a link reader panicked");
        }
        readers.push(reader);
        Some(link)
    }
}

/// The deterministic assignment hash: splitmix64, the same finalizer the
/// solver seeds go through. The *value* only matters in that it is a fixed
/// pure function of the job id — assignment is then reproducible for a
/// given sorted live-worker set.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A bound, not-yet-running coordinator (bind/run split as on [`crate::Server`]).
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
    loop_config: EventLoopConfig,
}

impl Coordinator {
    /// Binds the client-facing listener.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &CoordinatorConfig) -> std::io::Result<Coordinator> {
        Ok(Coordinator {
            listener: TcpListener::bind(&config.addr)?,
            shared: Arc::new(Shared {
                config: CoordinatorConfig {
                    queue_depth: config.queue_depth.max(1),
                    ..config.clone()
                },
                ..Shared::default()
            }),
            loop_config: EventLoopConfig {
                max_requests_per_conn: config.max_requests_per_conn,
                write_queue_limit: config.write_queue_limit.max(1),
                backend: None,
            },
        })
    }

    /// The actually-bound client-facing address (resolves port 0).
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the bound address (it just bound it).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Runs the readiness loop and the dispatcher until a `SHUTDOWN` request
    /// arrives, then drains the in-flight jobs, closes the worker links and
    /// returns the final counters. The drain needs live workers to make
    /// progress; a fleet shut down with queued jobs and no workers waits
    /// until a worker registers (heartbeats on already-open connections are
    /// still served during the drain; only *new* connects are refused).
    ///
    /// # Panics
    ///
    /// Panics if the readiness poller cannot be constructed (fd exhaustion).
    pub fn run(self) -> FleetSummary {
        let dispatcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || dispatcher_loop(&shared))
        };
        // The loop returns only once every admitted job is terminal (its
        // drain condition asks `Shared::idle`); dispatch and retries keep
        // running on the threads behind it meanwhile.
        run_event_loop(self.listener, &*self.shared, &self.loop_config)
            .expect("readiness loop failed to start");
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.update(|t| t.kicked = true);
        let _ = dispatcher.join();
        let summary = self.shared.update(|t| {
            for link in t.workers.values_mut().filter_map(|w| w.link.take()) {
                link.close();
            }
            t.summary
        });
        let readers =
            std::mem::take(&mut *self.shared.readers.lock().expect("reader list poisoned"));
        for reader in readers {
            reader.join().expect("a link reader panicked");
        }
        summary
    }

    /// Spawns [`Coordinator::run`] on a background thread (tests, benches
    /// and the in-process harness).
    pub fn spawn(self) -> CoordinatorHandle {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        CoordinatorHandle { addr, thread }
    }
}

/// A running background coordinator.
pub struct CoordinatorHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<FleetSummary>,
}

impl CoordinatorHandle {
    /// The coordinator's client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the coordinator to shut down (send `SHUTDOWN` first) and
    /// returns its final counters.
    ///
    /// # Panics
    ///
    /// Panics if the coordinator thread panicked.
    pub fn join(self) -> FleetSummary {
        self.thread.join().expect("coordinator thread panicked")
    }
}

/// The dispatcher: one loop that (1) sweeps lost workers — beats stopped, or
/// a `SUBMIT` unacked past the heartbeat timeout — and re-queues their jobs,
/// (2) assigns queued jobs to live workers deterministically, and (3) writes
/// each assignment as a `SUBMIT` frame onto the worker's link.
fn dispatcher_loop(shared: &Arc<Shared>) {
    let timeout = shared.config.heartbeat_timeout;
    // The sweep cadence bounds loss-detection latency; a quarter of the
    // timeout keeps detection prompt without busy-waiting.
    let tick = (timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    loop {
        let mut table = shared.lock();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        let mut lost = Vec::new();
        for (id, w) in table.workers.iter().filter(|(_, w)| w.live) {
            let unacked_since = w.link.as_ref().and_then(|l| l.oldest_unacked());
            let cause = if now.duration_since(w.last_beat) > timeout {
                "heartbeat timeout"
            } else if unacked_since.is_some_and(|t| now.duration_since(t) > timeout) {
                "SUBMIT not acked within the heartbeat timeout"
            } else {
                continue;
            };
            lost.push((id.clone(), w.link.clone(), cause));
        }
        for (worker, link, cause) in &lost {
            table.lose(worker, link.as_ref(), cause, shared.config.max_retries);
        }
        let sends = table.assign_ready(now);
        shared.release(table);
        for (id, epoch, worker, spec) in sends {
            let Some(link) = shared.link(&worker) else {
                continue;
            };
            let frame = wire::encode_request(&Request::SubmitWait(spec));
            if let Err(e) = link.send(id, epoch, &frame) {
                shared.lose(&worker, Some(&link), &format!("link write failed: {e}"));
            }
        }
        let mut table = shared.lock();
        if !table.kicked {
            // Nothing arrived while the lock was released for the writes.
            let wait = table.next_wake(tick);
            table = shared
                .dispatch
                .wait_timeout(table, wait)
                .expect("coordinator lock poisoned")
                .0;
        }
        table.kicked = false;
    }
}

/// The coordinator's job table: the fleet table, behind the same responder
/// as the standalone scheduler, with the same fetched-once `RESULT`.
impl Service for Shared {
    fn requests_metric(&self) -> &'static str {
        "fleet_requests_total"
    }

    fn submit(&self, spec: JobSpec) -> kecss::error::Result<JobId> {
        let mut table = self.lock();
        if table.closed {
            return Err(kecss::Error::ServiceShuttingDown);
        }
        let admitted = table.admit(spec, self.config.queue_depth);
        self.release(table);
        admitted.map_err(|depth| kecss::Error::JobQueueFull { depth })
    }

    fn status(&self, id: JobId) -> Option<JobState> {
        self.lock().jobs.get(&id).map(|job| job.state)
    }

    fn fetch(&self, id: JobId) -> Option<Outcome> {
        Some(self.lock().jobs.get_mut(&id)?.outcome.as_mut()?.fetch())
    }

    fn cancel(&self, id: JobId) -> Result<(), Option<JobState>> {
        let mut table = self.lock();
        match table.jobs.get(&id).map(|job| job.state) {
            Some(JobState::Queued) => {
                table.finish(id, JobState::Cancelled, Outcome::Cancelled);
                self.release(table);
                Ok(())
            }
            state => Err(state),
        }
    }

    fn close(&self) {
        self.lock().closed = true;
    }

    fn idle(&self) -> bool {
        self.lock().open.is_empty()
    }

    fn set_completion_hook(&self, hook: CompletionHook) {
        let _ = self.completion_hook.set(hook);
    }

    fn heartbeat(&self, worker: String, addr: String) -> Response {
        // An address with no port to dial would register a worker that is
        // listed live but can never take a job.
        if !dialable(&addr) {
            return Response::Err(format!(
                "worker {worker} advertises '{addr}', which has no port to dial"
            ));
        }
        let mut table = self.lock();
        let now = Instant::now();
        // A new worker enters dead, so its first beat registers it.
        let entry = table
            .workers
            .entry(worker.clone())
            .or_insert_with(|| WorkerEntry {
                addr: String::new(),
                last_beat: now,
                live: false,
                dispatched: 0,
                inflight: 0,
                link: None,
            });
        let registered = !entry.live;
        if kecss_obs::enabled() && !registered {
            let gap = now.duration_since(entry.last_beat).as_nanos();
            metrics()
                .heartbeat_gap_ns
                .record(u64::try_from(gap).unwrap_or(u64::MAX));
        }
        (entry.addr, entry.last_beat, entry.live) = (addr, now, true);
        table.kicked |= registered;
        table.update_live_gauge();
        self.release(table);
        let word = if registered { "REGISTERED" } else { "ALIVE" };
        Response::Ok(format!("{worker} {word}"))
    }

    fn fleet(&self) -> Response {
        Response::Fleet(Arc::new(render_fleet(&self.lock()).into_bytes()))
    }
}

/// Whether `addr` is `HOST:PORT` with a non-empty host and a port other
/// than 0: an address a dispatch link can dial.
fn dialable(addr: &str) -> bool {
    addr.rsplit_once(':')
        .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok_and(|p| p != 0))
}

/// Renders the machine-parseable `FLEET` status text (grammar in
/// DESIGN.md §13).
fn render_fleet(table: &FleetTable) -> String {
    let now = Instant::now();
    let mut text = String::from("# kecss fleet status v1\n");
    let live = table.workers.values().filter(|w| w.live).count();
    text.push_str(&format!("workers {} live {live}\n", table.workers.len()));
    for (id, w) in &table.workers {
        text.push_str(&format!(
            "worker {id} {} {} inflight {} dispatched {} age_ms {}\n",
            w.addr,
            if w.live { "live" } else { "dead" },
            w.inflight,
            w.dispatched,
            now.duration_since(w.last_beat).as_millis(),
        ));
    }
    let s = table.summary;
    text.push_str(&format!(
        "jobs submitted {} completed {} failed {} cancelled {} rejected {} retries {}\n",
        s.submitted, s.completed, s.failed, s.cancelled, s.rejected, s.retries
    ));
    let open = || table.open.iter().map(|id| (id, &table.jobs[id]));
    let count = |state: JobState| open().filter(|(_, j)| j.state == state).count();
    text.push_str(&format!(
        "inflight {} queued {} assigned {} running {}\n",
        table.open.len(),
        count(JobState::Queued),
        count(JobState::Assigned),
        count(JobState::Running),
    ));
    for (id, job) in open() {
        text.push_str(&format!(
            "job {id} {} worker {} retries {}\n",
            job.state.wire_name(),
            job.worker.as_deref().unwrap_or("-"),
            job.retries,
        ));
    }
    text
}

/// Formats a one-line human summary (the CLI and the binary print it on
/// exit, mirroring [`crate::server::summary_line`]).
pub fn fleet_summary_line(summary: &FleetSummary) -> String {
    format!(
        "fleet served {} jobs: {} completed, {} failed, {} cancelled, {} rejected busy, {} retries",
        summary.submitted,
        summary.completed,
        summary.failed,
        summary.cancelled,
        summary.rejected,
        summary.retries
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_spec() -> JobSpec {
        JobSpec {
            instance: crate::instance::InstanceSpec::parse("ring:20").unwrap(),
            k: 2,
            algorithm: crate::job::Algorithm::TwoEcss,
            enumerator: kecss::cuts::EnumeratorPolicy::Auto,
            seed: 1,
        }
    }

    fn worker(addr: &str, live: bool) -> WorkerEntry {
        WorkerEntry {
            addr: addr.into(),
            last_beat: Instant::now(),
            live,
            dispatched: 0,
            inflight: 0,
            link: None,
        }
    }

    /// The open set is exactly the ids whose state is not terminal, so its
    /// length is the count the depth bound applies to.
    fn assert_open_set(table: &FleetTable) {
        let open: BTreeSet<JobId> = table
            .jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(table.open, open);
    }

    #[test]
    fn splitmix64_is_a_fixed_function() {
        // The assignment hash must never drift: these values pin it.
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(2), 0x9758_35DE_1C97_56CE);
        assert_eq!(splitmix64(3), 0x1D0B_14E4_DB01_8FED);
    }

    #[test]
    fn terminal_errs_name_the_worker_job_and_request_errs_do_not() {
        assert_eq!(terminal_err_job("job 7 failed: no such file"), Some(7));
        let cancelled = kecss::Error::JobCancelled { job: 9 }.to_string();
        assert_eq!(terminal_err_job(&cancelled), Some(9));
        assert_eq!(terminal_err_job("connection exceeded 8 requests"), None);
        assert_eq!(terminal_err_job("service is shutting down"), None);
        assert_eq!(terminal_err_job("job x failed: y"), None);
    }

    #[test]
    fn fleet_text_renders_workers_jobs_and_counters() {
        let mut table = FleetTable {
            next_id: 2,
            summary: FleetSummary {
                submitted: 2,
                completed: 1,
                retries: 1,
                ..FleetSummary::default()
            },
            ..FleetTable::default()
        };
        table.workers.insert(
            "w1".into(),
            WorkerEntry {
                dispatched: 2,
                inflight: 1,
                ..worker("127.0.0.1:9000", true)
            },
        );
        table.workers.insert(
            "w2".into(),
            WorkerEntry {
                dispatched: 1,
                ..worker("127.0.0.1:9001", false)
            },
        );
        let now = Instant::now();
        table.jobs.insert(
            2,
            FleetJob {
                spec: ring_spec(),
                state: JobState::Running,
                worker: Some("w1".into()),
                epoch: 2,
                retries: 1,
                not_before: now,
                submitted_at: now,
                outcome: None,
            },
        );
        table.open.insert(2);
        let text = render_fleet(&table);
        assert!(text.starts_with("# kecss fleet status v1\n"), "{text}");
        assert!(text.contains("workers 2 live 1"), "{text}");
        assert!(
            text.contains("worker w1 127.0.0.1:9000 live inflight 1 dispatched 2"),
            "{text}"
        );
        assert!(text.contains("worker w2 127.0.0.1:9001 dead"), "{text}");
        assert!(
            text.contains("jobs submitted 2 completed 1 failed 0 cancelled 0 rejected 0 retries 1"),
            "{text}"
        );
        assert!(
            text.contains("inflight 1 queued 0 assigned 0 running 1"),
            "{text}"
        );
        assert!(text.contains("job 2 RUNNING worker w1 retries 1"), "{text}");
    }

    #[test]
    fn requeue_fails_jobs_past_their_retry_budget() {
        let mut table = FleetTable {
            next_id: 1,
            ..FleetTable::default()
        };
        table
            .workers
            .insert("w1".into(), worker("127.0.0.1:9000", true));
        // Admit three jobs into a depth-3 table; a fourth is refused.
        let ids: Vec<JobId> = (0..3)
            .map(|_| table.admit(ring_spec(), 3).unwrap())
            .collect();
        let [a, b, c] = ids[..] else { unreachable!() };
        assert_open_set(&table);
        assert_eq!(table.admit(ring_spec(), 3), Err(3));
        assert_eq!(table.summary.rejected, 1);
        // Cancel one while it is queued.
        table.finish(c, JobState::Cancelled, Outcome::Cancelled);
        assert_open_set(&table);
        // Assign the other two.
        let sends = table.assign_ready(Instant::now());
        assert_eq!(sends.iter().map(|s| s.0).collect::<Vec<_>>(), [a, b]);
        let (a_epoch, b_epoch) = (sends[0].1, sends[1].1);
        assert_open_set(&table);
        assert_eq!(table.workers["w1"].inflight, 2);
        // BUSY backs b off, uncharged, and a stale answer for it is dropped.
        table.complete(b, b_epoch, Answer::Busy);
        table.complete(b, b_epoch, Answer::Acked);
        assert_eq!(table.jobs[&b].state, JobState::Queued);
        assert_eq!((table.jobs[&b].retries, table.summary.retries), (0, 0));
        assert!(table.assign_ready(Instant::now()).is_empty(), "backed off");
        assert_open_set(&table);
        // The ack is a's RUNNING hop.
        table.complete(a, a_epoch, Answer::Acked);
        assert_eq!(table.jobs[&a].state, JobState::Running);
        // Budget 1: the first loss re-queues a...
        table.lose("w1", None, "test loss", 1);
        assert!(!table.workers["w1"].live);
        assert_eq!(table.jobs[&a].state, JobState::Queued);
        assert_eq!(table.jobs[&a].retries, 1);
        assert_eq!(table.summary.retries, 1);
        assert_open_set(&table);
        // ...the second, after a re-registration, exhausts the budget and
        // fails it; b, on its first loss, is re-queued.
        table.workers.get_mut("w1").unwrap().live = true;
        assert_eq!(table.assign_ready(Instant::now() + BUSY_BACKOFF).len(), 2);
        table.lose("w1", None, "test loss again", 1);
        assert_eq!(table.jobs[&a].state, JobState::Failed);
        assert!(matches!(table.jobs[&a].outcome, Some(Outcome::Failed(_))));
        assert_eq!(table.jobs[&b].state, JobState::Queued);
        assert_eq!((table.summary.failed, table.summary.retries), (1, 3));
        assert_open_set(&table);
        // Done: b runs to a payload and the table holds no open job.
        table.workers.get_mut("w1").unwrap().live = true;
        let sends = table.assign_ready(Instant::now());
        table.complete(b, sends[0].1, Answer::Acked);
        let payload = Outcome::Done(Arc::new(b"payload".to_vec()));
        table.complete(b, sends[0].1, Answer::Finished(JobState::Done, payload));
        assert_eq!(table.jobs[&b].state, JobState::Done);
        assert_open_set(&table);
        assert!(table.open.is_empty());
        assert_eq!(table.workers["w1"].inflight, 0);
        assert_eq!(table.pending_terminal, [c, a, b]);
    }

    #[test]
    fn a_stale_link_cannot_tear_down_the_current_one() {
        let (stale, current) = (Arc::new(Link::default()), Arc::new(Link::default()));
        let mut table = FleetTable::default();
        table.workers.insert(
            "w1".into(),
            WorkerEntry {
                link: Some(Arc::clone(&current)),
                ..worker("127.0.0.1:9000", true)
            },
        );
        table.lose("w1", Some(&stale), "stale reader", 5);
        table.lose("w1", None, "a worker with no link", 5);
        assert!(table.workers["w1"].live);
        table.lose("w1", Some(&current), "current reader", 5);
        assert!(!table.workers["w1"].live);
        assert!(table.workers["w1"].link.is_none());
    }
}
