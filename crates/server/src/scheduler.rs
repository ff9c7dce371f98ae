//! The job scheduler: a bounded job table and the worker threads that run
//! its jobs.
//!
//! Backpressure is enforced at submission: at most `queue_depth` jobs may be
//! *in flight* (queued or running) at once; submissions beyond that are
//! rejected with [`kecss::Error::JobQueueFull`] — the server turns this into
//! a `BUSY` response — **without touching the jobs already in flight**.
//!
//! Each admitted job is queued once, as its id in the table's FIFO queue.
//! The scheduler's own workers pop the oldest id under the table lock, skip
//! ids cancelled while queued, and run the job outside the lock.
//!
//! Determinism: the scheduler stores whatever bytes [`crate::job::run`]
//! produced. Since that function is pure in the job spec, the scheduler's
//! concurrency (worker count, dispatch order, interleaving) cannot influence
//! result payloads — only *when* they become available. See DESIGN.md §9.

use crate::job::{self, JobSpec};
use crate::protocol::Response;
use kecss_obs::{Counter, Gauge, Histogram};
use kecss_runtime::Executor;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Cached handles into the global registry, resolved once: the submit path
/// is a hot path (~50 µs per job end to end), so per-call name lookups are
/// not acceptable there.
struct Metrics {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    inflight: Arc<Gauge>,
    wait_ns: Arc<Histogram>,
    run_ns: Arc<Histogram>,
    submit_to_done_ns: Arc<Histogram>,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        submitted: kecss_obs::counter("server_jobs_submitted_total"),
        rejected: kecss_obs::counter("server_jobs_rejected_total"),
        completed: kecss_obs::counter_with("server_jobs_total", &[("state", "completed")]),
        failed: kecss_obs::counter_with("server_jobs_total", &[("state", "failed")]),
        cancelled: kecss_obs::counter_with("server_jobs_total", &[("state", "cancelled")]),
        inflight: kecss_obs::gauge("server_inflight_jobs"),
        wait_ns: kecss_obs::histogram("server_job_wait_ns"),
        run_ns: kecss_obs::histogram("server_job_run_ns"),
        submit_to_done_ns: kecss_obs::histogram("server_submit_to_done_ns"),
    })
}

/// `Instant::now()` only when recording is on: keeps the disabled/no-op
/// configuration free of clock reads on the job hot path.
fn now_if_recording() -> Option<Instant> {
    kecss_obs::enabled().then(Instant::now)
}

fn elapsed_ns(from: Option<Instant>, to: Option<Instant>) -> Option<u64> {
    let (from, to) = (from?, to?);
    u64::try_from(to.saturating_duration_since(from).as_nanos()).ok()
}

/// Submission and claim timestamps of an in-flight job (observability only —
/// never read by the job itself, so payload bytes cannot depend on them).
struct JobTimes {
    submitted: Option<Instant>,
    started: Option<Instant>,
}

/// A job's service-assigned identifier (dense, starting at 1).
pub type JobId = u64;

/// The lifecycle state of a job, as reported by `STATUS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished with a result payload.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobStatus {
    /// The protocol's upper-case state word.
    pub fn wire_name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "QUEUED",
            JobStatus::Running => "RUNNING",
            JobStatus::Done => "DONE",
            JobStatus::Failed => "FAILED",
            JobStatus::Cancelled => "CANCELLED",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// The coordinator-side lifecycle of a fleet job (DESIGN.md §13).
///
/// This extends [`JobStatus`] with `Assigned` — the window between the
/// coordinator picking a worker and that worker acknowledging the dispatch —
/// because the fleet has a failure mode the standalone scheduler does not:
/// the chosen worker can die before (or while) running the job. The two
/// "loss" transitions back to `Queued` are what retry-on-worker-loss uses;
/// they are legal **only** from the non-terminal assigned/running states, so
/// a delivered result can never be un-delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FleetState {
    /// Accepted by the coordinator, not yet assigned to a worker.
    Queued,
    /// A live worker was chosen; the dispatch is in flight.
    Assigned,
    /// The worker acknowledged the job and is solving it.
    Running,
    /// A result payload arrived from a worker.
    Done,
    /// The job failed (solver error, or the retry budget was exhausted).
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl FleetState {
    /// Every state, for exhaustive transition-table tests.
    pub const ALL: [FleetState; 6] = [
        FleetState::Queued,
        FleetState::Assigned,
        FleetState::Running,
        FleetState::Done,
        FleetState::Failed,
        FleetState::Cancelled,
    ];

    /// The protocol's upper-case state word (`STATUS`/`WAIT` replies and the
    /// `FLEET` status text).
    pub fn wire_name(&self) -> &'static str {
        match self {
            FleetState::Queued => "QUEUED",
            FleetState::Assigned => "ASSIGNED",
            FleetState::Running => "RUNNING",
            FleetState::Done => "DONE",
            FleetState::Failed => "FAILED",
            FleetState::Cancelled => "CANCELLED",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            FleetState::Done | FleetState::Failed | FleetState::Cancelled
        )
    }

    /// The transition table. Exactly these moves are legal:
    ///
    /// ```text
    /// Queued   -> Assigned          (dispatcher picked a live worker)
    /// Queued   -> Cancelled         (client CANCEL while queued)
    /// Assigned -> Running           (worker acknowledged the dispatch)
    /// Assigned -> Queued            (worker lost or BUSY before it started)
    /// Assigned -> Failed            (worker rejected the spec, or retries spent)
    /// Running  -> Done              (payload delivered)
    /// Running  -> Failed            (solver error, or retries spent)
    /// Running  -> Queued            (worker lost mid-run; re-dispatch)
    /// ```
    ///
    /// Everything else — including self-loops and any move out of a terminal
    /// state — is illegal; the coordinator panics rather than corrupt the
    /// table.
    pub fn can_transition(self, to: FleetState) -> bool {
        use FleetState::*;
        matches!(
            (self, to),
            (Queued, Assigned)
                | (Queued, Cancelled)
                | (Assigned, Running)
                | (Assigned, Queued)
                | (Assigned, Failed)
                | (Running, Done)
                | (Running, Failed)
                | (Running, Queued)
        )
    }
}

/// A job's terminal outcome, as fetched by `RESULT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The result payload (shared while it lives in the table; evicted by
    /// [`Scheduler::take_result`] once fetched).
    Done(Arc<Vec<u8>>),
    /// The failure message.
    Failed(String),
    /// The job was cancelled before it ran.
    Cancelled,
    /// The job completed, but its payload was already fetched and evicted
    /// from the table ([`Scheduler::take_result`]); the server answers
    /// `GONE`. Bounds a long-lived server's memory: results live in the
    /// table only until their one fetch.
    Gone,
}

impl Outcome {
    /// The fetched-once read both roles answer `RESULT` with: a payload is
    /// handed over once and leaves [`Outcome::Gone`] in its place; `Failed`
    /// and `Cancelled` are small and kept for repeat diagnosis.
    pub fn fetch(&mut self) -> Outcome {
        match self {
            Outcome::Done(_) => std::mem::replace(self, Outcome::Gone),
            other => other.clone(),
        }
    }

    /// The reply to a `RESULT` for job `id` that fetched this outcome.
    pub fn into_response(self, id: JobId) -> Response {
        match self {
            Outcome::Done(payload) => Response::Result { id, payload },
            Outcome::Gone => Response::Gone(id),
            Outcome::Failed(message) => Response::Err(format!("job {id} failed: {message}")),
            Outcome::Cancelled => Response::Err(kecss::Error::JobCancelled { job: id }.to_string()),
        }
    }
}

/// One slot of the job table.
enum Slot {
    Queued(Box<JobFn>),
    Running,
    Finished(Outcome),
}

/// The work a queued job will perform when a worker claims it.
type JobFn = dyn FnOnce() -> Result<Vec<u8>, String> + Send;

/// Aggregate counters, returned by [`Scheduler::summary`] and printed by the
/// server on exit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that finished with a payload.
    pub completed: u64,
    /// Jobs that finished with an error.
    pub failed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Submissions rejected with `BUSY`.
    pub rejected: u64,
}

struct Table {
    next_id: JobId,
    slots: HashMap<JobId, Slot>,
    /// Queued ids, oldest first. An id cancelled while queued stays here
    /// until a worker pops and skips it.
    queue: VecDeque<JobId>,
    /// Observability timestamps, removed when a job goes terminal.
    times: HashMap<JobId, JobTimes>,
    /// Jobs queued or running; the quantity the depth bound applies to.
    inflight: usize,
    /// Set by [`Scheduler::close`] and on drop: no further submissions are
    /// admitted. Checked under the same lock that admits jobs, so a drain
    /// that starts after `close` can never miss a concurrently-admitted job.
    /// A worker exits once the table is closed and the queue is empty.
    closed: bool,
    summary: ServeSummary,
}

/// Instrumentation invoked on a worker right after it claims a job
/// (status `Running`) and before the job's work runs. Production servers pass
/// `None`; the integration tests use it to hold a worker deterministically so
/// backpressure and cancellation can be exercised without timing races.
pub type StartHook = Arc<dyn Fn(JobId) + Send + Sync>;

/// Callback invoked (outside every scheduler lock) each time a job reaches a
/// terminal state. The readiness loop installs one to get push-on-complete
/// `RESULT WAIT` delivery: the hook enqueues the id and wakes the poller, so
/// no thread ever polls the job table.
pub type CompletionHook = Arc<dyn Fn(JobId) + Send + Sync>;

struct State {
    table: Mutex<Table>,
    /// Signalled whenever a job reaches a terminal state.
    changed: Condvar,
    /// Signalled when a job is queued, and on drop.
    queued: Condvar,
    queue_depth: usize,
    start_hook: Option<StartHook>,
    /// See [`CompletionHook`]. Behind its own lock (not the table lock): the
    /// hook is installed once at serve start and read on each completion.
    completion_hook: Mutex<Option<CompletionHook>>,
}

impl State {
    /// Fires the completion hook for `id`. Call with **no** scheduler lock
    /// held: the hook wakes the event loop, which may immediately call back
    /// into the table.
    fn notify_terminal(&self, id: JobId) {
        let hook = self
            .completion_hook
            .lock()
            .expect("completion hook lock poisoned")
            .clone();
        if let Some(hook) = hook {
            hook(id);
        }
    }
}

/// The scheduler: job table + its workers. Cheap to share via `Arc`.
/// Dropping it runs every queued job and joins the workers.
pub struct Scheduler {
    state: Arc<State>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Creates a scheduler with `threads` workers and an in-flight bound of
    /// `queue_depth` jobs (both at least 1).
    pub fn new(threads: usize, queue_depth: usize) -> Self {
        Scheduler::with_start_hook(threads, queue_depth, None)
    }

    /// Same as [`Scheduler::new`] with a [`StartHook`] attached.
    pub fn with_start_hook(
        threads: usize,
        queue_depth: usize,
        start_hook: Option<StartHook>,
    ) -> Self {
        let state = Arc::new(State {
            table: Mutex::new(Table {
                next_id: 1,
                slots: HashMap::new(),
                queue: VecDeque::new(),
                times: HashMap::new(),
                inflight: 0,
                closed: false,
                summary: ServeSummary::default(),
            }),
            changed: Condvar::new(),
            queued: Condvar::new(),
            queue_depth: queue_depth.max(1),
            start_hook,
            completion_hook: Mutex::new(None),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || work(&state))
            })
            .collect();
        Scheduler { state, workers }
    }

    /// Jobs currently queued or running (the quantity the depth bound
    /// applies to). The readiness loop's shutdown drain spins on this
    /// reaching zero — woken by the completion hook, not by polling.
    pub fn inflight(&self) -> usize {
        self.state
            .table
            .lock()
            .expect("scheduler lock poisoned")
            .inflight
    }

    /// Installs the [`CompletionHook`], replacing any previous one.
    pub fn set_completion_hook(&self, hook: CompletionHook) {
        *self
            .state
            .completion_hook
            .lock()
            .expect("completion hook lock poisoned") = Some(hook);
    }

    /// Submits a solver job. Every job runs [`job::run`] with a sequential
    /// within-job executor: the service parallelizes *across* jobs (one
    /// worker each), which keeps worker counts predictable and results
    /// byte-deterministic either way.
    ///
    /// # Errors
    ///
    /// [`kecss::Error::JobQueueFull`] when `queue_depth` jobs are already in
    /// flight.
    pub fn submit(&self, spec: JobSpec) -> kecss::error::Result<JobId> {
        self.submit_with(Box::new(move || job::run(&spec, &Executor::Sequential)))
    }

    /// Submits an arbitrary job closure (the seam the tests and benches use
    /// to inject blocking or instant jobs).
    ///
    /// # Errors
    ///
    /// [`kecss::Error::JobQueueFull`] when `queue_depth` jobs are already in
    /// flight.
    pub fn submit_with(&self, work: Box<JobFn>) -> kecss::error::Result<JobId> {
        let mut table = self.state.table.lock().expect("scheduler lock poisoned");
        if table.closed {
            return Err(kecss::Error::ServiceShuttingDown);
        }
        if table.inflight >= self.state.queue_depth {
            table.summary.rejected += 1;
            metrics().rejected.inc();
            return Err(kecss::Error::JobQueueFull {
                depth: self.state.queue_depth,
            });
        }
        let id = table.next_id;
        table.next_id += 1;
        table.inflight += 1;
        table.summary.submitted += 1;
        table.slots.insert(id, Slot::Queued(work));
        table.queue.push_back(id);
        table.times.insert(
            id,
            JobTimes {
                submitted: now_if_recording(),
                started: None,
            },
        );
        metrics().submitted.inc();
        metrics().inflight.set(table.inflight as i64);
        drop(table);
        self.state.queued.notify_one();
        Ok(id)
    }

    /// The job's current lifecycle state, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let table = self.state.table.lock().expect("scheduler lock poisoned");
        table.slots.get(&id).map(|slot| match slot {
            Slot::Queued(_) => JobStatus::Queued,
            Slot::Running => JobStatus::Running,
            // An evicted payload is still a completed job.
            Slot::Finished(Outcome::Done(_) | Outcome::Gone) => JobStatus::Done,
            Slot::Finished(Outcome::Failed(_)) => JobStatus::Failed,
            Slot::Finished(Outcome::Cancelled) => JobStatus::Cancelled,
        })
    }

    /// The job's terminal outcome, fetched once ([`Outcome::fetch`]): a
    /// payload is **dropped from the job table**, so the next call (and
    /// every later one) returns [`Outcome::Gone`]. This is what the server's
    /// `RESULT` handler uses, so a long-lived server retains each payload
    /// only until its first fetch. `None` while the job is in flight, or for
    /// an unknown id — disambiguate with [`Scheduler::status`].
    pub fn take_result(&self, id: JobId) -> Option<Outcome> {
        let mut table = self.state.table.lock().expect("scheduler lock poisoned");
        match table.slots.get_mut(&id) {
            Some(Slot::Finished(outcome)) => Some(outcome.fetch()),
            _ => None,
        }
    }

    /// Blocks until the job reaches a terminal state and returns its outcome
    /// (`None` for an unknown id).
    pub fn wait(&self, id: JobId) -> Option<Outcome> {
        let mut table = self.state.table.lock().expect("scheduler lock poisoned");
        loop {
            match table.slots.get(&id) {
                None => return None,
                Some(Slot::Finished(outcome)) => return Some(outcome.clone()),
                Some(_) => {
                    table = self
                        .state
                        .changed
                        .wait(table)
                        .expect("scheduler lock poisoned");
                }
            }
        }
    }

    /// Cancels a queued job. Running jobs are left to complete (results are
    /// never torn); terminal jobs are immutable.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the state that prevented cancellation.
    pub fn cancel(&self, id: JobId) -> Result<(), String> {
        let mut table = self.state.table.lock().expect("scheduler lock poisoned");
        match table.slots.get_mut(&id) {
            None => Err(format!("unknown job {id}")),
            Some(slot @ Slot::Queued(_)) => {
                *slot = Slot::Finished(Outcome::Cancelled);
                table.inflight -= 1;
                table.summary.cancelled += 1;
                table.times.remove(&id);
                metrics().cancelled.inc();
                metrics().inflight.set(table.inflight as i64);
                drop(table);
                self.state.changed.notify_all();
                self.state.notify_terminal(id);
                Ok(())
            }
            Some(Slot::Running) => Err(format!("job {id} is already running")),
            Some(Slot::Finished(_)) => Err(format!("job {id} already finished")),
        }
    }

    /// Refuses all further submissions (they fail with
    /// [`kecss::Error::ServiceShuttingDown`]). Taken under the admission
    /// lock, so after `close` returns, the set of admitted jobs is final and
    /// a subsequent [`Scheduler::drain`] waits for exactly that set — no
    /// submission can slip between the shutdown decision and the drain.
    pub fn close(&self) {
        self.state
            .table
            .lock()
            .expect("scheduler lock poisoned")
            .closed = true;
    }

    /// Blocks until no job is queued or running.
    pub fn drain(&self) {
        let mut table = self.state.table.lock().expect("scheduler lock poisoned");
        while table.inflight > 0 {
            table = self
                .state
                .changed
                .wait(table)
                .expect("scheduler lock poisoned");
        }
    }

    /// A snapshot of the aggregate counters.
    pub fn summary(&self) -> ServeSummary {
        self.state
            .table
            .lock()
            .expect("scheduler lock poisoned")
            .summary
    }

    /// Drains in-flight jobs, stops the workers and returns the final
    /// counters.
    pub fn shutdown(self) -> ServeSummary {
        self.drain();
        self.summary()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.close();
        self.state.queued.notify_all();
        for worker in self.workers.drain(..) {
            // Jobs run under `catch_unwind`, so only a panicking hook ends a
            // worker early; the panic hook has already printed it, and a
            // second panic here could abort an unwinding caller.
            let _ = worker.join();
        }
    }
}

/// A worker's loop: pop the oldest queued id and claim its slot (skipping
/// ids cancelled while queued), run the job outside the lock, repeat; exit
/// once the table is closed and the queue is empty.
fn work(state: &State) {
    let mut table = state.table.lock().expect("scheduler lock poisoned");
    loop {
        let Some(id) = table.queue.pop_front() else {
            if table.closed {
                return;
            }
            table = state.queued.wait(table).expect("scheduler lock poisoned");
            continue;
        };
        let Some(slot @ Slot::Queued(_)) = table.slots.get_mut(&id) else {
            continue;
        };
        let Slot::Queued(job) = std::mem::replace(slot, Slot::Running) else {
            unreachable!("matched Slot::Queued above")
        };
        let started = now_if_recording();
        if let Some(times) = table.times.get_mut(&id) {
            times.started = started;
            if let Some(wait) = elapsed_ns(times.submitted, started) {
                metrics().wait_ns.record(wait);
            }
        }
        drop(table);
        execute(state, id, job);
        table = state.table.lock().expect("scheduler lock poisoned");
    }
}

/// Runs a claimed job and stores its outcome. Called with no lock held.
fn execute(state: &State, id: JobId, work: Box<JobFn>) {
    if let Some(hook) = &state.start_hook {
        hook(id);
    }
    // A panicking job must not take the worker (and with it the scheduler's
    // in-flight accounting) down: catch the unwind and record it as a
    // failure. The job closure is moved in whole, so no shared state can be
    // observed in a torn intermediate state.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
    let outcome = match result {
        Ok(Ok(payload)) => Outcome::Done(Arc::new(payload)),
        Ok(Err(message)) => Outcome::Failed(message),
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Outcome::Failed(format!("job panicked: {message}"))
        }
    };
    let finished = now_if_recording();
    let mut table = state.table.lock().expect("scheduler lock poisoned");
    match &outcome {
        Outcome::Done(_) => {
            table.summary.completed += 1;
            metrics().completed.inc();
        }
        Outcome::Failed(_) => {
            table.summary.failed += 1;
            metrics().failed.inc();
        }
        // A job never *finishes* as Cancelled/Gone here: Cancelled is set by
        // `cancel` while queued, Gone only by `take_result` after the fact.
        Outcome::Cancelled | Outcome::Gone => {}
    }
    if let Some(times) = table.times.remove(&id) {
        if let Some(run) = elapsed_ns(times.started, finished) {
            metrics().run_ns.record(run);
        }
        if let Some(total) = elapsed_ns(times.submitted, finished) {
            metrics().submit_to_done_ns.record(total);
        }
    }
    table.slots.insert(id, Slot::Finished(outcome));
    table.inflight -= 1;
    metrics().inflight.set(table.inflight as i64);
    drop(table);
    state.changed.notify_all();
    state.notify_terminal(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// A job that blocks until the returned sender is dropped or signalled.
    fn blocking_job(scheduler: &Scheduler) -> (JobId, mpsc::Sender<()>) {
        let (tx, rx) = mpsc::channel::<()>();
        let id = scheduler
            .submit_with(Box::new(move || {
                // Returns on signal or on sender drop; either unblocks.
                let _ = rx.recv();
                Ok(b"blocked-job".to_vec())
            }))
            .unwrap();
        (id, tx)
    }

    /// Spin-waits until the job has been claimed by a worker (submission and
    /// claiming race, so tests that assert on `Running` must wait for it).
    fn wait_until_running(scheduler: &Scheduler, id: JobId) {
        while scheduler.status(id) != Some(JobStatus::Running) {
            assert!(
                !scheduler.status(id).unwrap().is_terminal(),
                "job {id} finished before it could be observed running"
            );
            std::thread::yield_now();
        }
    }

    /// The fleet lifecycle's full transition table, checked pair by pair:
    /// exactly the eight documented moves are legal, everything else —
    /// self-loops, skips like Queued→Running or Queued→Done, and any move
    /// out of a terminal state — is rejected.
    #[test]
    fn fleet_state_transition_table_is_exactly_the_documented_one() {
        use FleetState::*;
        let legal = [
            (Queued, Assigned),
            (Queued, Cancelled),
            (Assigned, Running),
            (Assigned, Queued),
            (Assigned, Failed),
            (Running, Done),
            (Running, Failed),
            (Running, Queued),
        ];
        for from in FleetState::ALL {
            for to in FleetState::ALL {
                let expected = legal.contains(&(from, to));
                assert_eq!(
                    from.can_transition(to),
                    expected,
                    "{from:?} -> {to:?} should be {}",
                    if expected { "legal" } else { "illegal" }
                );
            }
        }
    }

    #[test]
    fn fleet_terminal_states_admit_no_transitions() {
        for from in FleetState::ALL.into_iter().filter(FleetState::is_terminal) {
            for to in FleetState::ALL {
                assert!(
                    !from.can_transition(to),
                    "terminal {from:?} must not move to {to:?}"
                );
            }
        }
        // And the terminal set is exactly {Done, Failed, Cancelled}.
        let terminal: Vec<_> = FleetState::ALL
            .into_iter()
            .filter(FleetState::is_terminal)
            .collect();
        assert_eq!(
            terminal,
            [FleetState::Done, FleetState::Failed, FleetState::Cancelled]
        );
    }

    #[test]
    fn fleet_state_wire_names_extend_job_status_wire_names() {
        // Every standalone state keeps its wire word in the fleet; ASSIGNED
        // is the single fleet-only addition clients may newly observe.
        assert_eq!(
            FleetState::Queued.wire_name(),
            JobStatus::Queued.wire_name()
        );
        assert_eq!(
            FleetState::Running.wire_name(),
            JobStatus::Running.wire_name()
        );
        assert_eq!(FleetState::Done.wire_name(), JobStatus::Done.wire_name());
        assert_eq!(
            FleetState::Failed.wire_name(),
            JobStatus::Failed.wire_name()
        );
        assert_eq!(
            FleetState::Cancelled.wire_name(),
            JobStatus::Cancelled.wire_name()
        );
        assert_eq!(FleetState::Assigned.wire_name(), "ASSIGNED");
    }

    #[test]
    fn jobs_run_and_results_are_fetchable() {
        let scheduler = Scheduler::new(2, 8);
        let id = scheduler
            .submit_with(Box::new(|| Ok(b"payload".to_vec())))
            .unwrap();
        match scheduler.wait(id) {
            Some(Outcome::Done(bytes)) => assert_eq!(bytes.as_slice(), b"payload"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(scheduler.status(id), Some(JobStatus::Done));
        assert_eq!(scheduler.status(999), None);
        let summary = scheduler.shutdown();
        assert_eq!(summary.submitted, 1);
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn queue_overflow_rejects_without_touching_inflight_jobs() {
        let scheduler = Scheduler::new(1, 2);
        let (a, tx_a) = blocking_job(&scheduler);
        let (b, tx_b) = blocking_job(&scheduler);
        // Depth 2 is exhausted: the third submission must bounce.
        let err = scheduler
            .submit_with(Box::new(|| Ok(Vec::new())))
            .unwrap_err();
        assert_eq!(err, kecss::Error::JobQueueFull { depth: 2 });
        // The in-flight jobs are unaffected and still complete.
        drop(tx_a);
        drop(tx_b);
        assert!(matches!(scheduler.wait(a), Some(Outcome::Done(_))));
        assert!(matches!(scheduler.wait(b), Some(Outcome::Done(_))));
        let summary = scheduler.shutdown();
        assert_eq!(summary.submitted, 2);
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.completed, 2);
    }

    #[test]
    fn cancelling_a_queued_job_frees_its_slot() {
        let scheduler = Scheduler::new(1, 2);
        let (running, tx) = blocking_job(&scheduler);
        let (queued, _tx_queued) = blocking_job(&scheduler);
        // The single worker is blocked on `running`, so `queued` is still
        // queued and cancellable; `running` is not.
        wait_until_running(&scheduler, running);
        scheduler.cancel(queued).unwrap();
        assert_eq!(scheduler.status(queued), Some(JobStatus::Cancelled));
        assert_eq!(scheduler.wait(queued), Some(Outcome::Cancelled));
        assert!(scheduler.cancel(running).is_err());
        assert!(scheduler.cancel(42).is_err());
        // The freed slot accepts a new job immediately.
        let c = scheduler
            .submit_with(Box::new(|| Ok(b"after-cancel".to_vec())))
            .unwrap();
        drop(tx);
        assert!(matches!(scheduler.wait(c), Some(Outcome::Done(_))));
        assert!(scheduler.cancel(c).is_err(), "terminal jobs are immutable");
        let summary = scheduler.shutdown();
        assert_eq!(summary.cancelled, 1);
        assert_eq!(summary.completed, 2);
    }

    #[test]
    fn take_result_evicts_payloads_once_fetched() {
        let scheduler = Scheduler::new(1, 4);
        let id = scheduler
            .submit_with(Box::new(|| Ok(b"big payload".to_vec())))
            .unwrap();
        // Waiting peeks and never evicts.
        assert!(matches!(scheduler.wait(id), Some(Outcome::Done(_))));
        assert!(matches!(scheduler.wait(id), Some(Outcome::Done(_))));
        // The first take returns the payload and drops it from the table.
        match scheduler.take_result(id) {
            Some(Outcome::Done(bytes)) => assert_eq!(bytes.as_slice(), b"big payload"),
            other => panic!("unexpected {other:?}"),
        }
        // Every later fetch sees Gone; the job still reads as Done.
        assert_eq!(scheduler.take_result(id), Some(Outcome::Gone));
        assert_eq!(scheduler.wait(id), Some(Outcome::Gone));
        assert_eq!(scheduler.status(id), Some(JobStatus::Done));
        // Failures are kept for repeat diagnosis.
        let failed = scheduler
            .submit_with(Box::new(|| Err("boom".into())))
            .unwrap();
        scheduler.wait(failed);
        assert_eq!(
            scheduler.take_result(failed),
            Some(Outcome::Failed("boom".into()))
        );
        assert_eq!(
            scheduler.take_result(failed),
            Some(Outcome::Failed("boom".into()))
        );
        // Unknown ids read as None.
        assert_eq!(scheduler.take_result(999), None);
        scheduler.shutdown();
    }

    #[test]
    fn panicking_jobs_fail_without_wedging_the_scheduler() {
        let scheduler = Scheduler::new(1, 4);
        let id = scheduler.submit_with(Box::new(|| panic!("boom"))).unwrap();
        match scheduler.wait(id) {
            Some(Outcome::Failed(msg)) => {
                assert!(msg.contains("panicked") && msg.contains("boom"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The worker survived: later jobs run, and drain/shutdown return.
        let ok = scheduler
            .submit_with(Box::new(|| Ok(b"after-panic".to_vec())))
            .unwrap();
        assert!(matches!(scheduler.wait(ok), Some(Outcome::Done(_))));
        let summary = scheduler.shutdown();
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn closed_scheduler_refuses_submissions_but_drains_accepted_jobs() {
        let scheduler = Scheduler::new(1, 4);
        let (id, tx) = blocking_job(&scheduler);
        scheduler.close();
        assert_eq!(
            scheduler
                .submit_with(Box::new(|| Ok(Vec::new())))
                .unwrap_err(),
            kecss::Error::ServiceShuttingDown
        );
        drop(tx);
        assert!(matches!(scheduler.wait(id), Some(Outcome::Done(_))));
        let summary = scheduler.shutdown();
        assert_eq!(summary.submitted, 1);
        assert_eq!(summary.completed, 1);
    }

    #[test]
    fn failed_jobs_store_their_message() {
        let scheduler = Scheduler::new(1, 4);
        let id = scheduler
            .submit_with(Box::new(|| Err("no such instance".into())))
            .unwrap();
        assert_eq!(
            scheduler.wait(id),
            Some(Outcome::Failed("no such instance".into()))
        );
        assert_eq!(scheduler.status(id), Some(JobStatus::Failed));
        assert_eq!(scheduler.shutdown().failed, 1);
    }

    #[test]
    fn drain_waits_for_all_inflight_jobs() {
        let scheduler = Scheduler::new(4, 64);
        for _ in 0..32 {
            scheduler
                .submit_with(Box::new(|| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    Ok(Vec::new())
                }))
                .unwrap();
        }
        scheduler.drain();
        let summary = scheduler.summary();
        assert_eq!(summary.completed, 32);
        // After a drain, the full depth is available again.
        assert!(scheduler.submit_with(Box::new(|| Ok(Vec::new()))).is_ok());
        scheduler.shutdown();
    }

    #[test]
    fn completion_hook_fires_on_every_terminal_transition() {
        let scheduler = Scheduler::new(1, 4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        scheduler.set_completion_hook(Arc::new(move |id| {
            sink.lock().unwrap().push(id);
        }));
        let done = scheduler.submit_with(Box::new(|| Ok(Vec::new()))).unwrap();
        scheduler.wait(done);
        let failed = scheduler.submit_with(Box::new(|| Err("x".into()))).unwrap();
        scheduler.wait(failed);
        // Cancellation is a terminal transition too: hold the single worker
        // so a second job stays queued and cancellable.
        let (running, tx) = blocking_job(&scheduler);
        wait_until_running(&scheduler, running);
        let (queued, _tx_queued) = blocking_job(&scheduler);
        scheduler.cancel(queued).unwrap();
        drop(tx);
        scheduler.wait(running);
        scheduler.shutdown();
        let seen = seen.lock().unwrap().clone();
        for id in [done, failed, queued, running] {
            assert!(seen.contains(&id), "hook missed job {id}: {seen:?}");
        }
    }

    #[test]
    fn outcome_is_none_while_in_flight() {
        let scheduler = Scheduler::new(1, 2);
        let (id, tx) = blocking_job(&scheduler);
        assert_eq!(scheduler.take_result(id), None);
        assert!(!scheduler.status(id).unwrap().is_terminal());
        drop(tx);
        assert!(scheduler.wait(id).is_some());
        assert!(scheduler.status(id).unwrap().is_terminal());
        assert!(matches!(scheduler.take_result(id), Some(Outcome::Done(_))));
        scheduler.shutdown();
    }

    /// A job that records `tag` into `log` when it runs.
    fn logging_job(scheduler: &Scheduler, log: &Arc<Mutex<Vec<usize>>>, tag: usize) -> JobId {
        let log = Arc::clone(log);
        scheduler
            .submit_with(Box::new(move || {
                log.lock().unwrap().push(tag);
                Ok(Vec::new())
            }))
            .unwrap()
    }

    #[test]
    fn one_worker_runs_queued_jobs_in_submission_order() {
        let scheduler = Scheduler::new(1, 8);
        let (running, tx) = blocking_job(&scheduler);
        wait_until_running(&scheduler, running);
        let log = Arc::new(Mutex::new(Vec::new()));
        let queued: Vec<JobId> = (0..5)
            .map(|tag| logging_job(&scheduler, &log, tag))
            .collect();
        drop(tx);
        for id in queued {
            assert!(matches!(scheduler.wait(id), Some(Outcome::Done(_))));
        }
        assert_eq!(*log.lock().unwrap(), [0, 1, 2, 3, 4]);
        scheduler.shutdown();
    }

    #[test]
    fn dropping_a_scheduler_runs_its_queued_jobs_and_joins_its_workers() {
        /// Counts the worker threads that claimed a job, once they exit: a
        /// thread-local's destructor runs before its thread can be joined.
        struct OnExit(Arc<AtomicUsize>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
        }
        let exited = Arc::new(AtomicUsize::new(0));
        let on_start = Arc::clone(&exited);
        let scheduler = Scheduler::with_start_hook(
            1,
            8,
            Some(Arc::new(move |_| {
                ON_EXIT.with(|slot| {
                    slot.borrow_mut()
                        .get_or_insert_with(|| OnExit(Arc::clone(&on_start)));
                });
            })),
        );
        let (running, tx) = blocking_job(&scheduler);
        wait_until_running(&scheduler, running);
        let log = Arc::new(Mutex::new(Vec::new()));
        let queued: Vec<JobId> = (0..4)
            .map(|tag| logging_job(&scheduler, &log, tag))
            .collect();
        for &id in &queued {
            assert_eq!(scheduler.status(id), Some(JobStatus::Queued));
        }
        // Free the single worker only once the drop has closed the table,
        // so every job above is still queued when the drop begins.
        let state = Arc::clone(&scheduler.state);
        let release = std::thread::spawn(move || {
            while !state.table.lock().unwrap().closed {
                std::thread::yield_now();
            }
            drop(tx);
        });
        drop(scheduler);
        assert_eq!(*log.lock().unwrap(), [0, 1, 2, 3]);
        assert_eq!(
            exited.load(Ordering::SeqCst),
            1,
            "the worker was not joined"
        );
        release.join().unwrap();
    }
}
