//! The fleet state machine: every coordinator decision, with no clock,
//! socket, lock or thread of its own (DESIGN.md §13). The readiness loop
//! feeds it [`Event`]s with the time it read and carries out the
//! [`Action`]s it appends, so a test can drive it over virtual time with no
//! socket at all.

use crate::job::JobSpec;
use crate::protocol::Response;
use crate::scheduler::{JobId, JobState, Outcome, ServeSummary};
use kecss_obs::{Counter, Gauge, Histogram};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Cached handles to the fixed-name fleet series (per-worker ones are not).
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

fn record_ns(histogram: &Histogram, since: Instant, now: Instant) {
    let nanos = now.saturating_duration_since(since).as_nanos();
    histogram.record(u64::try_from(nanos).unwrap_or(u64::MAX));
}

fn worker_inflight_gauge(worker: &str) -> Arc<Gauge> {
    kecss_obs::gauge_with("fleet_worker_inflight", &[("worker", worker)])
}

/// How long a job a worker answered `BUSY` waits before its next dispatch.
pub(super) const BUSY_BACKOFF: Duration = Duration::from_millis(25);

/// A link's number, handed out with its dial: a reply or error on any link
/// but its worker's current one is stale and changes nothing.
pub(crate) type LinkId = u64;

/// What the loop saw.
pub(crate) enum Event {
    Submit(JobSpec),
    Cancel(JobId),
    /// `SHUTDOWN`: refuse every later submission.
    Close,
    /// `HEARTBEAT <worker> <addr>`.
    Heartbeat(String, String),
    /// A decoded reply frame on a link of a worker.
    Reply(String, LinkId, Response),
    /// A failed dial, read or write, or a torn frame, on a link of a worker.
    LinkError(String, LinkId, String),
    /// A kick or a deadline woke the machine: sweep lost workers and
    /// assign queued jobs.
    Wake,
}

/// What the loop must do for the machine, in order.
#[derive(Debug)]
pub(crate) enum Action {
    /// Dial a new link to a worker at an address.
    Dial(String, LinkId, String),
    /// Write a wait-flagged `SUBMIT` of the spec on the link.
    Send(LinkId, JobSpec),
    Close(LinkId),
    /// The job went terminal: fire the completion hook.
    Terminal(JobId),
}

/// What a step answers: nothing (or a cancel done), a submission's job id or
/// refusal (`BUSY`, shutting down), what kept a cancel back, or a
/// heartbeat's reply.
pub(crate) enum Verdict {
    Taken,
    Admission(kecss::error::Result<JobId>),
    NotCancelled(Option<JobState>),
    Beat(Response),
}

/// One fleet job's table entry.
pub(super) struct FleetJob {
    pub(super) spec: JobSpec,
    pub(super) state: JobState,
    /// The worker currently (or last) responsible, by id.
    pub(super) worker: Option<String>,
    /// Worker-loss re-queues so far (`BUSY` back-offs do not count).
    pub(super) retries: u32,
    /// Earliest next dispatch (the `BUSY` back-off).
    pub(super) not_before: Instant,
    pub(super) submitted_at: Instant,
    /// The terminal outcome, with the server's fetched-once semantics.
    pub(super) outcome: Option<Outcome>,
}

impl FleetJob {
    /// Moves the job to `to`, enforcing the [`JobState`] transition table.
    fn transition(&mut self, to: JobState) {
        let from = std::mem::replace(&mut self.state, to);
        assert!(
            from.can_transition(to),
            "illegal fleet transition {from:?} -> {to:?}"
        );
    }
}

/// One registered worker.
pub(super) struct WorkerEntry {
    pub(super) addr: String,
    pub(super) last_beat: Instant,
    pub(super) live: bool,
    pub(super) dispatched: u64,
    /// Jobs assigned or running here now.
    pub(super) inflight: u64,
    /// The current link, dialled on first use and dropped on loss.
    pub(super) link: Option<LinkState>,
}

impl WorkerEntry {
    /// When this worker counts as lost, and why: its heartbeat deadline, or
    /// the ack deadline of its oldest unanswered `SUBMIT` if that is earlier.
    fn deadline(&self, timeout: Duration) -> (Instant, &'static str) {
        const UNACKED: &str = "SUBMIT not acked within the heartbeat timeout";
        let beat = (self.last_beat + timeout, "heartbeat timeout");
        let sent = self.link.as_ref().and_then(|l| l.unacked.front());
        let ack = sent.map(|s| (s.1 + timeout, UNACKED));
        ack.filter(|ack| ack.0 < beat.0).unwrap_or(beat)
    }
}

/// The machine's side of a worker's current link.
#[derive(Default)]
pub(super) struct LinkState {
    pub(super) id: LinkId,
    /// `(job, sent at)` of each `SUBMIT` not answered yet, in write order,
    /// which acks, `BUSY` and request `ERR`s answer in.
    pub(super) unacked: VecDeque<(JobId, Instant)>,
    /// Acked worker job id -> job.
    acked: HashMap<JobId, JobId>,
}

/// The coordinator's job and worker table, and every decision over it.
#[derive(Default)]
pub(crate) struct Fleet {
    queue_depth: usize,
    /// The heartbeat timeout, which is also the ack deadline.
    timeout: Duration,
    pub(super) max_retries: u32,
    /// The last job id handed out (ids start at 1).
    pub(super) next_id: JobId,
    next_link: LinkId,
    /// Every job, terminal ones included (`STATUS`/`RESULT` answer them).
    pub(super) jobs: BTreeMap<JobId, FleetJob>,
    /// The ids of the non-terminal jobs: what the depth bound counts, and
    /// what the dispatch scan, the deadlines, loss and `FLEET` walk.
    pub(super) open: BTreeSet<JobId>,
    /// `BTreeMap` so "the sorted live-worker set" is the iteration order.
    pub(super) workers: BTreeMap<String, WorkerEntry>,
    /// Set by `SHUTDOWN`: later submissions are refused.
    pub(super) closed: bool,
    /// Set by every step that makes dispatch work or an earlier deadline;
    /// whoever takes the actions clears it and steps [`Event::Wake`].
    pub(super) kicked: bool,
    /// The actions appended since the loop last took them.
    pub(super) actions: Vec<Action>,
    pub(super) summary: ServeSummary,
}

impl Fleet {
    pub(crate) fn new(queue_depth: usize, timeout: Duration, max_retries: u32) -> Fleet {
        let mut fleet = Fleet::default();
        (fleet.queue_depth, fleet.timeout) = (queue_depth.max(1), timeout);
        fleet.max_retries = max_retries;
        fleet
    }

    /// The one entry point: applies `event`, which happened at `now`, and
    /// appends the actions it calls for.
    pub(crate) fn step(&mut self, event: Event, now: Instant) -> Verdict {
        match event {
            Event::Submit(spec) => return self.admit(spec, now),
            Event::Cancel(id) => match self.jobs.get(&id).map(|job| job.state) {
                Some(JobState::Queued) => self.finish(id, JobState::Cancelled, Outcome::Cancelled),
                state => return Verdict::NotCancelled(state),
            },
            Event::Close => self.closed = true,
            Event::Heartbeat(worker, addr) => return self.beat(worker, addr, now),
            Event::Reply(worker, link, response) => self.reply(&worker, link, response, now),
            Event::LinkError(worker, link, cause) => {
                if self.link(&worker, link).is_some() {
                    self.lose(&worker, &cause);
                }
            }
            Event::Wake => {
                let due = |w: &WorkerEntry| Some(w.deadline(self.timeout)).filter(|d| d.0 <= now);
                let lost: Vec<(String, &str)> = (self.workers.iter().filter(|(_, w)| w.live))
                    .filter_map(|(id, w)| Some((id.clone(), due(w)?.1)))
                    .collect();
                for (worker, cause) in lost {
                    self.lose(&worker, cause);
                }
                self.assign_ready(now);
            }
        }
        Verdict::Taken
    }

    /// How long from `now` until the machine must see an [`Event::Wake`]:
    /// its earliest heartbeat deadline, ack deadline or back-off (zero once
    /// due). Queued jobs with no live worker wait for a registration.
    pub(crate) fn next_wake(&self, now: Instant) -> Option<Duration> {
        let live: Vec<&WorkerEntry> = self.workers.values().filter(|w| w.live).collect();
        let losses = live.iter().map(|w| w.deadline(self.timeout).0);
        let queued = self.open.iter().map(|id| &self.jobs[id]);
        let backoffs = queued
            .filter(|job| job.state == JobState::Queued && !live.is_empty())
            .map(|job| job.not_before);
        let next = losses.chain(backoffs).min()?;
        Some(next.saturating_duration_since(now))
    }

    /// Admits one submission, or refuses it (`BUSY` past the depth bound).
    fn admit(&mut self, spec: JobSpec, now: Instant) -> Verdict {
        if self.closed {
            return Verdict::Admission(Err(kecss::Error::ServiceShuttingDown));
        }
        if self.open.len() >= self.queue_depth {
            self.summary.rejected += 1;
            let depth = self.queue_depth;
            return Verdict::Admission(Err(kecss::Error::JobQueueFull { depth }));
        }
        self.next_id += 1;
        let id = self.next_id;
        self.summary.submitted += 1;
        let job = FleetJob {
            spec,
            state: JobState::Queued,
            worker: None,
            retries: 0,
            not_before: now,
            submitted_at: now,
            outcome: None,
        };
        self.jobs.insert(id, job);
        self.open.insert(id);
        self.kicked = true;
        Verdict::Admission(Ok(id))
    }

    /// Registers (a first beat, or the first after a loss) or refreshes a
    /// worker. An address with no port to dial registers none: that worker
    /// would be listed live but could never take a job.
    fn beat(&mut self, worker: String, addr: String, now: Instant) -> Verdict {
        if !crate::protocol::is_dialable(&addr) {
            let refusal = format!("worker {worker} advertises '{addr}', which has no port to dial");
            return Verdict::Beat(Response::Err(refusal));
        }
        let fresh = || WorkerEntry {
            addr: String::new(),
            last_beat: now,
            live: false,
            dispatched: 0,
            inflight: 0,
            link: None,
        };
        let entry = self.workers.entry(worker.clone()).or_insert_with(fresh);
        let registered = !entry.live;
        if kecss_obs::enabled() && !registered {
            record_ns(&metrics().heartbeat_gap_ns, entry.last_beat, now);
        }
        (entry.addr, entry.last_beat, entry.live) = (addr, now, true);
        self.kicked |= registered;
        self.update_live_gauge();
        let word = if registered { "REGISTERED" } else { "ALIVE" };
        Verdict::Beat(Response::Ok(format!("{worker} {word}")))
    }

    /// `worker`'s link while `link` is its current one.
    fn link(&mut self, worker: &str, link: LinkId) -> Option<&mut LinkState> {
        let state = self.workers.get_mut(worker)?.link.as_mut()?;
        (state.id == link).then_some(state)
    }

    /// A reply on a worker link. Acks and `BUSY` answer the oldest unanswered
    /// `SUBMIT`, a `RESULT` or a terminal `ERR` names an acked worker job id,
    /// and anything else is a loss.
    fn reply(&mut self, worker: &str, link: LinkId, response: Response, now: Instant) {
        let Some(state) = self.link(worker, link) else {
            return;
        };
        let answered = match response {
            Response::Ok(words) => {
                let wid = words.split_whitespace().next().and_then(|w| w.parse().ok());
                let sent = state.unacked.pop_front().zip(wid);
                sent.map(|((id, _), wid)| {
                    state.acked.insert(wid, id);
                    (id, JobState::Running, None)
                })
            }
            Response::Busy(_) => {
                (state.unacked.pop_front()).map(|(id, _)| (id, JobState::Queued, None))
            }
            Response::Result { id: wid, payload } => (state.acked.remove(&wid))
                .map(|id| (id, JobState::Done, Some(Outcome::Done(payload)))),
            Response::Err(message) => {
                let Some(wid) = terminal_err_job(&message) else {
                    return self.lose(worker, &format!("worker refused the link: {message}"));
                };
                let prefix = format!("job {wid} failed: ");
                let failure =
                    Outcome::Failed(message.strip_prefix(&prefix).unwrap_or(&message).into());
                (state.acked.remove(&wid)).map(|id| (id, JobState::Failed, Some(failure)))
            }
            other => {
                let cause = format!("worker answered outside the protocol: {other:?}");
                return self.lose(worker, &cause);
            }
        };
        let Some((id, to, outcome)) = answered else {
            return self.lose(worker, "worker answered no SUBMIT of this link");
        };
        // A loss discards the link's queue and ack map, so they name only
        // this worker's jobs in flight.
        let job = self.jobs.get_mut(&id).expect("a link names only open jobs");
        match outcome {
            Some(outcome) => self.finish(id, to, outcome),
            None if to == JobState::Queued => {
                job.not_before = now + BUSY_BACKOFF;
                self.requeue(id);
            }
            None => job.transition(to),
        }
    }

    /// Returns an assigned or running job to the queue.
    fn requeue(&mut self, id: JobId) {
        let job = self.jobs.get_mut(&id).expect("open job exists");
        job.transition(JobState::Queued);
        let worker = job.worker.take();
        self.detach(worker);
        self.kicked = true;
    }

    /// Assigns every ready queued job, in id order, to `splitmix64(id)` over
    /// the sorted live-worker set, dialling the worker's link on first use,
    /// and appends the `SUBMIT`s to write.
    fn assign_ready(&mut self, now: Instant) {
        let live: Vec<String> = (self.workers.iter())
            .filter(|(_, w)| w.live)
            .map(|(id, _)| id.clone())
            .collect();
        if live.is_empty() {
            return;
        }
        let ready: Vec<JobId> = (self.open.iter().copied())
            .filter(|id| {
                let job = &self.jobs[id];
                job.state == JobState::Queued && job.not_before <= now
            })
            .collect();
        for id in ready {
            let worker = &live[(splitmix64(id) % live.len() as u64) as usize];
            let job = self.jobs.get_mut(&id).expect("open job exists");
            job.transition(JobState::Assigned);
            job.worker = Some(worker.clone());
            if kecss_obs::enabled() {
                record_ns(&metrics().assignment_wait_ns, job.submitted_at, now);
            }
            let entry = self.workers.get_mut(worker).expect("live worker exists");
            entry.dispatched += 1;
            entry.inflight += 1;
            kecss_obs::counter_with("fleet_worker_dispatched_total", &[("worker", worker)]).inc();
            worker_inflight_gauge(worker).set(entry.inflight as i64);
            let link = entry.link.get_or_insert_with(|| {
                self.next_link += 1;
                let dial = Action::Dial(worker.clone(), self.next_link, entry.addr.clone());
                self.actions.push(dial);
                LinkState {
                    id: self.next_link,
                    ..LinkState::default()
                }
            });
            link.unacked.push_back((id, now));
            self.actions.push(Action::Send(link.id, job.spec.clone()));
        }
    }

    /// Drops one assigned/running job from `worker`'s in-flight count.
    fn detach(&mut self, worker: Option<String>) {
        if let Some((entry, worker)) = worker.and_then(|w| Some((self.workers.get_mut(&w)?, w))) {
            entry.inflight = entry.inflight.saturating_sub(1);
            worker_inflight_gauge(&worker).set(entry.inflight as i64);
        }
    }

    /// Marks a job terminal: transition, store the outcome, release its
    /// worker and its open slot, count it, and report it.
    fn finish(&mut self, id: JobId, to: JobState, outcome: Outcome) {
        let job = self.jobs.get_mut(&id).expect("finishing a known job");
        job.transition(to);
        job.outcome = Some(outcome);
        let worker = job.worker.take();
        self.detach(worker);
        self.open.remove(&id);
        self.actions.push(Action::Terminal(id));
        let (count, counter) = match to {
            JobState::Done => (&mut self.summary.completed, &metrics().completed),
            JobState::Failed => (&mut self.summary.failed, &metrics().failed),
            JobState::Cancelled => (&mut self.summary.cancelled, &metrics().cancelled),
            _ => unreachable!("finish is only called with terminal states"),
        };
        *count += 1;
        counter.inc();
    }

    /// The one loss path: marks `worker` dead, closes its link, and returns
    /// its non-terminal jobs to the queue charging each a retry, or fails
    /// one whose budget is spent. Callers act only on the current link.
    fn lose(&mut self, worker: &str, cause: &str) {
        let Some(entry) = self.workers.get_mut(worker) else {
            return;
        };
        if let Some(link) = entry.link.take() {
            self.actions.push(Action::Close(link.id));
        }
        entry.live = false;
        let ids: Vec<JobId> = (self.open.iter().copied())
            .filter(|id| self.jobs[id].worker.as_deref() == Some(worker))
            .collect();
        for id in ids {
            self.summary.retries += 1;
            metrics().retries.inc();
            let job = self.jobs.get_mut(&id).expect("open job exists");
            job.retries += 1;
            if job.retries > self.max_retries {
                let message = format!(
                    "worker lost {} times (last: {cause}); retry budget {} spent",
                    job.retries, self.max_retries
                );
                self.finish(id, JobState::Failed, Outcome::Failed(message));
            } else {
                self.requeue(id);
            }
        }
        self.update_live_gauge();
        self.kicked = true;
    }

    fn update_live_gauge(&self) {
        let live = self.workers.values().filter(|w| w.live).count();
        metrics().workers_live.set(live as i64);
    }

    /// Renders the machine-parseable `FLEET` status text at `now` (grammar
    /// in DESIGN.md §13).
    pub(crate) fn render(&self, now: Instant) -> String {
        let mut text = String::from("# kecss fleet status v1\n");
        let live = self.workers.values().filter(|w| w.live).count();
        text.push_str(&format!("workers {} live {live}\n", self.workers.len()));
        for (id, w) in &self.workers {
            text.push_str(&format!(
                "worker {id} {} {} inflight {} dispatched {} age_ms {}\n",
                w.addr,
                if w.live { "live" } else { "dead" },
                w.inflight,
                w.dispatched,
                now.saturating_duration_since(w.last_beat).as_millis(),
            ));
        }
        let s = self.summary;
        text.push_str(&format!(
            "jobs submitted {} completed {} failed {} cancelled {} rejected {} retries {}\n",
            s.submitted, s.completed, s.failed, s.cancelled, s.rejected, s.retries
        ));
        let open = || self.open.iter().map(|id| (id, &self.jobs[id]));
        let count = |state: JobState| open().filter(|(_, j)| j.state == state).count();
        text.push_str(&format!(
            "inflight {} queued {} assigned {} running {}\n",
            self.open.len(),
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
}

/// The worker job id a terminal `ERR` push names: `job <wid> failed: …` or
/// `job <wid> was cancelled …`.
pub(super) fn terminal_err_job(message: &str) -> Option<JobId> {
    let (wid, rest) = message.strip_prefix("job ")?.split_once(' ')?;
    let terminal = rest.starts_with("failed: ") || rest.starts_with("was cancelled");
    terminal.then(|| wid.parse().ok()).flatten()
}

/// The deterministic assignment hash: splitmix64, a fixed pure function of
/// the job id, so assignment is reproducible for a sorted live-worker set.
pub(super) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
