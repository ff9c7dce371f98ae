//! A seeded failure simulator for the fleet machine (DESIGN.md §13).
//!
//! Each schedule draws from its seed one to three scripted workers, each
//! with a fault, a late-registering healthy worker, and a client that
//! submits jobs drawn from a few small specs with pairwise different
//! payloads, cancels some, and may shut the fleet down. It drives [`Fleet`]
//! over virtual time the way the coordinator's threads do: heartbeats and
//! requests go in, each link's reader hands in decoded replies and then its
//! error, and the dispatcher wakes whenever a step kicks it or one of the
//! machine's deadlines falls due. It carries out the machine's actions: a
//! dial completes or fails, a `SUBMIT` reaches its worker, which answers as
//! its fault says, and a close ends a link, whose reader may still hand in
//! what it had decoded before reporting its error.
//!
//! After every step it checks the invariants:
//! - the open set equals the non-terminal ids, and each worker's in-flight
//!   count equals its assigned and running jobs;
//! - each admitted job is reported terminal exactly once, and by the end of
//!   the schedule every one is;
//! - a `DONE` payload equals its spec's oracle bytes, and a failure is the
//!   oracle's, or a spent retry budget;
//! - a loss charges exactly the jobs in flight on the lost worker one retry
//!   each, and nothing else (`BUSY` above all) charges one; retries stay
//!   within `max_retries`, past which the job fails;
//! - a reply or error on a closed link, or a reply to an earlier dispatch of
//!   a job, changes no job;
//! - a link the machine no longer holds is closed, and a job lost with a
//!   link is not sent again before that link is closed.
//!
//! A broken invariant fails with the seed and the schedule's event log. To
//! replay seed `n`, add `#[test] fn seed_n() { check(n) }` to this file.

use super::fleet::{Action, Event, Fleet, LinkId, Verdict};
use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::scheduler::{JobId, JobState, Outcome};
use kecss_runtime::Executor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What goes wrong with a scripted worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Fault {
    Healthy,
    /// Dies on a `SUBMIT` before acking it: its link ends, its beats stop.
    DeathBeforeAck,
    /// Acks a `SUBMIT`, then dies.
    DeathAfterAck,
    /// Acks, then its link ends inside a frame; the worker lives on.
    TornFrame,
    /// Acks, then its link fails with a read error; the worker lives on.
    ReadError,
    /// Acks, then falls silent with the link held open: no beat, no reply.
    BlackHole,
    /// Keeps beating but never answers a `SUBMIT`.
    NeverAck,
    /// Answers every `SUBMIT` `BUSY` until its storm ends.
    BusyStorm,
    /// First beats only after the client began submitting.
    LateRegistration,
    /// Beats at intervals around the heartbeat timeout.
    HeartbeatJitter,
    /// Acks late, at times past the ack deadline.
    SlowAck,
    /// Sends a job's `RESULT` twice.
    DuplicateResult,
    /// Sends a `RESULT` for a job it never acked.
    UnknownResult,
    /// Answers a `SUBMIT` with a request `ERR` (it is shutting down).
    RequestErr,
    /// Its dials are refused, or hang until they time out.
    FailedDial,
}

const FAULTS: [Fault; 15] = [
    Fault::Healthy,
    Fault::DeathBeforeAck,
    Fault::DeathAfterAck,
    Fault::TornFrame,
    Fault::ReadError,
    Fault::BlackHole,
    Fault::NeverAck,
    Fault::BusyStorm,
    Fault::LateRegistration,
    Fault::HeartbeatJitter,
    Fault::SlowAck,
    Fault::DuplicateResult,
    Fault::UnknownResult,
    Fault::RequestErr,
    Fault::FailedDial,
];

/// The specs jobs are drawn from, with their oracle outcomes: pairwise
/// different payloads, so a `RESULT` credited to the wrong job fails the
/// byte check, and one spec that fails on every worker.
fn specs() -> &'static [(JobSpec, Outcome)] {
    static SPECS: OnceLock<Vec<(JobSpec, Outcome)>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let lines = [
            "ring:12 2 2ecss auto 1",
            "ring:16 2 2ecss auto 2",
            "ring:20 2 kecss auto 3",
            "harary:10:9 3 kecss auto 4",
            "file:/no/such/instance.graph 2 2ecss auto 1",
        ];
        let specs: Vec<(JobSpec, Outcome)> = (lines.iter())
            .map(|line| {
                let Ok(Request::Submit(spec)) = Request::parse(&format!("SUBMIT {line}")) else {
                    panic!("'{line}' is not a SUBMIT");
                };
                let outcome = match crate::job::run(&spec, &Executor::Sequential) {
                    Ok(payload) => Outcome::Done(Arc::new(payload)),
                    Err(message) => Outcome::Failed(message),
                };
                (spec, outcome)
            })
            .collect();
        for (i, a) in specs.iter().enumerate() {
            assert!(specs[..i].iter().all(|b| a.1 != b.1), "spec {i} repeats");
        }
        specs
    })
}

/// Something that happens at a virtual time.
enum Pending {
    Beat(usize),
    Submit(usize),
    Cancel(JobId),
    Shutdown,
    /// A reply a link's reader decoded, and the `(job, dispatch)` it answers.
    Reply(LinkId, Response, Option<(JobId, u32)>),
    /// A link's reader reports its error, and stops.
    LinkError(LinkId, String),
    /// A link's dial ends.
    Dialled(LinkId, Option<String>),
    Wake,
}

struct SimWorker {
    name: String,
    fault: Fault,
    /// False once dead or black-holed: no beat, no answer.
    alive: bool,
    next_wid: JobId,
    storm_until: u64,
}

struct SimLink {
    worker: usize,
    /// The machine closed it.
    closed: bool,
    /// Its reader reported its error: it hands in nothing more.
    ended: bool,
    dialled: bool,
    /// `SUBMIT`s written while the link was still dialling.
    waiting: Vec<(JobId, u32, usize)>,
    /// Acks and `BUSY`s leave in `SUBMIT` order: the earliest the next may.
    ack_clock: u64,
}

#[derive(Default)]
struct SimJob {
    spec: usize,
    dispatches: u32,
    reported: u32,
    /// The link of its last `SUBMIT`, until that link is closed or the job
    /// was backed off by `BUSY`.
    unclosed: Option<LinkId>,
}

/// What a step may change, per job and per worker.
#[derive(PartialEq, Eq)]
struct Snapshot {
    jobs: BTreeMap<JobId, (JobState, u32, Option<String>)>,
    workers: BTreeMap<String, (bool, Option<LinkId>)>,
}

struct Sim {
    rng: ChaCha8Rng,
    t0: Instant,
    /// Virtual microseconds since the schedule began.
    now: u64,
    timeout: u64,
    fleet: Fleet,
    pending: BTreeMap<(u64, u64), Pending>,
    seq: u64,
    wake_at: Option<u64>,
    workers: Vec<SimWorker>,
    links: BTreeMap<LinkId, SimLink>,
    jobs: BTreeMap<JobId, SimJob>,
    submissions_left: usize,
    first_submit: u64,
    covered: BTreeSet<Fault>,
    log: Option<Vec<String>>,
}

/// Virtual microseconds.
fn ms(n: u64) -> u64 {
    n * 1000
}

impl Sim {
    fn new(seed: u64, verbose: bool) -> Sim {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let timeout = ms(rng.gen_range(80..=400u64));
        let (depth, retries) = (rng.gen_range(2..=10usize), rng.gen_range(0..=3u32));
        let fleet = Fleet::new(depth, Duration::from_micros(timeout), retries);
        let mut sim = Sim {
            rng,
            t0: Instant::now(),
            now: 0,
            timeout,
            fleet,
            pending: BTreeMap::new(),
            seq: 0,
            wake_at: None,
            workers: Vec::new(),
            links: BTreeMap::new(),
            jobs: BTreeMap::new(),
            submissions_left: 0,
            first_submit: u64::MAX,
            covered: BTreeSet::new(),
            log: verbose.then(Vec::new),
        };
        let window = sim.timeout * sim.rng.gen_range(4..=16u64);
        let jobs = sim.rng.gen_range(3..=20usize);
        for _ in 0..jobs {
            let (at, spec) = (
                sim.rng.gen_range(0..window),
                sim.rng.gen_range(0..specs().len()),
            );
            sim.first_submit = sim.first_submit.min(at);
            sim.at(at, Pending::Submit(spec));
        }
        sim.submissions_left = jobs;
        for _ in 0..sim.rng.gen_range(0..=jobs / 3) {
            let (at, id) = (
                sim.rng.gen_range(0..window),
                sim.rng.gen_range(1..=jobs as u64),
            );
            sim.at(at, Pending::Cancel(id));
        }
        if sim.rng.gen_bool(0.3) {
            // SHUTDOWN after the window, and one refused submission.
            sim.at(window, Pending::Shutdown);
            sim.at(window + 1, Pending::Submit(0));
            sim.submissions_left += 1;
        }
        for i in 0..sim.rng.gen_range(1..=3) {
            let fault = FAULTS[sim.rng.gen_range(0..FAULTS.len())];
            let first = match fault {
                Fault::LateRegistration => sim.rng.gen_range(window / 4..=window),
                _ => sim.rng.gen_range(0..=sim.timeout / 2),
            };
            let storm_until = sim.rng.gen_range(0..=window);
            sim.add_worker(format!("w{i}"), fault, first, storm_until);
        }
        // A healthy late registration guarantees progress once faults pass.
        let healer = window + sim.rng.gen_range(0..=sim.timeout);
        sim.add_worker("healer".into(), Fault::Healthy, healer, 0);
        sim
    }

    fn add_worker(&mut self, name: String, fault: Fault, first_beat: u64, storm_until: u64) {
        self.workers.push(SimWorker {
            name,
            fault,
            alive: true,
            next_wid: 1,
            storm_until,
        });
        self.at(first_beat, Pending::Beat(self.workers.len() - 1));
    }

    fn at(&mut self, time: u64, event: Pending) {
        self.seq += 1;
        self.pending.insert((time, self.seq), event);
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if let Some(log) = self.log.as_mut() {
            log.push(format!("{:>10.3} ms  {}", self.now as f64 / 1000.0, what()));
        }
    }

    fn snapshot(&self) -> Snapshot {
        let jobs = (self.fleet.jobs.iter())
            .map(|(id, j)| (*id, (j.state, j.retries, j.worker.clone())))
            .collect();
        let workers = (self.fleet.workers.iter())
            .map(|(id, w)| (id.clone(), (w.live, w.link.as_ref().map(|l| l.id))))
            .collect();
        Snapshot { jobs, workers }
    }

    /// Runs the schedule to its end: `Ok` with the faults that happened, or
    /// the first broken invariant.
    fn run(&mut self) -> Result<BTreeSet<Fault>, String> {
        let end = self.timeout * 80 + ms(10_000);
        while let Some(((time, _), event)) = self.pending.pop_first() {
            if time > end {
                break;
            }
            self.now = time;
            self.deliver(event)?;
            if self.submissions_left == 0 && self.fleet.open.is_empty() {
                break;
            }
        }
        let open: Vec<&JobId> = self.fleet.open.iter().collect();
        if !open.is_empty() {
            return Err(format!("jobs {open:?} never reached a terminal state"));
        }
        if let Some((id, job)) = self.jobs.iter().find(|(_, j)| j.reported != 1) {
            return Err(format!(
                "job {id} was reported terminal {} times",
                job.reported
            ));
        }
        Ok(std::mem::take(&mut self.covered))
    }

    fn deliver(&mut self, event: Pending) -> Result<(), String> {
        match event {
            Pending::Beat(w) => {
                let worker = &self.workers[w];
                if !worker.alive {
                    return Ok(());
                }
                let (name, fault) = (worker.name.clone(), worker.fault);
                if fault == Fault::LateRegistration && self.now > self.first_submit {
                    self.covered.insert(fault);
                }
                let gap = match fault {
                    Fault::HeartbeatJitter => self
                        .rng
                        .gen_range(self.timeout * 7 / 10..self.timeout * 13 / 10),
                    _ => self.rng.gen_range(self.timeout / 5..self.timeout / 2),
                };
                if gap >= self.timeout {
                    self.covered.insert(fault);
                }
                self.at(self.now + gap, Pending::Beat(w));
                let addr = format!("10.0.0.{w}:7000");
                self.step(Event::Heartbeat(name, addr), None)?;
            }
            Pending::Submit(spec) => {
                self.submissions_left -= 1;
                let submit = Event::Submit(specs()[spec].0.clone());
                if let Verdict::Admission(Ok(id)) = self.step(submit, None)? {
                    let job = SimJob {
                        spec,
                        ..SimJob::default()
                    };
                    self.jobs.insert(id, job);
                }
            }
            Pending::Cancel(id) => {
                let queued = self.fleet.jobs.get(&id).map(|j| j.state);
                let verdict = self.step(Event::Cancel(id), None)?;
                let cancelled = matches!(verdict, Verdict::Taken);
                if cancelled != (queued == Some(JobState::Queued)) {
                    return Err(format!(
                        "cancel of job {id} in state {queued:?} answered {cancelled}"
                    ));
                }
            }
            Pending::Shutdown => {
                self.step(Event::Close, None)?;
            }
            Pending::Reply(link, response, answers) => {
                if self.links[&link].ended {
                    return Ok(());
                }
                let worker = self.workers[self.links[&link].worker].name.clone();
                self.step(Event::Reply(worker, link, response), answers)?;
            }
            Pending::LinkError(link, cause) => {
                let state = self.links.get_mut(&link).expect("a known link");
                if state.ended {
                    return Ok(());
                }
                state.ended = true;
                let worker = self.workers[state.worker].name.clone();
                self.step(Event::LinkError(worker, link, cause), None)?;
            }
            Pending::Dialled(link, failure) => {
                let state = self.links.get_mut(&link).expect("a known link");
                match failure {
                    // A link closed while dialling drops its socket quietly.
                    None if state.closed => state.ended = true,
                    None => {
                        state.dialled = true;
                        for (job, dispatch, spec) in std::mem::take(&mut state.waiting) {
                            self.receive(link, job, dispatch, spec);
                        }
                    }
                    Some(cause) => self.at(self.now, Pending::LinkError(link, cause)),
                }
            }
            Pending::Wake => {
                if self.wake_at.is_some_and(|at| at <= self.now) {
                    self.wake_at = None;
                }
                self.step(Event::Wake, None)?;
            }
        }
        Ok(())
    }

    /// One machine step, its invariants, and its actions.
    fn step(&mut self, event: Event, answers: Option<(JobId, u32)>) -> Result<Verdict, String> {
        // The dispatcher's own wake needs no kick: it reads the next
        // deadline right after its step.
        let woken = matches!(event, Event::Wake);
        let stale_link = match &event {
            Event::Reply(_, link, _) | Event::LinkError(_, link, _) => self.links[link].closed,
            _ => false,
        };
        let stale_job = answers.filter(|(job, dispatch)| {
            self.fleet.jobs[job].state.is_terminal() || self.jobs[job].dispatches > *dispatch
        });
        let cancel = match &event {
            Event::Cancel(id) => Some(*id),
            _ => None,
        };
        let described = describe(&event);
        self.note(|| described);
        let before = self.snapshot();
        let verdict = self
            .fleet
            .step(event, self.t0 + Duration::from_micros(self.now));
        let actions = std::mem::take(&mut self.fleet.actions);
        let kicked = std::mem::take(&mut self.fleet.kicked);
        let after = self.snapshot();
        if stale_link && (!actions.is_empty() || before != after) {
            return Err(format!("a stale link changed the fleet: {actions:?}"));
        }
        if let Some((job, dispatch)) = stale_job {
            if before.jobs[&job] != after.jobs[&job] {
                return Err(format!(
                    "a reply to dispatch {dispatch} of job {job} changed it"
                ));
            }
        }
        self.check(&before, &after, &actions, cancel)?;
        // A `BUSY` back-off returns a job to the queue uncharged, its link open.
        for (id, job) in &mut self.jobs {
            let (Some(was), Some(is)) = (before.jobs.get(id), after.jobs.get(id)) else {
                continue;
            };
            if was.0 == JobState::Assigned && is.0 == JobState::Queued && was.1 == is.1 {
                job.unclosed = None;
            }
        }
        let mut sent = self.sent_jobs(&actions)?;
        for action in actions {
            self.act(action, &mut sent)?;
        }
        self.check_links()?;
        self.schedule_wake(kicked && !woken);
        Ok(verdict)
    }

    /// The invariants a step must keep, from what it changed.
    fn check(
        &mut self,
        before: &Snapshot,
        after: &Snapshot,
        actions: &[Action],
        cancel: Option<JobId>,
    ) -> Result<(), String> {
        let fleet = &self.fleet;
        let open: BTreeSet<JobId> = (fleet.jobs.iter())
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(id, _)| *id)
            .collect();
        if open != fleet.open {
            return Err(format!(
                "the open set {:?} is not the non-terminal ids {open:?}",
                fleet.open
            ));
        }
        for (name, worker) in &fleet.workers {
            let inflight = (fleet.open.iter())
                .filter(|id| fleet.jobs[id].worker.as_deref() == Some(name.as_str()))
                .count() as u64;
            if worker.inflight != inflight {
                return Err(format!(
                    "worker {name} counts {} in flight, not {inflight}",
                    worker.inflight
                ));
            }
        }
        // A worker is lost when the machine drops its link.
        let lost: BTreeSet<&String> = (before.workers.iter())
            .filter(|(name, (_, link))| link.is_some() && after.workers[*name].1 != *link)
            .map(|(name, _)| name)
            .collect();
        let reported: BTreeSet<JobId> = (actions.iter())
            .filter_map(|a| match a {
                Action::Terminal(id) => Some(*id),
                _ => None,
            })
            .collect();
        let max_retries = fleet.max_retries;
        for (id, &(state, retries, ref worker)) in &after.jobs {
            let (was, charged, on) =
                before
                    .jobs
                    .get(id)
                    .cloned()
                    .unwrap_or((JobState::Queued, 0, None));
            let in_flight = matches!(was, JobState::Assigned | JobState::Running);
            let expected =
                charged + u32::from(in_flight && on.as_ref().is_some_and(|w| lost.contains(w)));
            if retries != expected {
                return Err(format!("job {id} ({was:?} on {on:?} -> {state:?} on {worker:?}) has {retries} retries, not {expected}"));
            }
            if retries > max_retries + 1 || (retries > max_retries && state != JobState::Failed) {
                return Err(format!(
                    "job {id} is {state:?} after {retries} retries (budget {max_retries})"
                ));
            }
            let finished = state.is_terminal() && !was.is_terminal();
            if finished != reported.contains(id) {
                return Err(format!(
                    "job {id} went {was:?} -> {state:?}, reported: {}",
                    reported.contains(id)
                ));
            }
            if !finished {
                continue;
            }
            let job = self.jobs.get_mut(id).expect("a terminal job was admitted");
            job.reported += 1;
            let oracle = &specs()[job.spec].1;
            let outcome = fleet.jobs[id]
                .outcome
                .as_ref()
                .expect("a terminal job has an outcome");
            let budget_spent = |m: &str| m.starts_with("worker lost ") && retries > max_retries;
            let right = match outcome {
                Outcome::Done(_) => outcome == oracle,
                Outcome::Failed(message) => outcome == oracle || budget_spent(message),
                Outcome::Cancelled => cancel == Some(*id) && was == JobState::Queued,
                Outcome::Gone => false,
            };
            if !right {
                let oracle = abbreviate(oracle);
                return Err(format!(
                    "job {id} ended {}, its oracle is {oracle}",
                    abbreviate(outcome)
                ));
            }
        }
        Ok(())
    }

    /// Every link the machine dialled and no longer holds is closed.
    fn check_links(&self) -> Result<(), String> {
        for (id, link) in self.links.iter().filter(|(_, l)| !l.closed) {
            let name = &self.workers[link.worker].name;
            let held = self.fleet.workers[name].link.as_ref().map(|l| l.id);
            if held != Some(*id) {
                return Err(format!("link {id} of {name} was dropped but never closed"));
            }
        }
        Ok(())
    }

    /// The job each `SUBMIT` of a step carries, per link in send order: the
    /// newest entries of the link's unacked queue, which the machine
    /// appends to as it appends the sends.
    fn sent_jobs(&self, actions: &[Action]) -> Result<BTreeMap<LinkId, Vec<JobId>>, String> {
        let mut counts: BTreeMap<LinkId, usize> = BTreeMap::new();
        for action in actions {
            if let Action::Send(link, _) = action {
                *counts.entry(*link).or_default() += 1;
            }
        }
        let mut sent = BTreeMap::new();
        for (link, count) in counts {
            let held = self.fleet.workers.values().filter_map(|w| w.link.as_ref());
            let Some(state) = held.clone().find(|l| l.id == link) else {
                return Err(format!(
                    "a SUBMIT on link {link}, which the machine does not hold"
                ));
            };
            let queue = &state.unacked;
            let ids = queue
                .iter()
                .skip(queue.len().saturating_sub(count))
                .map(|s| s.0);
            sent.insert(link, ids.rev().collect());
        }
        Ok(sent)
    }

    fn act(
        &mut self,
        action: Action,
        sent: &mut BTreeMap<LinkId, Vec<JobId>>,
    ) -> Result<(), String> {
        match action {
            Action::Dial(worker, link, _) => {
                self.note(|| format!("  dial link {link} to {worker}"));
                let w = self
                    .workers
                    .iter()
                    .position(|x| x.name == worker)
                    .expect("a known worker");
                let state = SimLink {
                    worker: w,
                    closed: false,
                    ended: false,
                    dialled: false,
                    waiting: Vec::new(),
                    ack_clock: 0,
                };
                self.links.insert(link, state);
                let fails = self.workers[w].fault == Fault::FailedDial && self.rng.gen_bool(0.5);
                if fails {
                    self.covered.insert(Fault::FailedDial);
                    let hangs = self.rng.gen_bool(0.5);
                    let (after, how) = if hangs {
                        (self.timeout, "timed out")
                    } else {
                        (ms(1), "refused")
                    };
                    let cause = format!("cannot dial 10.0.0.{w}:7000: connection {how}");
                    self.at(self.now + after, Pending::Dialled(link, Some(cause)));
                } else {
                    let after = self.rng.gen_range(100..3000u64);
                    self.at(self.now + after, Pending::Dialled(link, None));
                }
            }
            Action::Send(link, spec) => {
                let id = sent
                    .get_mut(&link)
                    .and_then(Vec::pop)
                    .ok_or("a SUBMIT with no job")?;
                let job = self.jobs.get_mut(&id).expect("an admitted job");
                if let Some(held) = job.unclosed {
                    return Err(format!("job {id} was sent on link {link} before link {held}, which lost it, was closed"));
                }
                job.dispatches += 1;
                job.unclosed = Some(link);
                let (dispatch, spec_index) = (job.dispatches, job.spec);
                if specs()[spec_index].0 != spec {
                    return Err(format!("job {id} was sent with another job's spec"));
                }
                self.note(|| format!("  send job {id} (dispatch {dispatch}) on link {link}"));
                let state = self.links.get_mut(&link).expect("a dialled link");
                if state.dialled {
                    self.receive(link, id, dispatch, spec_index);
                } else {
                    state.waiting.push((id, dispatch, spec_index));
                }
            }
            Action::Close(link) => {
                self.note(|| format!("  close link {link}"));
                for job in self.jobs.values_mut().filter(|j| j.unclosed == Some(link)) {
                    job.unclosed = None;
                }
                let state = self.links.get_mut(&link).expect("a dialled link");
                state.closed = true;
                if state.dialled {
                    // The reader may still hand in what it decoded, then its
                    // error; now and then its thread runs late.
                    let late = self.rng.gen_bool(0.25);
                    let after = self
                        .rng
                        .gen_range(0..=if late { 2 * self.timeout } else { 1000 });
                    let cause = "connection aborted".to_string();
                    self.at(self.now + after, Pending::LinkError(link, cause));
                }
            }
            Action::Terminal(id) => self.note(|| format!("  job {id} terminal")),
        }
        Ok(())
    }

    /// A worker reads a `SUBMIT` on `link` and answers as its fault says.
    fn receive(&mut self, link: LinkId, job: JobId, dispatch: u32, spec: usize) {
        let w = self.links[&link].worker;
        if !self.workers[w].alive {
            return;
        }
        let fault = self.workers[w].fault;
        let strikes = fault != Fault::Healthy && self.rng.gen_bool(0.4);
        let answers = Some((job, dispatch));
        let quick = self.rng.gen_range(0..2000u64);
        let refusal = match fault {
            Fault::NeverAck => Some(None),
            Fault::BusyStorm if self.now < self.workers[w].storm_until => {
                Some(Some(Response::Busy(1)))
            }
            Fault::RequestErr if strikes => {
                Some(Some(Response::Err("service is shutting down".into())))
            }
            Fault::DeathBeforeAck if strikes => {
                self.workers[w].alive = false;
                let cause = "failed to fill whole buffer".to_string();
                self.at(self.now + quick, Pending::LinkError(link, cause));
                Some(None)
            }
            _ => None,
        };
        if let Some(answer) = refusal {
            self.covered.insert(fault);
            if let Some(answer) = answer {
                self.answer(link, quick, answer, answers);
            }
            return;
        }
        let wid = self.workers[w].next_wid;
        self.workers[w].next_wid += 1;
        let delay = match fault {
            Fault::SlowAck if strikes => {
                self.covered.insert(fault);
                self.rng.gen_range(self.timeout / 2..self.timeout * 3 / 2)
            }
            _ => quick,
        };
        let acked = self.answer(link, delay, Response::Ok(format!("{wid} QUEUED")), answers);
        let soon = acked + self.rng.gen_range(0..3000u64);
        let failure = match fault {
            Fault::DeathAfterAck if strikes => Some("failed to fill whole buffer"),
            Fault::TornFrame if strikes => Some("torn frame: failed to fill whole buffer"),
            Fault::ReadError if strikes => Some("connection reset by peer"),
            _ => None,
        };
        if let Some(cause) = failure {
            self.covered.insert(fault);
            self.workers[w].alive &= fault != Fault::DeathAfterAck;
            return self.at(soon, Pending::LinkError(link, cause.into()));
        }
        if fault == Fault::BlackHole && strikes {
            self.covered.insert(fault);
            self.workers[w].alive = false;
            return;
        }
        let reply = match &specs()[spec].1 {
            Outcome::Done(payload) => Response::Result {
                id: wid,
                payload: Arc::clone(payload),
            },
            Outcome::Failed(message) => Response::Err(format!("job {wid} failed: {message}")),
            other => unreachable!("an oracle is {other:?}"),
        };
        let done = soon + self.rng.gen_range(1000..20_000u64);
        self.at(done, Pending::Reply(link, reply.clone(), answers));
        if strikes && matches!(fault, Fault::DuplicateResult | Fault::UnknownResult) {
            self.covered.insert(fault);
            let (reply, answers) = match (fault, reply) {
                (Fault::UnknownResult, Response::Result { payload, .. }) => (
                    Response::Result {
                        id: wid + 1_000_000,
                        payload,
                    },
                    None,
                ),
                (_, reply) => (reply, answers),
            };
            self.at(done + 1, Pending::Reply(link, reply, answers));
        }
    }

    /// Queues an ack-ordered answer on `link`, no earlier than `delay` from
    /// now; returns when it is handed in.
    fn answer(
        &mut self,
        link: LinkId,
        delay: u64,
        reply: Response,
        answers: Option<(JobId, u32)>,
    ) -> u64 {
        let state = self.links.get_mut(&link).expect("a dialled link");
        let at = (self.now + delay).max(state.ack_clock);
        state.ack_clock = at;
        self.at(at, Pending::Reply(link, reply, answers));
        at
    }

    /// The dispatcher wakes at once when kicked, else at the machine's next
    /// deadline.
    fn schedule_wake(&mut self, kicked: bool) {
        let now = self.t0 + Duration::from_micros(self.now);
        let deadline = (self.fleet.next_wake(now)).map(|d| self.now + d.as_micros() as u64);
        let wake = if kicked { Some(self.now) } else { deadline };
        if let Some(at) = wake.filter(|at| self.wake_at.is_none_or(|w| *at < w)) {
            self.wake_at = Some(at);
            self.at(at, Pending::Wake);
        }
    }
}

fn describe(event: &Event) -> String {
    match event {
        Event::Submit(spec) => format!("submit {:?} seed {}", spec.instance, spec.seed),
        Event::Cancel(id) => format!("cancel job {id}"),
        Event::Close => "shutdown".into(),
        Event::Heartbeat(worker, _) => format!("heartbeat {worker}"),
        Event::Reply(worker, link, response) => {
            format!(
                "reply on link {link} of {worker}: {}",
                abbreviate_reply(response)
            )
        }
        Event::LinkError(worker, link, cause) => format!("link {link} of {worker} failed: {cause}"),
        Event::Wake => "wake".into(),
    }
}

fn abbreviate_reply(response: &Response) -> String {
    match response {
        Response::Result { id, payload } => format!("RESULT {id} ({} bytes)", payload.len()),
        other => format!("{other:?}"),
    }
}

fn abbreviate(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Done(payload) => format!("DONE ({} bytes)", payload.len()),
        other => format!("{other:?}"),
    }
}

/// Runs schedule `seed`: the faults it exercised, or a failure message that
/// names the seed and holds the schedule's event log.
fn run(seed: u64) -> Result<BTreeSet<Fault>, String> {
    Sim::new(seed, false).run().map_err(|violation| {
        let mut replay = Sim::new(seed, true);
        let _ = replay.run();
        let log = replay.log.unwrap_or_default().join("\n");
        format!(
            "fleet simulator, seed {seed}: {violation}\n\
             replay with `#[test] fn seed_{seed}() {{ check({seed}) }}` in coordinator/sim.rs\n\
             event log:\n{log}"
        )
    })
}

/// Replays schedule `seed`, panicking with its event log if it breaks an
/// invariant.
pub(super) fn check(seed: u64) {
    if let Err(failure) = run(seed) {
        panic!("{failure}");
    }
}

/// Runs the schedules `seeds` and checks that together they exercised
/// every fault.
fn explore(seeds: std::ops::Range<u64>) {
    let mut covered = BTreeSet::new();
    for seed in seeds {
        match run(seed) {
            Ok(faults) => covered.extend(faults),
            Err(failure) => panic!("{failure}"),
        }
    }
    let missed: Vec<&Fault> = FAULTS[1..]
        .iter()
        .filter(|f| !covered.contains(f))
        .collect();
    assert!(missed.is_empty(), "no schedule exercised {missed:?}");
}

#[test]
fn a_thousand_seeded_schedules_keep_every_fleet_invariant() {
    explore(0..1000);
}

/// The larger fixed set CI runs optimized (`cargo test --release -p
/// kecss_server -- --ignored`).
#[test]
#[ignore = "the larger schedule set; run optimized with --ignored"]
fn twenty_thousand_seeded_schedules_keep_every_fleet_invariant() {
    explore(1000..21_000);
}

#[test]
fn seed_7_replays() {
    check(7);
}
