//! The fleet control plane: the job table of a
//! [`crate::server::Role::Coordinator`] server, which speaks the **same**
//! client-facing protocol as the standalone server (one responder,
//! [`crate::event_loop`], answers both), plus `HEARTBEAT` and `FLEET`, and
//! dispatches every job to a registered worker over that same wire format
//! (DESIGN.md §13). [`crate::server::Server`] binds, runs and stops it like
//! every other role.
//!
//! * **One place decides.** Admission, assignment, which job a link's reply
//!   answers, whether a worker is lost and when to look again are decided by
//!   one state machine, `fleet::Fleet`, that reads no clock and holds no
//!   socket, lock or thread.
//! * **One thread does the I/O.** The readiness loop steps the machine for
//!   its clients and for every worker link, and carries out the actions it
//!   returns: each link is one more nonblocking connection of the loop, and
//!   only its dial runs on a thread of its own (`dial`).
//! * **Workers are plain servers.** The loop writes each job as one
//!   wait-flagged `SUBMIT` on its worker's one `KGW1` link, and the worker
//!   acks, then pushes the terminal reply on it.
//! * **Retries.** A worker loss — a failed dial, a link read or write error,
//!   a reply outside the protocol, a heartbeat timeout, or a `SUBMIT` unacked
//!   for that long — closes its link and re-queues its jobs, charging each a
//!   retry; past `max_retries` a job fails. A `BUSY` answer re-queues with a
//!   short back-off and charges nothing. [`crate::job::run`] is pure in the
//!   spec, so neither the worker nor the retries can change a payload byte.

pub(crate) mod fleet;
#[cfg(test)]
mod sim;

use crate::event_loop::Service;
use crate::job::JobSpec;
use crate::protocol::Response;
use crate::scheduler::{CompletionHook, JobId, JobState, Outcome, ServeSummary};
use fleet::{Action, Event, Fleet, Verdict};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Connects a worker's link for the readiness loop: nonblocking, with
/// `TCP_NODELAY`, the connect bounded by `timeout`. Returns the cause of a
/// failure as the loss reports it. Each dial runs on a thread of its own that
/// only does this, so a dial that hangs holds up only its worker's jobs.
pub(crate) fn dial(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let connect = || {
        let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no address resolved")
        })?;
        let stream = TcpStream::connect_timeout(&target, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    };
    connect().map_err(|e: std::io::Error| format!("cannot dial {addr}: {e}"))
}

/// The coordinator's job table: the fleet machine, which only the readiness
/// loop steps.
pub(crate) struct Shared {
    fleet: Mutex<Fleet>,
    /// Bounds each dial.
    pub(crate) timeout: Duration,
}

impl Shared {
    /// The table of a coordinator admitting `queue_depth` jobs in flight.
    pub(crate) fn new(queue_depth: usize, timeout: Duration, max_retries: u32) -> Shared {
        Shared {
            fleet: Mutex::new(Fleet::new(queue_depth, timeout, max_retries)),
            timeout,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Fleet> {
        self.fleet.lock().expect("coordinator lock poisoned")
    }

    /// Runs `event` through the machine now. Its actions wait for
    /// [`Shared::actions`].
    pub(crate) fn step(&self, event: Event) -> Verdict {
        self.lock().step(event, Instant::now())
    }

    /// Takes the actions of the steps since the last call, in order. When
    /// one of those steps kicked, or `deadline` has passed, it steps
    /// [`Event::Wake`] first and moves `deadline` to the machine's next one.
    /// Otherwise `deadline` stands: only a step that kicks can make a
    /// deadline earlier.
    pub(crate) fn actions(&self, deadline: &mut Option<Instant>) -> Vec<Action> {
        let mut fleet = self.lock();
        let now = Instant::now();
        if std::mem::take(&mut fleet.kicked) || deadline.is_some_and(|at| at <= now) {
            fleet.step(Event::Wake, now);
            // The wake's own kick asks for nothing more: it has just
            // assigned what was ready.
            fleet.kicked = false;
            *deadline = fleet.next_wake(now).map(|wait| now + wait);
        }
        std::mem::take(&mut fleet.actions)
    }

    /// The final counters.
    pub(crate) fn summary(&self) -> ServeSummary {
        self.lock().summary
    }
}

/// The coordinator's job table: the fleet machine, behind the same responder
/// as the standalone scheduler, with the same fetched-once `RESULT`.
impl Service for Shared {
    fn requests_metric(&self) -> &'static str {
        "fleet_requests_total"
    }

    fn submit(&self, spec: JobSpec) -> kecss::error::Result<JobId> {
        let Verdict::Admission(admitted) = self.step(Event::Submit(spec)) else {
            unreachable!("a submission is admitted or refused")
        };
        admitted
    }

    fn status(&self, id: JobId) -> Option<JobState> {
        self.lock().jobs.get(&id).map(|job| job.state)
    }

    fn fetch(&self, id: JobId) -> Option<Outcome> {
        Some(self.lock().jobs.get_mut(&id)?.outcome.as_mut()?.fetch())
    }

    fn cancel(&self, id: JobId) -> Result<(), Option<JobState>> {
        match self.step(Event::Cancel(id)) {
            Verdict::NotCancelled(state) => Err(state),
            _ => Ok(()),
        }
    }

    fn close(&self) {
        self.step(Event::Close);
    }

    fn idle(&self) -> bool {
        self.lock().open.is_empty()
    }

    /// Needs no hook: the loop that steps the machine carries out its
    /// `Terminal` actions itself.
    fn set_completion_hook(&self, _hook: CompletionHook) {}

    fn heartbeat(&self, worker: String, addr: String) -> Response {
        let Verdict::Beat(reply) = self.step(Event::Heartbeat(worker, addr)) else {
            unreachable!("a heartbeat is answered")
        };
        reply
    }

    fn fleet(&self) -> Response {
        let text = self.lock().render(Instant::now());
        Response::Fleet(Arc::new(text.into_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::fleet::{splitmix64, terminal_err_job, FleetJob, LinkId, LinkState, WorkerEntry};
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
    fn assert_open_set(fleet: &Fleet) {
        let open: std::collections::BTreeSet<JobId> = (fleet.jobs.iter())
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(fleet.open, open);
    }

    /// The links dialled and the jobs sent by the actions since the last
    /// call, which it clears.
    fn take_sends(fleet: &mut Fleet) -> (Vec<LinkId>, Vec<LinkId>) {
        let (mut dials, mut sends) = (Vec::new(), Vec::new());
        for action in std::mem::take(&mut fleet.actions) {
            match action {
                Action::Dial(_, link, _) => dials.push(link),
                Action::Send(link, _) => sends.push(link),
                _ => {}
            }
        }
        (dials, sends)
    }

    fn beat(fleet: &mut Fleet, now: Instant) {
        let (worker, addr) = ("w1".to_string(), "127.0.0.1:9000".to_string());
        fleet.step(Event::Heartbeat(worker, addr), now);
    }

    fn reply(fleet: &mut Fleet, link: LinkId, response: Response, now: Instant) {
        fleet.step(Event::Reply("w1".into(), link, response), now);
    }

    fn link_error(fleet: &mut Fleet, link: LinkId, now: Instant) {
        fleet.step(Event::LinkError("w1".into(), link, "test loss".into()), now);
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
        let mut fleet = Fleet::new(4, Duration::from_secs(3), 5);
        fleet.next_id = 2;
        fleet.summary = ServeSummary {
            submitted: 2,
            completed: 1,
            retries: 1,
            ..ServeSummary::default()
        };
        fleet.workers.insert(
            "w1".into(),
            WorkerEntry {
                dispatched: 2,
                inflight: 1,
                ..worker("127.0.0.1:9000", true)
            },
        );
        fleet.workers.insert(
            "w2".into(),
            WorkerEntry {
                dispatched: 1,
                ..worker("127.0.0.1:9001", false)
            },
        );
        let now = Instant::now();
        fleet.jobs.insert(
            2,
            FleetJob {
                spec: ring_spec(),
                state: JobState::Running,
                worker: Some("w1".into()),
                retries: 1,
                not_before: now,
                submitted_at: now,
                outcome: None,
            },
        );
        fleet.open.insert(2);
        let text = fleet.render(now);
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
        let now = Instant::now();
        let mut fleet = Fleet::new(3, Duration::from_secs(3), 1);
        beat(&mut fleet, now);
        // Admit three jobs into a depth-3 table; a fourth is refused.
        let ids: Vec<JobId> = (0..3)
            .map(|_| match fleet.step(Event::Submit(ring_spec()), now) {
                Verdict::Admission(Ok(id)) => id,
                _ => panic!("not admitted"),
            })
            .collect();
        let [a, b, c] = ids[..] else { unreachable!() };
        assert_open_set(&fleet);
        let refused = fleet.step(Event::Submit(ring_spec()), now);
        let busy = kecss::Error::JobQueueFull { depth: 3 };
        assert!(matches!(refused, Verdict::Admission(Err(e)) if e == busy));
        assert_eq!(fleet.summary.rejected, 1);
        // Cancel one while it is queued.
        fleet.step(Event::Cancel(c), now);
        assert_open_set(&fleet);
        // Assign the other two: one link is dialled and carries both.
        fleet.step(Event::Wake, now);
        let (dials, sends) = take_sends(&mut fleet);
        let link = dials[0];
        assert_eq!((dials, sends), (vec![link], vec![link, link]));
        assert_open_set(&fleet);
        assert_eq!(fleet.workers["w1"].inflight, 2);
        // The ack of a is its RUNNING hop; BUSY backs b off, uncharged, and
        // a reply on a stale link number is dropped.
        reply(&mut fleet, link, Response::Ok("1 QUEUED".into()), now);
        reply(&mut fleet, link, Response::Busy(1), now);
        reply(&mut fleet, link + 1, Response::Ok("2 QUEUED".into()), now);
        assert_eq!(fleet.jobs[&a].state, JobState::Running);
        assert_eq!(fleet.jobs[&b].state, JobState::Queued);
        assert_eq!((fleet.jobs[&b].retries, fleet.summary.retries), (0, 0));
        fleet.step(Event::Wake, now);
        assert_eq!(take_sends(&mut fleet).1, [], "backed off");
        assert_open_set(&fleet);
        // Budget 1: the first loss re-queues a...
        link_error(&mut fleet, link, now);
        assert!(!fleet.workers["w1"].live);
        assert_eq!(fleet.jobs[&a].state, JobState::Queued);
        assert_eq!(fleet.jobs[&a].retries, 1);
        assert_eq!(fleet.summary.retries, 1);
        assert_open_set(&fleet);
        // ...the second, after a re-registration, exhausts the budget and
        // fails it; b, on its first loss, is re-queued.
        beat(&mut fleet, now);
        fleet.step(Event::Wake, now + fleet::BUSY_BACKOFF);
        let (dials, sends) = take_sends(&mut fleet);
        assert_eq!(sends.len(), 2);
        link_error(&mut fleet, dials[0], now);
        assert_eq!(fleet.jobs[&a].state, JobState::Failed);
        assert!(matches!(fleet.jobs[&a].outcome, Some(Outcome::Failed(_))));
        assert_eq!(fleet.jobs[&b].state, JobState::Queued);
        assert_eq!((fleet.summary.failed, fleet.summary.retries), (1, 3));
        assert_open_set(&fleet);
        // Done: b runs to a payload and the table holds no open job.
        beat(&mut fleet, now);
        fleet.step(Event::Wake, now + fleet::BUSY_BACKOFF);
        let link = take_sends(&mut fleet).0[0];
        reply(&mut fleet, link, Response::Ok("7 QUEUED".into()), now);
        let payload = Arc::new(b"payload".to_vec());
        reply(&mut fleet, link, Response::Result { id: 7, payload }, now);
        assert_eq!(fleet.jobs[&b].state, JobState::Done);
        assert_open_set(&fleet);
        assert!(fleet.open.is_empty());
        assert_eq!(fleet.workers["w1"].inflight, 0);
        let terminal: Vec<JobId> = (fleet.actions.iter())
            .filter_map(|a| match a {
                Action::Terminal(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(terminal, [b]);
    }

    #[test]
    fn a_stale_link_cannot_tear_down_the_current_one() {
        let now = Instant::now();
        let mut fleet = Fleet::new(4, Duration::from_secs(3), 5);
        beat(&mut fleet, now);
        // A worker with no link yet ignores link errors.
        link_error(&mut fleet, 1, now);
        assert!(fleet.workers["w1"].live);
        // Link 1 is lost; the worker re-registers and link 2 replaces it.
        fleet.step(Event::Submit(ring_spec()), now);
        fleet.step(Event::Wake, now);
        let stale = take_sends(&mut fleet).0[0];
        link_error(&mut fleet, stale, now);
        beat(&mut fleet, now);
        fleet.step(Event::Wake, now);
        let current = take_sends(&mut fleet).0[0];
        assert_ne!(stale, current);
        link_error(&mut fleet, stale, now);
        assert!(fleet.workers["w1"].live);
        let link = |fleet: &Fleet| fleet.workers["w1"].link.as_ref().map(|l: &LinkState| l.id);
        assert_eq!(link(&fleet), Some(current));
        link_error(&mut fleet, current, now);
        assert!(!fleet.workers["w1"].live);
        assert_eq!(link(&fleet), None);
    }
}
