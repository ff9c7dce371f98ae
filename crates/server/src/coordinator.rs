//! The fleet control plane: the job table and the dispatcher of a
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
//!   socket, lock or thread. The threads only do I/O around it — the
//!   readiness loop, one dispatcher, one reader per link — passing in the
//!   time and what they saw, and carrying out the actions it returns.
//! * **Workers are plain servers.** The dispatcher writes each job as one
//!   wait-flagged `SUBMIT` on its worker's one `KGW1` link, and the worker
//!   acks, then pushes the terminal reply on it.
//! * **Retries.** A worker loss — a failed dial, a link read or write error,
//!   a reply outside the protocol, a heartbeat timeout, or a `SUBMIT` unacked
//!   for that long — closes its link and re-queues its jobs, charging each a
//!   retry; past `max_retries` a job fails. A `BUSY` answer re-queues with a
//!   short back-off and charges nothing. [`crate::job::run`] is pure in the
//!   spec, so neither the worker nor the retries can change a payload byte.

mod fleet;
#[cfg(test)]
mod sim;

use crate::client::read_reply_frame;
use crate::event_loop::Service;
use crate::job::JobSpec;
use crate::protocol::{Request, Response};
use crate::scheduler::{CompletionHook, JobId, JobState, Outcome, ServeSummary};
use crate::wire;
use fleet::{Action, Event, Fleet, LinkId, Verdict};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One persistent `KGW1` connection to a worker, dialled and read by its own
/// [`run_link`] thread, so a dial that hangs holds up only its jobs.
struct Link {
    worker: String,
    /// Set by the reader once its dial succeeds.
    stream: OnceLock<TcpStream>,
    /// Frames sent while the link is still dialling, written after the
    /// preamble; `None` once the dial took them or the link was closed.
    dialling: Mutex<Option<Vec<u8>>>,
}

impl Link {
    /// Sends one frame, or queues it until the dial finishes (a link closed
    /// while dialling drops it). A failed write closes the link, and its
    /// reader then reports the loss.
    fn send(&self, frame: &[u8]) {
        let mut dialling = self.dialling.lock().expect("link lock poisoned");
        let Some(mut stream) = self.stream.get() else {
            return dialling.iter_mut().for_each(|f| f.extend_from_slice(frame));
        };
        drop(dialling);
        if stream.write_all(frame).is_err() {
            self.close();
        }
    }

    /// Dials `addr`, then writes the preamble and the queued frames; the
    /// dial and every write are bounded by `timeout`. Returns the read half,
    /// or `None` when the link was closed while dialling.
    fn dial(&self, addr: &str, timeout: Duration) -> std::io::Result<Option<TcpStream>> {
        let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "no address resolved")
        })?;
        let stream = TcpStream::connect_timeout(&target, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = stream.try_clone()?;
        let mut dialling = self.dialling.lock().expect("link lock poisoned");
        let Some(frames) = dialling.take() else {
            return Ok(None);
        };
        (&stream).write_all(&[&wire::PREAMBLE[..], &frames].concat())?;
        let _ = self.stream.set(stream);
        Ok(Some(reader))
    }

    /// Shuts the socket down, which wakes the reader even when the worker
    /// has gone silent; a link still dialling drops its socket once dialled.
    fn close(&self) {
        self.dialling.lock().expect("link lock poisoned").take();
        if let Some(stream) = self.stream.get() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A link's thread: dials `addr`, hands each decoded reply to the machine
/// until the link fails, then reports the failure.
fn run_link(shared: &Shared, id: LinkId, link: &Link, addr: &str) {
    let worker = || link.worker.clone();
    let cause = match link.dial(addr, shared.timeout) {
        Ok(None) => return,
        Err(e) => format!("cannot dial {addr}: {e}"),
        Ok(Some(stream)) => {
            let mut reader = BufReader::new(stream);
            loop {
                match read_reply_frame(&mut reader) {
                    Ok(response) => shared.step(Event::Reply(worker(), id, response)),
                    Err(e) => break e.to_string(),
                };
            }
        }
    };
    shared.step(Event::LinkError(worker(), id, cause));
}

/// The coordinator's job table: the fleet machine, the dispatcher's wakeup
/// and the worker links.
#[derive(Default)]
pub(crate) struct Shared {
    fleet: Mutex<Fleet>,
    /// Wakes the dispatcher: signalled when a step kicks, and on shutdown.
    dispatch: Condvar,
    /// The readiness loop's completion hook (push delivery + drain wakeups).
    completion_hook: OnceLock<CompletionHook>,
    /// The links the machine dialled, by number, and their reader threads.
    links: Mutex<HashMap<LinkId, Arc<Link>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Bounds each dial and each link write.
    timeout: Duration,
    /// This `Shared`, for the link threads a dial starts.
    me: Weak<Shared>,
}

impl Shared {
    /// The table of a coordinator admitting `queue_depth` jobs in flight.
    pub(crate) fn new(queue_depth: usize, timeout: Duration, max_retries: u32) -> Arc<Shared> {
        Arc::new_cyclic(|me| Shared {
            fleet: Mutex::new(Fleet::new(queue_depth, timeout, max_retries)),
            timeout,
            me: me.clone(),
            ..Shared::default()
        })
    }

    /// Wakes the dispatcher once the readiness loop has returned: it finds
    /// the machine closed and idle, and returns.
    pub(crate) fn wake_dispatcher(&self) {
        drop(self.lock());
        self.dispatch.notify_all();
    }

    /// Closes the worker links and joins their readers (after the
    /// dispatcher, the only thread that dials, has returned), then returns
    /// the final counters.
    pub(crate) fn close_links(&self) -> ServeSummary {
        let links = std::mem::take(&mut *self.links());
        links.values().for_each(|link| link.close());
        let readers = std::mem::take(&mut *self.readers.lock().expect("reader list poisoned"));
        for reader in readers {
            reader.join().expect("a link reader panicked");
        }
        self.lock().summary
    }

    fn lock(&self) -> MutexGuard<'_, Fleet> {
        self.fleet.lock().expect("coordinator lock poisoned")
    }

    fn links(&self) -> MutexGuard<'_, HashMap<LinkId, Arc<Link>>> {
        self.links.lock().expect("link table poisoned")
    }

    /// Runs `event` through the machine now, then carries out its actions.
    fn step(&self, event: Event) -> Verdict {
        let mut fleet = self.lock();
        let verdict = fleet.step(event, Instant::now());
        self.act(fleet);
        verdict
    }

    /// Takes the machine's actions and releases its lock, then carries them
    /// out in order, so no I/O and no completion hook runs under it. Only the
    /// dispatcher dials and sends, and a link is closed only once dialled.
    fn act(&self, mut fleet: MutexGuard<'_, Fleet>) {
        let kicked = std::mem::take(&mut fleet.kicked);
        let actions = std::mem::take(&mut fleet.actions);
        drop(fleet);
        if kicked {
            self.dispatch.notify_all();
        }
        for action in actions {
            match action {
                Action::Dial(worker, id, addr) => {
                    let (stream, dialling) = (OnceLock::new(), Mutex::new(Some(vec![])));
                    let link = Arc::new(Link {
                        worker,
                        stream,
                        dialling,
                    });
                    self.links().insert(id, Arc::clone(&link));
                    let shared = self.me.upgrade().expect("the coordinator is running");
                    let reader = std::thread::spawn(move || run_link(&shared, id, &link, &addr));
                    let mut readers = self.readers.lock().expect("reader list poisoned");
                    let finished = readers.extract_if(.., |r| r.is_finished());
                    finished.for_each(|r| r.join().expect("a link reader panicked"));
                    readers.push(reader);
                }
                Action::Send(id, spec) => {
                    let link = self.links().get(&id).cloned();
                    let frame = || wire::encode_request(&Request::SubmitWait(spec));
                    link.inspect(|link| link.send(&frame()));
                }
                Action::Close(id) => {
                    let link = self.links().remove(&id);
                    link.inspect(|link| link.close());
                }
                Action::Terminal(id) => {
                    self.completion_hook.get().inspect(|hook| hook(id));
                }
            }
        }
    }
}

/// The dispatcher: wakes the machine (which sweeps lost workers and assigns
/// queued jobs), writes the `SUBMIT`s it asks for, and sleeps until its next
/// deadline or a kick, read and begun under one lock so no kick is lost.
pub(crate) fn dispatcher_loop(shared: &Shared) {
    let mut fleet = shared.lock();
    loop {
        fleet.step(Event::Wake, Instant::now());
        shared.act(fleet);
        fleet = shared.lock();
        if fleet.closed && fleet.open.is_empty() {
            return;
        }
        fleet = match fleet.next_wake(Instant::now()) {
            Some(wait) if wait.is_zero() => fleet,
            Some(wait) => shared.dispatch.wait_timeout(fleet, wait).expect("lock").0,
            None => shared
                .dispatch
                .wait(fleet)
                .expect("coordinator lock poisoned"),
        };
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

    fn set_completion_hook(&self, hook: CompletionHook) {
        let _ = self.completion_hook.set(hook);
    }

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
    use super::fleet::{splitmix64, terminal_err_job, FleetJob, LinkState, WorkerEntry};
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
