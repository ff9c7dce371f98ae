//! Concurrent workload sweeps: run a grid of independent cells (instances ×
//! algorithms × seeds) across an [`Executor`]'s threads.
//!
//! A sweep cell must be a pure function of its configuration (each cell
//! creates its own RNG from its own seed), which makes the grid
//! embarrassingly parallel *and* scheduling-independent: the result vector is
//! in grid order for every thread count.
//!
//! [`run_jobs`] schedules a fixed grid job by job: workers claim one cell at
//! a time from a shared atomic counter, so an expensive cell never drags a
//! whole chunk behind it (as [`Executor::map`]'s fixed chunking would).
//! Results still come out in grid order (each result is placed by its cell
//! index after the scoped workers join), so the output is bit-identical to a
//! sequential loop for pure cell functions.
//!
//! For open-ended streams of work — where jobs arrive over time instead of as
//! a fixed grid — [`JobPool`] keeps a set of persistent workers draining a
//! shared queue. This is the seam the `kecss serve` front-end schedules
//! request jobs onto.

use crate::executor::Executor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Runs `f` on every cell of the grid with **job-granular self-scheduling**:
/// each of the executor's workers repeatedly claims the next unclaimed cell
/// (one at a time, via an atomic cursor) until the grid is exhausted.
///
/// Compared with [`Executor::map`]'s fixed chunking this tolerates
/// heterogeneous cell costs — an expensive cell occupies one worker while the
/// others keep draining the grid — at the price of one atomic fetch-add per
/// cell.
///
/// The results are returned in grid order for every thread count: workers
/// record `(index, result)` pairs and the pairs are placed by index after the
/// scoped workers join, so for pure (`Fn`) cell functions the output is
/// bit-identical to [`Executor::map`] and to a sequential loop.
pub fn run_jobs<C, R, F>(exec: &Executor, cells: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    if exec.threads() == 1 || cells.len() <= 1 {
        return cells.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let f = &f;
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..exec.threads().min(cells.len()))
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        local.push((i, f(cell)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep job worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(cells.len()).collect();
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every cell was claimed exactly once"))
        .collect()
}

/// A set of persistent worker threads draining a shared FIFO queue of boxed
/// jobs: the job-granular scheduling seam for open-ended work streams.
///
/// Where [`run_jobs`] schedules a *fixed* grid, a `JobPool` accepts jobs over
/// time — the `kecss serve` front-end submits one job per accepted request —
/// and executes them FIFO across `threads` workers. The pool itself imposes no
/// ordering on completions and no bound on the queue; callers that need
/// backpressure (the server's bounded job table) or deterministic result
/// ordering (each job writes into its own slot keyed by job id) layer it on
/// top, which keeps this type a plain work conveyor.
///
/// [`JobPool::shutdown`] drains the queue (already-submitted jobs still run)
/// and joins the workers; dropping the pool does the same.
pub struct JobPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is pushed or shutdown begins.
    available: Condvar,
}

struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

impl JobPool {
    /// Spawns a pool with `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutting_down: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        JobPool { shared, workers }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job. Returns `false` (without running the job) if the pool
    /// is already shutting down.
    pub fn submit(&self, job: Job) -> bool {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        if state.shutting_down {
            return false;
        }
        state.queue.push_back(job);
        let depth = state.queue.len();
        drop(state);
        // Observability only: the gauge mirrors the queue length (last
        // writer wins under contention, which is fine for a depth gauge).
        kecss_obs::gauge("runtime_pool_queue_depth").set(depth as i64);
        self.shared.available.notify_one();
        true
    }

    /// Jobs enqueued but not yet claimed by a worker.
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .queue
            .len()
    }

    /// Stops accepting new jobs, drains the queue and joins the workers.
    /// Jobs submitted before the call are all executed.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            worker.join().expect("pool worker panicked");
        }
    }

    fn begin_shutdown(&self) {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .shutting_down = true;
        self.shared.available.notify_all();
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            worker.join().expect("pool worker panicked");
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    kecss_obs::gauge("runtime_pool_queue_depth").set(state.queue.len() as i64);
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.available.wait(state).expect("pool lock poisoned");
            }
        };
        job();
    }
}

/// The cartesian product of three dimensions, in row-major order.
pub fn grid3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut out = Vec::with_capacity(a.len() * b.len() * c.len());
    for x in a {
        for y in b {
            for z in c {
                out.push((x.clone(), y.clone(), z.clone()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_row_major() {
        assert_eq!(
            grid3(&[1, 2], &["a", "b"], &[0]),
            vec![(1, "a", 0), (1, "b", 0), (2, "a", 0), (2, "b", 0)]
        );
        assert_eq!(grid3(&[1], &[2, 3], &[4]), vec![(1, 2, 4), (1, 3, 4)]);
    }

    #[test]
    fn run_jobs_matches_run_for_every_thread_count() {
        let cells: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = cells.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let exec = Executor::from_threads(threads);
            assert_eq!(
                run_jobs(&exec, &cells, |x| x * 3 + 1),
                expected,
                "t = {threads}"
            );
            assert_eq!(exec.map(&cells, |x| x * 3 + 1), expected, "t = {threads}");
        }
    }

    #[test]
    fn run_jobs_handles_degenerate_sizes() {
        let exec = Executor::from_threads(8);
        assert_eq!(run_jobs(&exec, &[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(run_jobs(&exec, &[5u32], |x| x + 1), vec![6]);
        // More threads than cells.
        assert_eq!(run_jobs(&exec, &[1u32, 2], |x| x * 10), vec![10, 20]);
    }

    #[test]
    fn run_jobs_tolerates_heterogeneous_cell_costs() {
        // One expensive cell must not perturb the output order.
        let cells: Vec<u64> = (0..16).collect();
        let exec = Executor::from_threads(4);
        let out = run_jobs(&exec, &cells, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, cells);
    }

    #[test]
    fn job_pool_runs_all_submitted_jobs() {
        use std::sync::atomic::AtomicU64;
        let pool = JobPool::new(4);
        assert_eq!(pool.threads(), 4);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            assert!(pool.submit(Box::new(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            })));
        }
        pool.shutdown();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn job_pool_shutdown_drains_then_rejects() {
        use std::sync::atomic::AtomicU64;
        let pool = JobPool::new(1);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let shared = Arc::clone(&pool.shared);
        pool.shutdown();
        // Every pre-shutdown job ran; post-shutdown submissions are refused.
        assert_eq!(done.load(Ordering::Relaxed), 10);
        assert!(shared.state.lock().unwrap().shutting_down);
        let orphan = JobPool::new(1);
        orphan.begin_shutdown();
        assert!(!orphan.submit(Box::new(|| {})));
    }

    #[test]
    fn job_pool_drop_joins_workers() {
        use std::sync::atomic::AtomicU64;
        let done = Arc::new(AtomicU64::new(0));
        {
            let pool = JobPool::new(2);
            for _ in 0..8 {
                let done = Arc::clone(&done);
                pool.submit(Box::new(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        // Drop drained the queue before joining.
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }
}
