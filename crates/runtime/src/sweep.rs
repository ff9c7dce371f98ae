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

use crate::executor::Executor;
use std::sync::atomic::{AtomicUsize, Ordering};

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
}
