//! The [`Executor`] abstraction: sequential or threaded execution with
//! *scheduling-independent* results.
//!
//! Everything in this module is built on two rules that together make thread
//! count invisible to the output:
//!
//! 1. **Fixed contiguous chunking.** Work items `0..len` are split into
//!    contiguous chunks of `ceil(len / t)` items. The decomposition depends
//!    only on `len` and `t`, never on timing.
//! 2. **Merge in chunk order.** Results are reassembled in chunk order (which
//!    equals item order), so the output is the same `Vec` a sequential loop
//!    would have produced, for every thread count.
//!
//! No work stealing, no shared mutable accumulators, no atomics on the result
//! path: workers only touch their own chunk. This is what lets the workspace
//! promise bit-identical outputs for `Sequential` and `Threaded(n)`
//! (DESIGN.md §8).

use std::num::NonZeroUsize;

/// How a parallelizable computation should be executed.
///
/// An `Executor` is cheap to copy and carries no state; it is a *policy*
/// threaded through the cut-verification routines and the sweep drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// Run on the calling thread, in item order.
    Sequential,
    /// Run on `n` worker threads spawned per call via [`std::thread::scope`],
    /// with fixed contiguous chunking. Results are bit-identical to
    /// [`Executor::Sequential`] for the pure (`Fn`) workloads this crate
    /// accepts.
    Threaded(NonZeroUsize),
}

impl Executor {
    /// Builds an executor from a thread-count flag: `0` and `1` mean
    /// [`Executor::Sequential`], anything larger means
    /// [`Executor::Threaded`].
    pub fn from_threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(t) if t.get() > 1 => Executor::Threaded(t),
            _ => Executor::Sequential,
        }
    }

    /// The number of threads this executor uses (1 for sequential).
    pub fn threads(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Threaded(t) => t.get(),
        }
    }

    /// The fixed contiguous chunk length used for `len` items: `ceil(len /
    /// threads)`, at least 1.
    pub fn chunk_len(&self, len: usize) -> usize {
        len.div_ceil(self.threads()).max(1)
    }

    /// Applies `f` to every item and returns the results in item order.
    ///
    /// `f` must be a pure function of its argument (the `Fn + Sync` bound
    /// rules out `&mut` captures); under that contract the result is
    /// identical for every executor variant.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads() == 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let chunk = self.chunk_len(items.len());
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>()))
                .collect();
            // Joining in spawn order = chunk order = item order.
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("executor worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_threads_normalizes() {
        assert_eq!(Executor::from_threads(0), Executor::Sequential);
        assert_eq!(Executor::from_threads(1), Executor::Sequential);
        assert_eq!(Executor::from_threads(4).threads(), 4);
    }

    #[test]
    fn chunking_is_fixed_and_contiguous() {
        let e = Executor::from_threads(4);
        assert_eq!(e.chunk_len(10), 3); // chunks 3,3,3,1
        assert_eq!(e.chunk_len(4), 1);
        assert_eq!(e.chunk_len(0), 1);
        assert_eq!(Executor::Sequential.chunk_len(10), 10);
    }

    #[test]
    fn map_matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..1003).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let e = Executor::from_threads(threads);
            assert_eq!(e.map(&items, |x| x * x + 1), expected, "t = {threads}");
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        let e = Executor::from_threads(8);
        assert_eq!(e.map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(e.map(&[7u32], |x| x + 1), vec![8]);
        // More threads than items.
        assert_eq!(e.map(&[1u32, 2, 3], |x| x * 10), vec![10, 20, 30]);
    }
}
