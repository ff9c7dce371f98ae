//! `kecss_runtime` — deterministic parallel execution for the k-ECSS
//! workspace.
//!
//! Two surfaces run work in parallel without giving up the workspace's
//! determinism guarantee (DESIGN.md §4): for every entry point,
//! `Threaded(n)` produces **bit-identical** results to `Sequential`.
//!
//! The crate is std-only (no rayon): [`std::thread::scope`] with fixed
//! contiguous chunking and chunk-order merging is all that is needed for
//! scheduling-independent results, and it keeps the dependency budget at
//! zero.
//!
//! * [`Executor`] — the execution policy (`Sequential` / `Threaded(n)`)
//!   threaded through the cut-verification routines and the sweep drivers;
//! * [`sweep`] — job-granular scheduling of fixed grids
//!   ([`sweep::run_jobs`], behind `kecss sweep`).
//!
//! # Example
//!
//! ```
//! use kecss_runtime::{sweep, Executor};
//!
//! let cells: Vec<u64> = (0..100).collect();
//! let sequential = Executor::Sequential.map(&cells, |x| x * x);
//! let threaded = Executor::from_threads(4);
//! assert_eq!(threaded.map(&cells, |x| x * x), sequential);
//! assert_eq!(sweep::run_jobs(&threaded, &cells, |x| x * x), sequential);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod sweep;

pub use executor::Executor;
