//! Baselines and reference solvers used by the evaluation (experiment E8 and
//! the approximation-ratio experiments).
//!
//! * [`greedy`] — the classical sequential greedy set-cover augmentation
//!   (the algorithm the paper's framework parallelizes); an `O(log n)`
//!   approximation that serves as the quality reference.
//! * [`thurimella`] — the sparse-certificate 2-approximation for *unweighted*
//!   k-ECSS (\[36\] in the paper): k rounds of maximal spanning forests.
//! * [`bfs_two_ecss`] — the `O(D)`-round 2-approximation for unweighted
//!   2-ECSS of \[1\], used both as a baseline and as the starting subgraph of
//!   the unweighted 3-ECSS algorithm (Section 5).
//! * [`exact`] — branch-and-bound exact solvers for small instances, used to
//!   measure true approximation ratios.

pub mod bfs_two_ecss;
pub mod exact;
pub mod greedy;
pub mod thurimella;

use graphs::{EdgeSet, Weight};

/// A baseline solution: an edge set and its total weight.
#[derive(Clone, Debug)]
pub struct BaselineSolution {
    /// The selected edges.
    pub edges: EdgeSet,
    /// Their total weight.
    pub weight: Weight,
}
