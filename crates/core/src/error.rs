//! Error types shared by the solvers in this crate.

use std::fmt;

/// Errors returned by the k-ECSS solvers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The input graph is not sufficiently edge-connected for the requested
    /// problem (a k-ECSS only exists in a k-edge-connected graph).
    InsufficientConnectivity {
        /// The connectivity the problem requires.
        required: usize,
        /// The actual edge connectivity of the input (or of the subgraph `H`).
        actual: usize,
    },
    /// The requested connectivity target is below what the algorithm is
    /// defined for (`Aug_k` needs `k >= 2`; the first connectivity level is
    /// an MST). There is no upper limit on `k` any more: the pluggable
    /// [`crate::cuts::CutEnumerator`] strategies handle arbitrary cut sizes.
    UnsupportedK {
        /// The requested `k`.
        k: usize,
        /// The smallest supported `k`.
        min: usize,
    },
    /// The provided spanning subgraph is not spanning or is not a subgraph of
    /// the input graph.
    InvalidSubgraph {
        /// Explanation of the violation.
        reason: String,
    },
    /// `k` must be at least 1.
    ZeroK,
    /// A cut enumeration request was malformed: zero cut size, a disconnected
    /// subgraph, or a size outside what the chosen
    /// [`crate::cuts::CutEnumerator`] strategy implements.
    InvalidCutRequest {
        /// Explanation of the violation.
        reason: String,
    },
    /// The cycle-space label-class candidate pool for the requested cut size
    /// outgrew the enumeration budget. The caller should fall back to the
    /// randomized-contraction enumerator (the `auto` policy does this
    /// automatically).
    CandidateOverflow {
        /// The requested cut size.
        size: usize,
        /// The exceeded budget (number of candidate visits).
        budget: u64,
    },
    /// A solver job submitted to a scheduling front-end (the `kecss serve`
    /// service) was cancelled before it ran; its result will never exist.
    JobCancelled {
        /// The job's service-assigned id.
        job: u64,
    },
    /// A solver job was rejected because the scheduling front-end's bounded
    /// job queue was full (backpressure). The caller should retry later.
    JobQueueFull {
        /// The queue depth that was exceeded.
        depth: usize,
    },
    /// A solver job was rejected because the scheduling front-end is
    /// shutting down: already-accepted jobs drain, new ones are refused.
    ServiceShuttingDown,
    /// A randomized cut enumerator kept missing cuts: the augmentation's
    /// exact post-certification failed even after re-enumerating with fresh
    /// randomness. This indicates far too few contraction trials (or a bug);
    /// it does not occur with the `exact`/`label` strategies, which are
    /// deterministically complete on their supported sizes.
    IncompleteEnumeration {
        /// The cut size being enumerated.
        size: usize,
        /// Number of enumeration attempts that were certified incomplete.
        attempts: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InsufficientConnectivity { required, actual } => write!(
                f,
                "input graph is only {actual}-edge-connected but the problem requires {required}-edge-connectivity"
            ),
            Error::UnsupportedK { k, min } => {
                write!(f, "k = {k} is not supported (augmentation requires k >= {min})")
            }
            Error::InvalidSubgraph { reason } => write!(f, "invalid subgraph: {reason}"),
            Error::ZeroK => write!(f, "connectivity target k must be at least 1"),
            Error::InvalidCutRequest { reason } => {
                write!(f, "invalid cut enumeration request: {reason}")
            }
            Error::CandidateOverflow { size, budget } => write!(
                f,
                "label-class candidate pool for cuts of size {size} exceeded the budget of \
                 {budget} visits; use the contraction enumerator (enumerator policy 'contract' \
                 or 'auto')"
            ),
            Error::JobCancelled { job } => {
                write!(f, "job {job} was cancelled before it ran")
            }
            Error::JobQueueFull { depth } => write!(
                f,
                "the service job queue is full (depth {depth}); retry after in-flight jobs drain"
            ),
            Error::ServiceShuttingDown => write!(
                f,
                "the service is shutting down; accepted jobs drain but no new jobs are admitted"
            ),
            Error::IncompleteEnumeration { size, attempts } => write!(
                f,
                "randomized enumeration of cuts of size {size} was still incomplete after \
                 {attempts} certified attempts; increase the contraction trial count"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::InsufficientConnectivity {
            required: 3,
            actual: 1,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("1"));
        let e = Error::UnsupportedK { k: 1, min: 2 };
        assert!(e.to_string().contains("k = 1"));
        assert!(e.to_string().contains(">= 2"));
        let e = Error::InvalidSubgraph {
            reason: "not spanning".into(),
        };
        assert!(e.to_string().contains("not spanning"));
        assert!(Error::ZeroK.to_string().contains("at least 1"));
        let e = Error::InvalidCutRequest {
            reason: "cut size must be at least 1".into(),
        };
        assert!(e.to_string().contains("cut size"));
        let e = Error::CandidateOverflow {
            size: 5,
            budget: 1000,
        };
        assert!(e.to_string().contains("size 5"));
        assert!(e.to_string().contains("1000"));
        let e = Error::IncompleteEnumeration {
            size: 6,
            attempts: 3,
        };
        assert!(e.to_string().contains("size 6"));
        assert!(e.to_string().contains("3"));
        let e = Error::JobCancelled { job: 42 };
        assert!(e.to_string().contains("job 42"));
        let e = Error::JobQueueFull { depth: 8 };
        assert!(e.to_string().contains("depth 8"));
        assert!(Error::ServiceShuttingDown
            .to_string()
            .contains("shutting down"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<Error>();
    }
}
