//! A synchronous CONGEST-model simulator.
//!
//! The CONGEST model ([Peleg, *Distributed Computing: A Locality-Sensitive
//! Approach*]) is the setting of the paper reproduced by this workspace: the
//! input graph *is* the communication network, computation proceeds in
//! synchronous rounds, and in each round every vertex may send one message of
//! `O(log n)` bits over each incident edge.
//!
//! This crate provides:
//!
//! * [`Network`] — a deterministic round-by-round executor for per-node
//!   programs ([`NodeProgram`]) with message-size enforcement and round /
//!   message counters.
//! * [`programs`] — genuine message-passing implementations of the building
//!   blocks the paper uses: BFS-tree construction, leader election by
//!   flooding, tree broadcast / convergecast (including the pipelined
//!   `O(D + ℓ)` variant), and a Borůvka-style distributed MST.
//! * [`accounting`] — the round-cost model used by the higher-level k-ECSS
//!   algorithms in the `kecss` crate. The paper's algorithms are analysed as
//!   compositions of communication primitives with proven round costs; the
//!   [`accounting::RoundLedger`] charges exactly those costs per invocation
//!   and keeps a per-phase breakdown, so that measured round counts scale the
//!   way the theorems state. Where both a message-level program and an
//!   accounting entry exist (BFS, broadcast, convergecast, MST), tests check
//!   they are consistent.
//!
//! # Example
//!
//! ```
//! use graphs::generators;
//! use congest::{Network, programs::bfs::DistributedBfs};
//!
//! let g = generators::cycle(8, 1);
//! let net = Network::new(&g);
//! let outcome = net.run(DistributedBfs::programs(&g, 0), 100).expect("bfs terminates");
//! // The BFS tree of a cycle has depth n/2 and construction takes Theta(D) rounds.
//! assert!(outcome.report.rounds >= 4 && outcome.report.rounds <= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod message;
pub mod network;
pub mod node;
pub mod programs;

pub use accounting::{CostModel, RoundLedger};
pub use message::{Incoming, Message};
pub use network::{Network, NetworkError, Outcome, RunReport};
pub use node::{NodeContext, NodeProgram, Outgoing, StepResult};
