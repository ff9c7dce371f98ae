//! The synchronous round executor.

use crate::message::{Incoming, Message};
use crate::node::{NodeContext, NodeProgram, StepResult};
use graphs::{Graph, NodeId};
use std::fmt;

/// Statistics of a completed (or aborted) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Number of synchronous rounds executed.
    pub rounds: u64,
    /// Total number of messages delivered.
    pub messages: u64,
    /// Total number of words across all messages.
    pub words: u64,
    /// The largest message observed, in words.
    pub max_message_words: u64,
}

/// The result of running a set of node programs to completion: the final
/// program states plus the run statistics.
pub struct Outcome<P> {
    /// The per-node programs in their final states, indexed by vertex id.
    pub nodes: Vec<P>,
    /// Round and message statistics.
    pub report: RunReport,
}

impl<P> fmt::Debug for Outcome<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Outcome")
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// Errors raised by the network executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetworkError {
    /// A node attempted to send to a vertex that is not its neighbor.
    NotANeighbor {
        /// The sending vertex.
        from: NodeId,
        /// The intended recipient.
        to: NodeId,
    },
    /// A message exceeded the per-message word budget (CONGEST bandwidth).
    MessageTooLarge {
        /// The sending vertex.
        from: NodeId,
        /// The intended recipient.
        to: NodeId,
        /// The size of the offending message, in words.
        words: usize,
        /// The enforced budget.
        budget: usize,
    },
    /// The run did not terminate within the round limit.
    RoundLimitExceeded {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The number of programs did not match the number of vertices.
    WrongProgramCount {
        /// Programs supplied.
        got: usize,
        /// Vertices in the network.
        expected: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::NotANeighbor { from, to } => {
                write!(f, "vertex {from} attempted to send to non-neighbor {to}")
            }
            NetworkError::MessageTooLarge {
                from,
                to,
                words,
                budget,
            } => write!(
                f,
                "message from {from} to {to} has {words} words, exceeding the budget of {budget}"
            ),
            NetworkError::RoundLimitExceeded { limit } => {
                write!(f, "run did not terminate within {limit} rounds")
            }
            NetworkError::WrongProgramCount { got, expected } => {
                write!(f, "got {got} programs for a network of {expected} vertices")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// A synchronous CONGEST network over a communication graph.
///
/// The executor is deterministic: inboxes are sorted by sender id, nodes are
/// stepped in vertex order, and messages sent in round `r` are delivered at
/// the start of round `r + 1`.
#[derive(Clone, Debug)]
pub struct Network {
    contexts: Vec<NodeContext>,
    word_budget: usize,
}

impl Network {
    /// Creates a network whose topology is `graph`, with the default message
    /// word budget ([`Message::DEFAULT_WORD_BUDGET`]).
    pub fn new(graph: &Graph) -> Self {
        Self::with_word_budget(graph, Message::DEFAULT_WORD_BUDGET)
    }

    /// Creates a network with an explicit per-message word budget.
    ///
    /// # Panics
    ///
    /// Panics if `word_budget` is zero.
    pub fn with_word_budget(graph: &Graph, word_budget: usize) -> Self {
        assert!(word_budget >= 1, "word budget must be at least one word");
        // One CSR build up front, then every per-vertex context is filled
        // from a contiguous adjacency slice.
        graph.freeze();
        let contexts = (0..graph.n())
            .map(|v| NodeContext {
                id: v,
                n: graph.n(),
                neighbors: graph
                    .neighbors(v)
                    .iter()
                    .map(|&(u, e)| (u, e, graphs::Graph::weight(graph, e)))
                    .collect(),
            })
            .collect();
        Network {
            contexts,
            word_budget,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.contexts.len()
    }

    /// The per-message word budget being enforced.
    pub fn word_budget(&self) -> usize {
        self.word_budget
    }

    /// The local context of vertex `v`.
    pub fn context(&self, v: NodeId) -> &NodeContext {
        &self.contexts[v]
    }

    /// Runs one program per vertex until all have terminated or `max_rounds`
    /// is reached.
    ///
    /// Takes `&self`: a run never mutates the topology, so one `Network` can
    /// drive many (including concurrent) runs without cloning.
    ///
    /// # Errors
    ///
    /// Returns an error if the program count is wrong, a program violates the
    /// CONGEST constraints (sends to a non-neighbor or exceeds the word
    /// budget), or termination does not happen within `max_rounds`.
    pub fn run<P: NodeProgram>(
        &self,
        mut programs: Vec<P>,
        max_rounds: u64,
    ) -> Result<Outcome<P>, NetworkError> {
        let n = self.contexts.len();
        if programs.len() != n {
            return Err(NetworkError::WrongProgramCount {
                got: programs.len(),
                expected: n,
            });
        }
        let mut report = RunReport::default();
        let mut done = vec![false; n];
        // Live/undelivered counters replace the former O(n) per-round scans
        // of the done flags and inboxes; the loop condition is equivalent
        // (`undelivered` counts exactly the messages swapped into `inboxes`).
        let mut live = n;
        // inboxes[v] = messages to deliver to v at the start of the next round.
        let mut inboxes: Vec<Vec<Incoming>> = vec![Vec::new(); n];

        // Initialization "round zero": no inbox, typically only initiators act.
        let mut pending: Vec<Vec<Incoming>> = vec![Vec::new(); n];
        for v in 0..n {
            let result = programs[v].init(&self.contexts[v]);
            self.collect(v, result.outgoing, &mut pending, &mut report)?;
            if result.done {
                done[v] = true;
                live -= 1;
            }
        }
        std::mem::swap(&mut inboxes, &mut pending);
        let mut undelivered = report.messages;

        while live > 0 || undelivered > 0 {
            if report.rounds >= max_rounds {
                return Err(NetworkError::RoundLimitExceeded { limit: max_rounds });
            }
            report.rounds += 1;
            for ib in pending.iter_mut() {
                ib.clear();
            }
            let sent_before = report.messages;
            for v in 0..n {
                if done[v] && inboxes[v].is_empty() {
                    continue;
                }
                inboxes[v].sort_by_key(|m| m.from);
                let result: StepResult =
                    programs[v].step(&self.contexts[v], report.rounds, &inboxes[v]);
                self.collect(v, result.outgoing, &mut pending, &mut report)?;
                if result.done && !done[v] {
                    done[v] = true;
                    live -= 1;
                }
            }
            for ib in inboxes.iter_mut() {
                ib.clear();
            }
            std::mem::swap(&mut inboxes, &mut pending);
            undelivered = report.messages - sent_before;
        }

        Ok(Outcome {
            nodes: programs,
            report,
        })
    }

    fn collect(
        &self,
        from: NodeId,
        outgoing: Vec<crate::node::Outgoing>,
        pending: &mut [Vec<Incoming>],
        report: &mut RunReport,
    ) -> Result<(), NetworkError> {
        for out in outgoing {
            let to = out.to;
            if self.contexts[from].edge_to(to).is_none() {
                return Err(NetworkError::NotANeighbor { from, to });
            }
            let words = out.message.len();
            if words > self.word_budget {
                return Err(NetworkError::MessageTooLarge {
                    from,
                    to,
                    words,
                    budget: self.word_budget,
                });
            }
            report.messages += 1;
            report.words += words as u64;
            report.max_message_words = report.max_message_words.max(words as u64);
            pending[to].push(Incoming {
                from,
                message: out.message,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Outgoing;
    use graphs::generators;

    /// A trivial program: the initiator (vertex 0) sends a token along the
    /// path; everyone halts after forwarding it.
    struct Relay {
        has_token: bool,
    }

    impl NodeProgram for Relay {
        fn init(&mut self, ctx: &NodeContext) -> StepResult {
            if ctx.id == 0 {
                self.has_token = true;
                let out = ctx
                    .neighbors
                    .iter()
                    .filter(|(v, _, _)| *v > ctx.id)
                    .map(|&(v, _, _)| Outgoing::new(v, Message::from(1u64)))
                    .collect();
                StepResult::send_and_halt(out)
            } else {
                StepResult::idle()
            }
        }

        fn step(&mut self, ctx: &NodeContext, _round: u64, inbox: &[Incoming]) -> StepResult {
            if inbox.is_empty() {
                return StepResult::idle();
            }
            self.has_token = true;
            let out = ctx
                .neighbors
                .iter()
                .filter(|(v, _, _)| *v > ctx.id)
                .map(|&(v, _, _)| Outgoing::new(v, Message::from(1u64)))
                .collect();
            StepResult::send_and_halt(out)
        }
    }

    #[test]
    fn token_relay_along_path_takes_n_minus_one_rounds() {
        let g = generators::path(6, 1);
        let net = Network::new(&g);
        let programs = (0..6).map(|_| Relay { has_token: false }).collect();
        let outcome = net.run(programs, 100).expect("relay terminates");
        assert!(outcome.nodes.iter().all(|p| p.has_token));
        assert_eq!(outcome.report.rounds, 5);
        assert_eq!(outcome.report.messages, 5);
        assert_eq!(outcome.report.max_message_words, 1);
    }

    #[test]
    fn wrong_program_count_is_rejected() {
        let g = generators::path(3, 1);
        let net = Network::new(&g);
        let programs: Vec<Relay> = vec![];
        let err = net.run(programs, 10).unwrap_err();
        assert!(matches!(
            err,
            NetworkError::WrongProgramCount {
                expected: 3,
                got: 0
            }
        ));
    }

    struct TooChatty;
    impl NodeProgram for TooChatty {
        fn init(&mut self, ctx: &NodeContext) -> StepResult {
            if ctx.id == 0 {
                let msg = Message::new(vec![0; 64]);
                StepResult::send_and_halt(vec![Outgoing::new(ctx.neighbors[0].0, msg)])
            } else {
                StepResult::halt()
            }
        }
        fn step(&mut self, _: &NodeContext, _: u64, _: &[Incoming]) -> StepResult {
            StepResult::halt()
        }
    }

    #[test]
    fn oversized_messages_are_rejected() {
        let g = generators::path(2, 1);
        let net = Network::new(&g);
        let err = net.run(vec![TooChatty, TooChatty], 10).unwrap_err();
        assert!(matches!(
            err,
            NetworkError::MessageTooLarge { words: 64, .. }
        ));
    }

    struct SendsToStranger;
    impl NodeProgram for SendsToStranger {
        fn init(&mut self, ctx: &NodeContext) -> StepResult {
            if ctx.id == 0 {
                StepResult::send_and_halt(vec![Outgoing::new(2, Message::empty())])
            } else {
                StepResult::halt()
            }
        }
        fn step(&mut self, _: &NodeContext, _: u64, _: &[Incoming]) -> StepResult {
            StepResult::halt()
        }
    }

    #[test]
    fn sending_to_non_neighbor_is_rejected() {
        let g = generators::path(3, 1); // 0-1-2: vertex 2 is not adjacent to 0.
        let net = Network::new(&g);
        let programs = vec![SendsToStranger, SendsToStranger, SendsToStranger];
        let err = net.run(programs, 10).unwrap_err();
        assert_eq!(err, NetworkError::NotANeighbor { from: 0, to: 2 });
    }

    struct NeverHalts;
    impl NodeProgram for NeverHalts {
        fn step(&mut self, _: &NodeContext, _: u64, _: &[Incoming]) -> StepResult {
            StepResult::idle()
        }
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = generators::path(2, 1);
        let net = Network::new(&g);
        let err = net.run(vec![NeverHalts, NeverHalts], 7).unwrap_err();
        assert_eq!(err, NetworkError::RoundLimitExceeded { limit: 7 });
    }

    #[test]
    fn error_display_is_informative() {
        let e = NetworkError::NotANeighbor { from: 1, to: 9 };
        assert!(e.to_string().contains("non-neighbor"));
        let e = NetworkError::MessageTooLarge {
            from: 0,
            to: 1,
            words: 8,
            budget: 3,
        };
        assert!(e.to_string().contains("budget"));
        let e = NetworkError::RoundLimitExceeded { limit: 5 };
        assert!(e.to_string().contains('5'));
        let e = NetworkError::WrongProgramCount {
            got: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("programs"));
    }

    #[test]
    fn word_budget_is_configurable() {
        let g = generators::path(2, 1);
        let net = Network::with_word_budget(&g, 8);
        assert_eq!(net.word_budget(), 8);
        assert_eq!(net.n(), 2);
        assert_eq!(net.context(0).n, 2);
    }
}
