//! Error types for dataflow graph construction and analysis.

use std::fmt;

use crate::graph::{ActorId, EdgeId};

/// Errors produced while building or analyzing dataflow graphs.
///
/// Every fallible public function in this crate returns this type so that
/// downstream crates can route all modeling failures through one `?` chain.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataflowError {
    /// An actor id referenced an actor that does not exist in the graph.
    UnknownActor(ActorId),
    /// An edge id referenced an edge that does not exist in the graph.
    UnknownEdge(EdgeId),
    /// A port rate of zero was supplied; SDF rates must be positive.
    ZeroRate {
        /// Edge on which the zero rate was declared.
        edge: EdgeId,
    },
    /// The balance equations have no positive integer solution.
    Inconsistent {
        /// The edge whose balance equation first contradicted the others.
        edge: EdgeId,
        /// The undirected cycle `edge` closes through the solver's
        /// spanning tree: from the tree paths' meeting point down to
        /// `edge`'s source, then from its destination back up.
        cycle: Vec<ActorId>,
        /// The firing ratio of `edge`'s destination that the spanning
        /// tree fixes, relative to the first actor of its component, as
        /// `(numerator, denominator)` in lowest terms.
        assigned: (u64, u64),
        /// The ratio `edge`'s own rates imply for its destination:
        /// the source's ratio × produce / consume.
        implied: (u64, u64),
    },
    /// The graph contains a dynamic-rate port where a pure-SDF graph is
    /// required (run VTS conversion first).
    DynamicRate {
        /// The offending edge.
        edge: EdgeId,
    },
    /// No admissible schedule exists: the graph deadlocks because some
    /// directed cycle has too few initial tokens.
    Deadlock {
        /// Actors that never became fireable before the simulation stalled.
        starved: Vec<ActorId>,
    },
    /// A dynamic port was declared without the upper bound VTS requires.
    MissingRateBound {
        /// The offending edge.
        edge: EdgeId,
    },
    /// The graph has no actors, which makes the requested analysis vacuous.
    EmptyGraph,
    /// Arithmetic overflow while solving balance equations (rates or the
    /// repetition vector exceeded the supported magnitude).
    Overflow,
    /// A DIF-format document failed to parse.
    Parse {
        /// 1-based line number of the problem.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::UnknownActor(a) => write!(f, "unknown actor id {a}"),
            DataflowError::UnknownEdge(e) => write!(f, "unknown edge id {e}"),
            DataflowError::ZeroRate { edge } => {
                write!(
                    f,
                    "zero token rate declared on edge {edge}; SDF rates must be positive"
                )
            }
            DataflowError::Inconsistent { edge, .. } => {
                write!(f, "balance equations are inconsistent at edge {edge}")
            }
            DataflowError::DynamicRate { edge } => write!(
                f,
                "edge {edge} has a dynamic rate; apply VTS conversion before SDF analysis"
            ),
            DataflowError::Deadlock { starved } => {
                write!(f, "graph deadlocks; {} actor(s) starved", starved.len())
            }
            DataflowError::MissingRateBound { edge } => {
                write!(
                    f,
                    "dynamic port on edge {edge} lacks the upper bound required by VTS"
                )
            }
            DataflowError::EmptyGraph => write!(f, "graph contains no actors"),
            DataflowError::Overflow => {
                write!(f, "arithmetic overflow while solving balance equations")
            }
            DataflowError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DataflowError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataflowError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<DataflowError> = vec![
            DataflowError::UnknownActor(ActorId(3)),
            DataflowError::UnknownEdge(EdgeId(7)),
            DataflowError::ZeroRate { edge: EdgeId(0) },
            DataflowError::Inconsistent {
                edge: EdgeId(1),
                cycle: vec![ActorId(0), ActorId(1)],
                assigned: (1, 1),
                implied: (2, 3),
            },
            DataflowError::DynamicRate { edge: EdgeId(2) },
            DataflowError::Deadlock {
                starved: vec![ActorId(0)],
            },
            DataflowError::MissingRateBound { edge: EdgeId(4) },
            DataflowError::EmptyGraph,
            DataflowError::Overflow,
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "message: {msg}");
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataflowError>();
    }
}
