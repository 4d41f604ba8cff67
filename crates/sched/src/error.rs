//! Error types for multiprocessor scheduling and synchronization analysis.

use std::fmt;

use spi_dataflow::{DataflowError, Firing};

/// Errors produced by scheduling, IPC-graph and sync-graph analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// An underlying dataflow analysis failed.
    Dataflow(DataflowError),
    /// A firing was not assigned to any processor.
    UnassignedFiring(Firing),
    /// A processor index exceeded the declared processor count.
    ProcessorOutOfRange {
        /// Offending processor index.
        proc: usize,
        /// Number of processors declared.
        count: usize,
    },
    /// The requested processor count was zero.
    NoProcessors,
    /// The synchronization graph, or the precedence graph a schedule is
    /// derived from, contains a zero-delay cycle, so the self-timed
    /// execution deadlocks.
    ZeroDelayCycle,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Dataflow(e) => write!(f, "dataflow analysis failed: {e}"),
            SchedError::UnassignedFiring(x) => write!(f, "firing {x} has no processor"),
            SchedError::ProcessorOutOfRange { proc, count } => {
                write!(f, "processor {proc} out of range (count {count})")
            }
            SchedError::NoProcessors => write!(f, "processor count must be positive"),
            SchedError::ZeroDelayCycle => {
                write!(f, "zero-delay cycle in the schedule (deadlock)")
            }
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Dataflow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataflowError> for SchedError {
    fn from(e: DataflowError) -> Self {
        SchedError::Dataflow(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SchedError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SchedError::ProcessorOutOfRange { proc: 5, count: 2 };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('2'));
        let d: SchedError = DataflowError::EmptyGraph.into();
        assert!(d.to_string().contains("dataflow"));
    }

    #[test]
    fn source_chains_to_dataflow() {
        use std::error::Error;
        let e: SchedError = DataflowError::EmptyGraph.into();
        assert!(e.source().is_some());
        assert!(SchedError::NoProcessors.source().is_none());
    }
}
