//! Error type for the SPI library.

use std::fmt;

use spi_dataflow::{ActorId, DataflowError, EdgeId};
use spi_platform::PlatformError;
use spi_sched::SchedError;

/// Errors from building or running an SPI system.
#[derive(Debug)]
#[non_exhaustive]
pub enum SpiError {
    /// An underlying dataflow analysis failed.
    Dataflow(DataflowError),
    /// Scheduling or synchronization analysis failed.
    Sched(SchedError),
    /// The platform simulation failed.
    Platform(PlatformError),
    /// An actor has no registered implementation.
    MissingActorImpl(ActorId),
    /// Firings of one actor were assigned to different processors; SPI
    /// channels are point-to-point per edge, so each actor must live on
    /// exactly one processor (model data-parallel stages as distinct
    /// actors, as the paper's applications do).
    ActorSplitAcrossProcessors(ActorId),
    /// A run completed but an actor implementation reported a failure.
    ActorFailed {
        /// The diagnostic recorded during simulation.
        message: String,
    },
    /// A message failed to decode (wrong edge id, truncated header…).
    Message {
        /// What went wrong.
        reason: String,
    },
    /// A static edge produced a payload whose size does not match its
    /// declared rate × token size.
    StaticSizeMismatch {
        /// The edge.
        edge: EdgeId,
        /// Bytes the actor produced.
        got: usize,
        /// Bytes the static rate requires.
        expected: usize,
    },
    /// A dynamic edge produced a payload exceeding its VTS bound.
    VtsBoundExceeded {
        /// The edge.
        edge: EdgeId,
        /// Bytes the actor produced.
        got: usize,
        /// The declared bound.
        bound: usize,
    },
    /// The build's analysis — or, when the graph could not be
    /// scheduled, the graph-level passes — found error-severity
    /// diagnostics; the system was not built. Each diagnostic explains
    /// one defect.
    Analysis {
        /// Error-severity diagnostics, most severe first.
        diagnostics: Vec<spi_analyze::Diagnostic>,
    },
}

impl fmt::Display for SpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiError::Dataflow(e) => write!(f, "dataflow analysis failed: {e}"),
            SpiError::Sched(e) => write!(f, "scheduling failed: {e}"),
            SpiError::Platform(e) => write!(f, "platform simulation failed: {e}"),
            SpiError::MissingActorImpl(a) => {
                write!(f, "actor {a} has no registered implementation")
            }
            SpiError::ActorSplitAcrossProcessors(a) => {
                write!(f, "actor {a} has firings on multiple processors")
            }
            SpiError::ActorFailed { message } => {
                write!(f, "actor implementation failed: {message}")
            }
            SpiError::Message { reason } => write!(f, "message decode failed: {reason}"),
            SpiError::StaticSizeMismatch {
                edge,
                got,
                expected,
            } => write!(
                f,
                "static edge {edge} produced {got} bytes, rate requires {expected}"
            ),
            SpiError::VtsBoundExceeded { edge, got, bound } => write!(
                f,
                "dynamic edge {edge} produced {got} bytes, exceeding the VTS bound {bound}"
            ),
            SpiError::Analysis { diagnostics } => {
                write!(f, "static analysis found {} error(s):", diagnostics.len())?;
                for d in diagnostics {
                    write!(f, "\n{}", d.render_human())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SpiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpiError::Dataflow(e) => Some(e),
            SpiError::Sched(e) => Some(e),
            SpiError::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataflowError> for SpiError {
    fn from(e: DataflowError) -> Self {
        SpiError::Dataflow(e)
    }
}

impl From<SchedError> for SpiError {
    fn from(e: SchedError) -> Self {
        SpiError::Sched(e)
    }
}

impl From<PlatformError> for SpiError {
    fn from(e: PlatformError) -> Self {
        SpiError::Platform(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_chain_sources() {
        use std::error::Error;
        let e: SpiError = DataflowError::EmptyGraph.into();
        assert!(e.source().is_some());
        let e: SpiError = SchedError::NoProcessors.into();
        assert!(e.to_string().contains("scheduling"));
        let e = SpiError::MissingActorImpl(ActorId(3));
        assert!(e.source().is_none());
        assert!(e.to_string().contains("a3"));
    }
}
