//! Typed serving errors.

use std::fmt;

/// Why a request did not produce logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The server is shutting down (or already gone): the request was
    /// rejected at submission, or was in flight when the reply pipeline
    /// was torn down.
    ShuttingDown,
    /// The worker evaluating this request's batch panicked (for example,
    /// on an input whose shape the network rejects). The worker survives
    /// and keeps serving later batches.
    WorkerPanicked,
    /// The pending-request queue is full ([`crate::ServeConfig::queue`]
    /// slots): the request was rejected at submission without queueing.
    /// The caller owns the retry policy — back off and resubmit, or shed
    /// the load.
    Overloaded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerPanicked => {
                write!(f, "worker panicked while evaluating this request's batch")
            }
            ServeError::Overloaded => {
                write!(f, "server overloaded: pending-request queue is full")
            }
        }
    }
}

impl std::error::Error for ServeError {}
