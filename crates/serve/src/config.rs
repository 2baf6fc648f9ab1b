//! Serving configuration: the batch budget, the coalescing deadline and
//! the pending-request queue bound a [`crate::Server`] starts with.

use std::time::Duration;

/// Default batch budget: matches the batch-64 lane of the eval benchmarks,
/// past which wide GEMMs see diminishing returns on CPU.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Default coalescing deadline in microseconds. Two milliseconds is long
/// enough to fill a batch under load and short enough to be invisible next
/// to a CNN forward pass.
pub const DEFAULT_DEADLINE_US: u64 = 2_000;

/// Default pending-request queue bound: deep enough that transient bursts
/// (many batch budgets' worth) queue instead of bouncing, shallow enough
/// that a stalled worker pool surfaces as `Overloaded` errors rather than
/// unbounded memory growth.
pub const DEFAULT_QUEUE: usize = 1_024;

/// Configuration for a [`crate::Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Dispatch a batch as soon as it holds this many requests (≥ 1).
    pub max_batch: usize,
    /// Dispatch a batch once its oldest request has waited this long,
    /// even if it is not full. Zero dispatches every request on its own.
    pub deadline: Duration,
    /// Pending-request queue bound (≥ 1): submissions beyond this many
    /// queued requests fail fast with [`crate::ServeError::Overloaded`].
    pub queue: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: DEFAULT_MAX_BATCH,
            deadline: Duration::from_micros(DEFAULT_DEADLINE_US),
            queue: DEFAULT_QUEUE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_constants() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.max_batch, DEFAULT_MAX_BATCH);
        assert_eq!(cfg.deadline, Duration::from_micros(DEFAULT_DEADLINE_US));
        assert_eq!(cfg.queue, DEFAULT_QUEUE);
    }
}
