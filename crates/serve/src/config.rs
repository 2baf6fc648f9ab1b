//! Serving configuration and environment knobs.
//!
//! Two knobs mirror the `PBP_THREADS`/`PBP_SIMD` convention — invalid
//! values are ignored with a one-time warning rather than panicking, so a
//! typo in a deployment script degrades to the defaults instead of taking
//! the server down:
//!
//! * `PBP_SERVE_BATCH` — batch budget (integer ≥ 1). The batcher closes a
//!   batch as soon as it holds this many requests.
//! * `PBP_SERVE_DEADLINE_US` — coalescing deadline in microseconds
//!   (integer ≥ 0). The batcher closes a batch once the oldest queued
//!   request has waited this long, full or not. `0` disables coalescing:
//!   every batch is whatever is already queued when the batcher looks.
//! * `PBP_SERVE_QUEUE` — pending-request queue bound (integer ≥ 1). A
//!   submission that finds the queue full is rejected immediately with a
//!   typed `Overloaded` error instead of growing the backlog without
//!   limit.

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
    /// even if it is not full.
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

/// Parses a `PBP_SERVE_BATCH` value. Rejects (returns `None` for)
/// anything that is not an integer ≥ 1 — a zero budget could never
/// dispatch a batch.
fn parse_batch(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Parses a `PBP_SERVE_DEADLINE_US` value. Any integer ≥ 0 is valid:
/// zero means "no coalescing wait".
fn parse_deadline_us(raw: &str) -> Option<u64> {
    raw.trim().parse::<u64>().ok()
}

/// Parses a `PBP_SERVE_QUEUE` value. Rejects anything that is not an
/// integer ≥ 1 — a zero-slot queue could never accept a request.
fn parse_queue(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// One-time warning gates for invalid knob values: clients can rebuild
/// configs at any rate, and repeating the warning would flood stderr.
static BATCH_WARNING: std::sync::Once = std::sync::Once::new();
static DEADLINE_WARNING: std::sync::Once = std::sync::Once::new();
static QUEUE_WARNING: std::sync::Once = std::sync::Once::new();

impl ServeConfig {
    /// Builds a config from `PBP_SERVE_BATCH`, `PBP_SERVE_DEADLINE_US` and
    /// `PBP_SERVE_QUEUE`, falling back to the defaults (with a one-time
    /// warning) for unset or invalid values.
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Ok(raw) = std::env::var("PBP_SERVE_BATCH") {
            match parse_batch(&raw) {
                Some(n) => cfg.max_batch = n,
                None => BATCH_WARNING.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid PBP_SERVE_BATCH={raw:?} \
                         (expected an integer >= 1); using {DEFAULT_MAX_BATCH}"
                    );
                }),
            }
        }
        if let Ok(raw) = std::env::var("PBP_SERVE_DEADLINE_US") {
            match parse_deadline_us(&raw) {
                Some(us) => cfg.deadline = Duration::from_micros(us),
                None => DEADLINE_WARNING.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid PBP_SERVE_DEADLINE_US={raw:?} \
                         (expected an integer >= 0); using {DEFAULT_DEADLINE_US}"
                    );
                }),
            }
        }
        if let Ok(raw) = std::env::var("PBP_SERVE_QUEUE") {
            match parse_queue(&raw) {
                Some(n) => cfg.queue = n,
                None => QUEUE_WARNING.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid PBP_SERVE_QUEUE={raw:?} \
                         (expected an integer >= 1); using {DEFAULT_QUEUE}"
                    );
                }),
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_batch("1"), Some(1));
        assert_eq!(parse_batch(" 64 "), Some(64));
        assert_eq!(parse_batch("0"), None);
        assert_eq!(parse_batch("-3"), None);
        assert_eq!(parse_batch("4.5"), None);
        assert_eq!(parse_batch("lots"), None);
        assert_eq!(parse_batch(""), None);
    }

    #[test]
    fn deadline_parsing_accepts_zero() {
        assert_eq!(parse_deadline_us("0"), Some(0));
        assert_eq!(parse_deadline_us("2000"), Some(2000));
        assert_eq!(parse_deadline_us(" 150 "), Some(150));
        assert_eq!(parse_deadline_us("-1"), None);
        assert_eq!(parse_deadline_us("2ms"), None);
        assert_eq!(parse_deadline_us(""), None);
    }

    #[test]
    fn queue_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_queue("1"), Some(1));
        assert_eq!(parse_queue(" 4096 "), Some(4096));
        assert_eq!(parse_queue("0"), None);
        assert_eq!(parse_queue("-8"), None);
        assert_eq!(parse_queue("deep"), None);
        assert_eq!(parse_queue(""), None);
    }

    #[test]
    fn default_config_matches_constants() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.max_batch, DEFAULT_MAX_BATCH);
        assert_eq!(cfg.deadline, Duration::from_micros(DEFAULT_DEADLINE_US));
        assert_eq!(cfg.queue, DEFAULT_QUEUE);
    }

    #[test]
    fn from_env_falls_back_on_invalid_values() {
        // Env mutation is process-global, so this test owns both knobs for
        // its whole body and restores them before returning.
        let saved_batch = std::env::var("PBP_SERVE_BATCH").ok();
        let saved_deadline = std::env::var("PBP_SERVE_DEADLINE_US").ok();
        let saved_queue = std::env::var("PBP_SERVE_QUEUE").ok();

        std::env::set_var("PBP_SERVE_BATCH", "17");
        std::env::set_var("PBP_SERVE_DEADLINE_US", "350");
        std::env::set_var("PBP_SERVE_QUEUE", "9");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.max_batch, 17);
        assert_eq!(cfg.deadline, Duration::from_micros(350));
        assert_eq!(cfg.queue, 9);

        std::env::set_var("PBP_SERVE_BATCH", "zero");
        std::env::set_var("PBP_SERVE_DEADLINE_US", "-9");
        std::env::set_var("PBP_SERVE_QUEUE", "0");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.max_batch, DEFAULT_MAX_BATCH);
        assert_eq!(
            cfg.deadline,
            Duration::from_micros(DEFAULT_DEADLINE_US),
            "invalid deadline falls back"
        );
        assert_eq!(cfg.queue, DEFAULT_QUEUE, "invalid queue bound falls back");

        match saved_batch {
            Some(v) => std::env::set_var("PBP_SERVE_BATCH", v),
            None => std::env::remove_var("PBP_SERVE_BATCH"),
        }
        match saved_deadline {
            Some(v) => std::env::set_var("PBP_SERVE_DEADLINE_US", v),
            None => std::env::remove_var("PBP_SERVE_DEADLINE_US"),
        }
        match saved_queue {
            Some(v) => std::env::set_var("PBP_SERVE_QUEUE", v),
            None => std::env::remove_var("PBP_SERVE_QUEUE"),
        }
    }
}
