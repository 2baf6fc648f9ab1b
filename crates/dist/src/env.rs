//! Hardened parsing of the distributed layer's environment variables
//! (`PBP_RANK`, `PBP_WORLD`, `PBP_NET_FAULTS`),
//! mirroring the `PBP_THREADS` / `PBP_SIMD` treatment in `pbp-tensor`:
//! an invalid value is ignored with a one-time warning and the caller's
//! fallback applies, instead of a panic or a silently wrong rank.

use pbp_pipeline::FaultPlan;
use std::sync::Once;

/// Reads `var` and runs it through `parse`. Unset returns `None`; a
/// set-but-invalid value warns once on stderr (via `warning`, with
/// `expect` describing the accepted form) and also returns `None`, so
/// the caller's explicit flag or default applies.
fn env_parsed<T>(
    var: &str,
    warning: &'static Once,
    expect: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    match std::env::var(var) {
        Ok(raw) => {
            let parsed = parse(&raw);
            if parsed.is_none() {
                warning.call_once(|| {
                    eprintln!("warning: ignoring invalid {var}={raw:?} (want {expect})");
                });
            }
            parsed
        }
        Err(_) => None,
    }
}

/// Parses a `PBP_RANK` value: a non-negative integer (`0`-based).
fn parse_rank(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok()
}

/// Parses a `PBP_WORLD` value: a positive integer (a world of zero
/// ranks cannot run anything).
fn parse_world(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

static RANK_WARNING: Once = Once::new();
static WORLD_WARNING: Once = Once::new();
static FAULTS_WARNING: Once = Once::new();

/// Reads `PBP_RANK` from the environment. Unset returns `None`; an
/// invalid value warns once on stderr and also returns `None`, so the
/// caller's explicit `--rank` flag or default applies.
pub fn env_rank() -> Option<usize> {
    env_parsed(
        "PBP_RANK",
        &RANK_WARNING,
        "a non-negative integer",
        parse_rank,
    )
}

/// Reads `PBP_WORLD` from the environment. Unset returns `None`; an
/// invalid or zero value warns once on stderr and returns `None`.
pub fn env_world() -> Option<usize> {
    env_parsed(
        "PBP_WORLD",
        &WORLD_WARNING,
        "a positive integer",
        parse_world,
    )
}

/// Reads the `PBP_NET_FAULTS` fault script — link clauses for the wire,
/// `rank:<r>:crash@<k>` to kill rank `r` as it turns to backward `k`
/// (see [`FaultPlan::parse`] for the grammar). Unset returns `None`; an
/// invalid spec warns once with the parser's diagnosis and returns
/// `None`, so the run proceeds un-faulted.
pub fn env_net_faults() -> Option<FaultPlan> {
    env_parsed(
        "PBP_NET_FAULTS",
        &FAULTS_WARNING,
        "a fault script",
        |raw| match FaultPlan::parse(raw) {
            Ok(plan) => Some(plan),
            Err(msg) => {
                eprintln!("warning: PBP_NET_FAULTS rejected: {msg}");
                None
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rank_accepts_non_negative_integers_only() {
        assert_eq!(parse_rank("0"), Some(0));
        assert_eq!(parse_rank("3"), Some(3));
        assert_eq!(parse_rank("  12 \n"), Some(12));
        assert_eq!(parse_rank("-1"), None);
        assert_eq!(parse_rank("two"), None);
        assert_eq!(parse_rank(""), None);
        assert_eq!(parse_rank("1.5"), None);
        assert_eq!(parse_rank("0x2"), None);
    }

    #[test]
    fn parse_world_accepts_positive_integers_only() {
        assert_eq!(parse_world("1"), Some(1));
        assert_eq!(parse_world(" 8 "), Some(8));
        assert_eq!(parse_world("0"), None, "an empty world cannot run");
        assert_eq!(parse_world("-4"), None);
        assert_eq!(parse_world("four"), None);
        assert_eq!(parse_world(""), None);
        assert_eq!(parse_world("2.0"), None);
    }
}
