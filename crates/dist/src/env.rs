//! Hardened parsing of `PBP_NET_FAULTS`, the fault script the launcher
//! hands its children, mirroring the `PBP_THREADS` / `PBP_SIMD` treatment
//! in `pbp-tensor`: an invalid value is ignored with a one-time warning
//! and the run proceeds un-faulted, instead of a panic.

use pbp_pipeline::FaultPlan;
use std::sync::Once;

static FAULTS_WARNING: Once = Once::new();

/// Reads the `PBP_NET_FAULTS` fault script — link clauses for the wire,
/// `rank:<r>:crash@<k>` to kill rank `r` as it turns to backward `k`
/// (see [`FaultPlan::parse`] for the grammar). Unset returns `None`; an
/// invalid spec warns once with the parser's diagnosis and returns
/// `None`, so the run proceeds un-faulted.
pub fn env_net_faults() -> Option<FaultPlan> {
    let raw = std::env::var("PBP_NET_FAULTS").ok()?;
    match FaultPlan::parse(&raw) {
        Ok(plan) => Some(plan),
        Err(msg) => {
            FAULTS_WARNING.call_once(|| {
                eprintln!("warning: ignoring invalid PBP_NET_FAULTS={raw:?} ({msg})");
            });
            None
        }
    }
}
