//! # pbp-bench
//!
//! The paper's evaluation as one checked registry. Every table, figure
//! and ablation of *"Pipelined Backpropagation at Scale"* (Kosson et al.,
//! MLSYS 2021) is a row of [`EXPERIMENTS`]: how to run it, and the paper's
//! claim about the result as a predicate. One binary drives them —
//! `pbp-experiments list | <name>… | --all [--record] | --check` — and
//! `tests/paper_claims.rs` at the workspace root holds every committed
//! `results/<name>.txt` record to its claim. The crate's other binary is
//! the multi-process `chaos_dist` soak. Correctness is decided by
//! `cargo test` and speed by the `benchmark/` ledger, not here.
//!
//! All experiments are deterministic given their seeds. `PBP_SCALE`
//! (e.g. `0.25` for a quick pass, `2` for tighter statistics) sizes a run;
//! records are made at scale 1.

pub mod experiments;
pub mod families;
pub mod report;
pub mod suite;

pub use experiments::{Experiment, EXPERIMENTS};
pub use report::{results_dir, RecordError, Report, Table};
pub use suite::Scale;
