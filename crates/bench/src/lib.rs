//! # pbp-bench
//!
//! Experiment harness for the reproduction of *"Pipelined Backpropagation
//! at Scale"* (Kosson et al., MLSYS 2021). Each binary under `src/bin/`
//! regenerates one table, figure or ablation of the paper (see `DESIGN.md`
//! for the index), plus the multi-process `chaos_dist` soak; this library
//! holds the shared machinery: experiment budgets, the method-comparison
//! runner, and plain-text table/heatmap rendering. Correctness is decided
//! by `cargo test` and speed by the `benchmark/` ledger, not here.
//!
//! All experiments are deterministic given their seeds. Budgets scale with
//! the `PBP_SCALE` environment variable (e.g. `PBP_SCALE=0.25` for a quick
//! pass, `PBP_SCALE=2` for tighter statistics).

pub mod families;
pub mod fmt;
pub mod suite;

pub use families::{cifar_data, family_data, imagenet_data, Family};
pub use fmt::{print_heatmap, print_table, Table};
pub use suite::{mean_std, Budget, MethodSpec, RunOutcome};
