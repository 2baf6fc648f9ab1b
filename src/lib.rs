//! # pipelined-backprop
//!
//! A from-scratch Rust reproduction of *"Pipelined Backpropagation at
//! Scale: Training Large Models without Batches"* (Kosson, Chiley,
//! Venigalla, Hestness, Köster — MLSYS 2021, arXiv:2003.11666).
//!
//! The paper replaces batch parallelism with **fine-grained pipeline
//! parallelism**: every layer is its own pipeline stage, each stage
//! processes one sample at a time, and weights update without draining the
//! pipeline (Pipelined Backpropagation). That removes the fill/drain
//! utilization penalty `N/(N+2S)` but introduces **stale gradients** and
//! **inconsistent weights**. The paper's contributions — **Spike
//! Compensation** (SC) and **Linear Weight Prediction** (LWP) — counteract
//! the staleness; combined, they train CIFAR/ImageNet-class networks at
//! update size one with no hyperparameter tuning.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`tensor`] | `pbp-tensor` | f32 tensor substrate (matmul, conv2d, pooling) |
//! | [`nn`] | `pbp-nn` | layers, VGG/ResNet architectures, stage partitioning |
//! | [`data`] | `pbp-data` | deterministic synthetic CIFAR/ImageNet stand-ins |
//! | [`optim`] | `pbp-optim` | SGDM, SC, LWP, SpecTrain, hyperparameter scaling |
//! | [`pipeline`] | `pbp-pipeline` | schedule executor (PB, fill-and-drain, 1F1B, 2BP), threaded runtime |
//! | [`quadratic`] | `pbp-quadratic` | convex-quadratic delay analysis (Figures 4-7) |
//! | [`snapshot`] | `pbp-snapshot` | fault-tolerant training snapshots, bit-identical resume |
//!
//! # Quickstart
//!
//! Train a small network with pipelined backpropagation plus the paper's
//! combined mitigation:
//!
//! ```
//! use pipelined_backprop::data::blobs;
//! use pipelined_backprop::nn::models::mlp;
//! use pipelined_backprop::optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
//! use pipelined_backprop::pipeline::{ScheduledConfig, ScheduledTrainer, TrainEngine};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = mlp(&[2, 16, 16, 3], &mut rng);
//!
//! // Scale batch-8 reference hyperparameters to update size one (Eq. 9).
//! let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1);
//! let config = ScheduledConfig::pb(LrSchedule::constant(hp))
//!     .with_mitigation(Mitigation::lwpv_scd());
//!
//! let data = blobs(3, 40, 0.4, 1);
//! let (train, val) = data.split(0.25);
//! let mut trainer = ScheduledTrainer::new(net, config);
//! let report = trainer.run(&train, &val, 5, 42);
//! assert!(report.final_val_acc() > 0.5);
//! ```

pub use pbp_data as data;
pub use pbp_nn as nn;
pub use pbp_optim as optim;
pub use pbp_pipeline as pipeline;
pub use pbp_quadratic as quadratic;
pub use pbp_snapshot as snapshot;
pub use pbp_tensor as tensor;
