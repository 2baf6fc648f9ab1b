//! # pbp-nn
//!
//! Neural-network substrate for the reproduction of *"Pipelined
//! Backpropagation at Scale"* (Kosson et al., MLSYS 2021): layers with
//! explicit forward/backward passes, a stage-partitioned [`Network`]
//! container, the softmax cross-entropy loss, and the paper's architectures
//! (VGG11/13/16 and pre-activation ResNet20/32/44/56/110 plus an
//! ImageNet-style ResNet50 analogue).
//!
//! ## Why no autograd?
//!
//! Fine-grained pipelined backpropagation assigns every layer (or small
//! fused group of layers) to its own pipeline stage. Each stage must be able
//! to run its forward and backward transformations *independently*, against
//! *different weight versions*, with multiple samples in flight. A taped
//! autograd hides exactly the state this needs to expose, so layers here
//! implement [`Layer::forward`]/[`Layer::backward`] explicitly and stash
//! per-sample activations in an internal FIFO — mirroring how the paper's
//! GProp framework stores activations per in-flight input.
//!
//! ## Multi-lane activations
//!
//! Residual networks are expressed as a *linear chain* of stages operating
//! on a small stack of tensors ("lanes"): [`layers::Dup`] forks the
//! activation onto a skip lane, ordinary layers transform the top lane, and
//! [`layers::AddLanes`] implements the sum nodes that the paper also treats
//! as pipeline stages.
//!
//! # Example
//!
//! ```
//! use pbp_nn::models::mlp;
//! use pbp_nn::loss::softmax_cross_entropy;
//! use pbp_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = mlp(&[4, 16, 3], &mut rng);
//! let x = Tensor::ones(&[1, 4]);
//! let logits = net.forward(&x);
//! let (loss, grad) = pbp_nn::loss::softmax_cross_entropy(&logits, &[2]);
//! net.backward(&grad);
//! assert!(loss > 0.0);
//! ```

// Numeric kernels in this crate iterate with explicit indices when several
// parallel buffers are walked in lockstep; clippy's iterator-chain
// suggestion obscures the stride arithmetic there.
#![allow(clippy::needless_range_loop)]

pub mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod network;
pub mod snapshot;

pub use layer::{LaneStack, Layer, ParamStep};
pub use network::{Network, Stage};
