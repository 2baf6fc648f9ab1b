//! # pbp-tensor
//!
//! A minimal, dependency-light CPU tensor substrate used by the
//! pipelined-backprop reproduction of *"Pipelined Backpropagation at Scale"*
//! (Kosson et al., MLSYS 2021).
//!
//! The crate provides a contiguous, row-major `f32` [`Tensor`] with exactly
//! the operations the neural-network and pipeline crates need: elementwise
//! arithmetic, matrix multiplication, 2-D convolution (direct kernels, and
//! an im2col lowering the tests hold them to), pooling,
//! reductions and seeded random initialization. It deliberately avoids
//! autograd — backward passes in this project are explicit per-layer
//! functions, because fine-grained pipelined backpropagation needs direct
//! control over when and with which weights each stage runs its forward and
//! backward transformations.
//!
//! # Example
//!
//! ```
//! use pbp_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), pbp_tensor::TensorError>(())
//! ```

// Numeric kernels in this crate iterate with explicit indices when several
// parallel buffers are walked in lockstep; clippy's iterator-chain
// suggestion obscures the stride arithmetic there.
#![allow(clippy::needless_range_loop)]

mod error;
mod grad;
mod init;
mod tensor;

pub mod ops;
pub mod pool;

pub use error::TensorError;
pub use grad::GradView;
pub use init::{he_normal, normal, uniform, xavier_uniform};
pub use tensor::Tensor;

/// Convenience alias for results returned by fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
