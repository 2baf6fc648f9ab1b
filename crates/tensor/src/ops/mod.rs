//! Tensor operations, grouped by kind.
//!
//! Most operations are exposed as inherent methods on [`crate::Tensor`];
//! free functions live here when they involve auxiliary buffers (im2col) or
//! several tensors symmetrically (`axpy`, the LWP extrapolation `lerp_into`).

mod conv;
mod elementwise;
mod gemm;
mod matmul;
mod pool;
mod reduce;
pub mod reference;
pub mod simd;

pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_input, conv2d_backward_weight, conv2d_batched,
    conv2d_direct, conv2d_direct_backward_input, conv2d_direct_backward_weight, im2col, Conv2dSpec,
};
pub use elementwise::{axpy, lerp_into};
pub use gemm::{gemm_nn, gemm_nt, gemm_tn};
pub use matmul::matmul_tn_acc;
pub use pool::{avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, PoolSpec};
