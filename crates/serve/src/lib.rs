//! High-throughput inference serving over trained networks.
//!
//! The paper's premise is that utilization comes from restructuring
//! execution, not from growing batch sizes at the expense of semantics.
//! This crate applies the same idea to inference: a [`Server`] owns one or
//! more trained [`Network`]s and an ingress queue of single-sample
//! requests; a batcher thread coalesces queued requests into batches — up
//! to a batch budget or a latency deadline, whichever comes first — and a
//! pool of worker threads runs each batch through one forward pass in eval
//! mode.
//!
//! # Why dynamic batching is semantically free here
//!
//! Every kernel in `pbp-tensor` keeps the bit-exact accumulation contract
//! (see `pbp_tensor::ops::gemm`): each output element is one fused
//! multiply-add chain whose value is independent of dispatch path, SIMD
//! tier, thread count — and of how many samples share the forward pass: a
//! convolution is the direct batch-of-one kernel run over each image of
//! the batch in turn (`pbp_tensor::ops::conv2d_direct`), the same code a
//! training step runs. Eval mode makes every layer act row-wise, and
//! makes it compute the output only: normalization and ReLU rewrite the
//! activation in place, nothing is stashed for a backward that will not
//! come (`pbp_nn::Layer::set_training`). So the reply
//! for a given input tensor is **bit-identical** no matter which worker
//! ran it, which requests it shared a batch with, or how the coalescing
//! timer happened to fire. Batch composition is purely a throughput knob,
//! which is exactly what lets the batcher trade latency for throughput
//! without changing a single reply byte.
//!
//! # Co-scheduling
//!
//! Worker threads park one kernel-pool core each via
//! `pbp_tensor::pool::reserve` for the server's lifetime, so the GEMM pool
//! and the serving pool divide the machine instead of oversubscribing it —
//! the same arrangement the threaded pipeline engine uses for its stage
//! workers.
//!
//! ```
//! use pbp_serve::{Server, ServeConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = pbp_nn::models::mlp(&[4, 8, 3], &mut rng);
//! let server = Server::start(vec![net], ServeConfig::default());
//! let client = server.client();
//! let logits = client
//!     .infer(pbp_tensor::Tensor::from_slice(&[0.1, 0.2, 0.3, 0.4]))
//!     .unwrap();
//! assert_eq!(logits.shape(), &[3]);
//! server.shutdown();
//! ```

mod config;
mod error;
mod server;

pub use config::{ServeConfig, DEFAULT_DEADLINE_US, DEFAULT_MAX_BATCH};
pub use error::ServeError;
pub use server::{Client, Pending, ServeStats, Server};
