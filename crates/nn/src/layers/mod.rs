//! Concrete layers.
//!
//! Every layer implements [`crate::Layer`] with an explicit backward pass
//! and a FIFO activation stash so that several samples can be in flight
//! through the same layer, as happens in pipelined backpropagation.

mod activation;
mod conv;
mod linear;
mod norm;
mod pool;
mod structure;
mod wsconv;

pub use activation::{Dropout, Relu};
pub use conv::Conv2d;
pub use linear::Linear;
pub use norm::GroupNorm;
pub use pool::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};
pub use structure::{AddLanes, Dup, Flatten, MapLane};
pub use wsconv::WsConv2d;
