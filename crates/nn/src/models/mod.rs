//! Network architectures used in the paper's experiments.
//!
//! Stage partitioning follows Section 4 and reproduces the stage counts of
//! Table 1 exactly (including the final softmax/loss stage counted by
//! [`crate::Network::pipeline_stage_count`]):
//!
//! | network | stages | accounting |
//! |---------|--------|------------|
//! | VGG11   | 29     | 8×(conv, relu) + 5 pool + 7 classifier + loss |
//! | VGG13   | 33     | 10×(conv, relu) + 5 pool + 7 classifier + loss |
//! | VGG16   | 39     | 13×(conv, relu) + 5 pool + 7 classifier + loss |
//! | RN20    | 34     | stem + 18 conv + 9 sum + 2 proj + tail(3) + loss |
//! | RN32    | 52     | stem + 30 conv + 15 sum + 2 proj + tail(3) + loss |
//! | RN44    | 70     | stem + 42 conv + 21 sum + 2 proj + tail(3) + loss |
//! | RN56    | 88     | stem + 54 conv + 27 sum + 2 proj + tail(3) + loss |
//! | RN110   | 169    | stem + 108 conv + 54 sum + 2 proj + tail(3) + loss |
//! | RN50    | 78     | stem(2) + 48 conv + 16 sum + 4×2 proj + tail(3) + loss |
//!
//! ResNets fuse `groupnorm → relu → conv` into one stage (pre-activation
//! blocks, He et al. 2016b) and give each residual sum node its own stage;
//! VGG keeps every module a separate stage (no normalization, matching the
//! CIFAR VGG recipe of Fu 2019 that the paper adopts).

mod mlp;
mod resnet;
mod vgg;

pub use mlp::{mlp, simple_cnn, simple_cnn_ws, vgg_cnn};
pub use resnet::{resnet50_like, resnet_cifar, ResNetConfig};
pub use vgg::{vgg, VggVariant};
