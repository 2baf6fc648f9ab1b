//! Small reference models used by tests and cheap experiments.

use crate::layers::{Conv2d, Flatten, GlobalAvgPool2d, GroupNorm, Linear, Relu};
use crate::network::{Network, Stage};
use rand::Rng;

/// Multi-layer perceptron: one stage per linear layer (ReLU fused, except
/// after the final layer).
///
/// `sizes` lists the layer widths including input and output, e.g.
/// `[784, 128, 10]`.
///
/// # Panics
///
/// Panics if fewer than two sizes are given.
pub fn mlp(sizes: &[usize], rng: &mut impl Rng) -> Network {
    assert!(
        sizes.len() >= 2,
        "mlp needs at least input and output sizes"
    );
    let mut stages = Vec::new();
    for (i, pair) in sizes.windows(2).enumerate() {
        let last = i + 2 == sizes.len();
        let linear = Box::new(Linear::new(pair[0], pair[1], true, rng));
        if last {
            stages.push(Stage::new(format!("fc{i}"), vec![linear]));
        } else {
            stages.push(Stage::new(
                format!("fc{i}+relu"),
                vec![linear, Box::new(Relu::new())],
            ));
        }
    }
    Network::new(stages)
}

/// Small convolutional classifier: `depth` fused `conv3x3+gn+relu` stages
/// followed by global average pooling and a linear head.
///
/// Used by the delayed-gradient simulation experiments (Figures 10, 13, 14)
/// where the paper trains ResNet20-class networks; this keeps the same
/// normalization and fused-stage structure at a budget that runs on CPU.
pub fn simple_cnn(
    in_channels: usize,
    width: usize,
    depth: usize,
    num_classes: usize,
    rng: &mut impl Rng,
) -> Network {
    assert!(depth >= 1, "simple_cnn needs at least one conv stage");
    let mut stages = Vec::new();
    let mut c = in_channels;
    for i in 0..depth {
        // Downsample every other stage to keep spatial cost bounded.
        let stride = if i > 0 && i % 2 == 0 { 2 } else { 1 };
        stages.push(Stage::new(
            format!("conv{i}"),
            vec![
                Box::new(Conv2d::new(c, width, 3, stride, 1, false, rng)) as Box<dyn crate::Layer>,
                Box::new(GroupNorm::with_group_size_two(width)),
                Box::new(Relu::new()),
            ],
        ));
        c = width;
    }
    stages.push(Stage::single(Box::new(GlobalAvgPool2d::new())));
    stages.push(Stage::new(
        "head",
        vec![
            Box::new(Flatten::new()) as Box<dyn crate::Layer>,
            Box::new(Linear::new(width, num_classes, true, rng)),
        ],
    ));
    Network::new(stages)
}

/// VGG-style convolutional classifier: `depth` fused `conv3x3+gn+relu`
/// stages followed by a flatten and a two-layer fully-connected head,
/// like the paper's CIFAR VGG networks (conv trunk, wide fc head).
///
/// `image` is the input side length, needed to size the flatten; `hidden`
/// is the width of the first fc layer. Unlike [`simple_cnn`]'s global
/// average pool, the wide fc head makes batch-1 inference read the whole
/// fc weight matrix per sample — the shape where batched evaluation (one
/// matrix product for the whole batch) pays off most, which is why the
/// serving benchmarks use this family. Knowing the image side, the builder
/// also tells each conv its input size, so the network's
/// `flops_per_sample` is the same before its first forward as after.
///
/// # Panics
///
/// Panics if `depth < 1` or the downsampled feature map collapses to zero.
pub fn vgg_cnn(
    in_channels: usize,
    width: usize,
    depth: usize,
    image: usize,
    hidden: usize,
    num_classes: usize,
    rng: &mut impl Rng,
) -> Network {
    assert!(depth >= 1, "vgg_cnn needs at least one conv stage");
    let mut stages = Vec::new();
    let mut c = in_channels;
    let mut side = image;
    for i in 0..depth {
        let stride = if i > 0 && i % 2 == 0 { 2 } else { 1 };
        let conv = Conv2d::new(c, width, 3, stride, 1, false, rng).with_input_size(side, side);
        stages.push(Stage::new(
            format!("conv{i}"),
            vec![
                Box::new(conv) as Box<dyn crate::Layer>,
                Box::new(GroupNorm::with_group_size_two(width)),
                Box::new(Relu::new()),
            ],
        ));
        c = width;
        side = (side + 2 - 3) / stride + 1;
        assert!(side > 0, "feature map collapsed at stage {i}");
    }
    stages.push(Stage::new(
        "fc0",
        vec![
            Box::new(Flatten::new()) as Box<dyn crate::Layer>,
            Box::new(Linear::new(width * side * side, hidden, true, rng)),
            Box::new(Relu::new()),
        ],
    ));
    stages.push(Stage::single(Box::new(Linear::new(
        hidden,
        num_classes,
        true,
        rng,
    ))));
    Network::new(stages)
}

/// [`simple_cnn`] with weight-standardized convolutions (Qiao et al.,
/// 2019) — the Discussion-section variant expected to tolerate gradient
/// delay better than plain conv+GN.
pub fn simple_cnn_ws(
    in_channels: usize,
    width: usize,
    depth: usize,
    num_classes: usize,
    rng: &mut impl Rng,
) -> Network {
    use crate::layers::WsConv2d;
    assert!(depth >= 1, "simple_cnn_ws needs at least one conv stage");
    let mut stages = Vec::new();
    let mut c = in_channels;
    for i in 0..depth {
        let stride = if i > 0 && i % 2 == 0 { 2 } else { 1 };
        stages.push(Stage::new(
            format!("ws_conv{i}"),
            vec![
                Box::new(WsConv2d::new(c, width, 3, stride, 1, rng)) as Box<dyn crate::Layer>,
                Box::new(GroupNorm::with_group_size_two(width)),
                Box::new(Relu::new()),
            ],
        ));
        c = width;
    }
    stages.push(Stage::single(Box::new(GlobalAvgPool2d::new())));
    stages.push(Stage::new(
        "head",
        vec![
            Box::new(Flatten::new()) as Box<dyn crate::Layer>,
            Box::new(Linear::new(width, num_classes, true, rng)),
        ],
    ));
    Network::new(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use pbp_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_stage_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[10, 20, 5], &mut rng);
        assert_eq!(net.num_stages(), 2);
    }

    #[test]
    fn simple_cnn_forward_backward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = simple_cnn(3, 8, 4, 10, &mut rng);
        let x = pbp_tensor::normal(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let logits = net.forward(&x);
        assert_eq!(logits.shape(), &[1, 10]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[3]);
        assert!(loss.is_finite());
        let gx = net.backward(&grad);
        assert_eq!(gx.shape(), &[1, 3, 8, 8]);
        assert!(gx.all_finite());
    }

    #[test]
    fn vgg_cnn_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = vgg_cnn(3, 8, 3, 16, 32, 10, &mut rng);
        let x = pbp_tensor::normal(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let logits = net.forward(&x);
        assert_eq!(logits.shape(), &[2, 10]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[3, 1]);
        assert!(loss.is_finite());
        let gx = net.backward(&grad);
        assert_eq!(gx.shape(), &[2, 3, 16, 16]);
        assert!(gx.all_finite());
    }

    #[test]
    fn simple_cnn_learns_a_constant_mapping() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = simple_cnn(1, 4, 2, 2, &mut rng);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let mut losses = Vec::new();
        for _ in 0..40 {
            net.zero_grads();
            let logits = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, &[1]);
            net.backward(&grad);
            for s in 0..net.num_stages() {
                let (params, grads) = net.stage_mut(s).params_and_grads();
                for (p, g) in params.into_iter().zip(grads) {
                    pbp_tensor::ops::axpy(-0.2, &g.dense(), p);
                }
            }
            losses.push(loss);
        }
        assert!(
            losses.last().unwrap() < &0.1,
            "final loss {:?}",
            losses.last()
        );
    }
}
