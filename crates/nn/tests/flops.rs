//! Hand-computed FLOP counts for the layers whose `flops_per_sample`
//! feeds the MFU report (pbp-trace) and the threaded engine's partition
//! of stages into workers. Each expected value is derived from the
//! layer's arithmetic, not from the implementation.

use pbp_nn::layers::{Conv2d, Linear, MapLane, WsConv2d};
use pbp_nn::models::vgg_cnn;
use pbp_nn::Layer;
use pbp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn linear_flops_are_two_per_mac_plus_bias_adds() {
    let mut rng = StdRng::seed_from_u64(0);
    // y = x·Wᵀ + b with in=5, out=7: 5·7 multiply-adds (2 FLOPs each)
    // plus 7 bias adds = 70 + 7.
    let with_bias = Linear::new(5, 7, true, &mut rng);
    assert_eq!(with_bias.flops_per_sample(), 77);
    // Without the bias the adds disappear but the matmul stays.
    let no_bias = Linear::new(5, 7, false, &mut rng);
    assert_eq!(no_bias.flops_per_sample(), 70);
}

#[test]
fn conv_flops_count_weight_reuse_across_pixels() {
    let mut rng = StdRng::seed_from_u64(1);
    // 2→3 channels, 3×3 kernel, stride 1, pad 1: weight has 3·2·3·3 = 54
    // entries. Before any forward the layer cannot know the spatial size,
    // so it reports the parameter-based default: 2·(54 + 3 bias) = 114.
    let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
    assert_eq!(conv.flops_per_sample(), 114);
    // A 4×4 input (stride 1, pad 1) keeps the spatial size: 16 output
    // pixels per channel. Each output element costs 2·(2·3·3) FLOPs of
    // convolution plus 1 bias add:
    //   2·54·16 + 3·16 = 1728 + 48 = 1776.
    let x = Tensor::zeros(&[1, 2, 4, 4]);
    let mut stack = vec![x];
    conv.forward(&mut stack);
    assert_eq!(conv.flops_per_sample(), 1776);
}

#[test]
fn wsconv_flops_match_conv_without_bias() {
    let mut rng = StdRng::seed_from_u64(2);
    // 3→4 channels, 3×3 kernel, stride 1, pad 1 on a 5×5 input: weight
    // has 4·3·3·3 = 108 entries, 25 output pixels, no bias (weight
    // standardization removes the mean): 2·108·25 = 5400.
    let mut ws = WsConv2d::new(3, 4, 3, 1, 1, &mut rng);
    let x = Tensor::zeros(&[1, 3, 5, 5]);
    let mut stack = vec![x];
    ws.forward(&mut stack);
    assert_eq!(ws.flops_per_sample(), 5400);
}

#[test]
fn strided_conv_counts_the_reduced_output_grid() {
    let mut rng = StdRng::seed_from_u64(3);
    // 1→2 channels, 3×3 kernel, stride 2, pad 1 on 8×8: out size is
    // ⌊(8 + 2·1 − 3)/2⌋ + 1 = 4, so 16 output pixels. Weight has
    // 2·1·3·3 = 18 entries, no bias: 2·18·16 = 576.
    let mut conv = Conv2d::new(1, 2, 3, 2, 1, false, &mut rng);
    let x = Tensor::zeros(&[1, 1, 8, 8]);
    let mut stack = vec![x];
    conv.forward(&mut stack);
    assert_eq!(conv.flops_per_sample(), 576);
}

#[test]
fn a_projection_shortcut_counts_its_inner_conv() {
    let mut rng = StdRng::seed_from_u64(5);
    // `resnet_cifar`'s down-sampling shortcut: a 1×1 stride-2 conv, 4→8
    // channels with bias, on the skip lane below the top. On 8×8 the out
    // size is ⌊(8 − 1)/2⌋ + 1 = 4, so 16 output pixels; the weight has
    // 8·4 = 32 entries: 2·32·16 + 8·16 = 1024 + 128 = 1152 — not the
    // parameter-based 2·(32 + 8) = 80.
    let conv = Conv2d::new(4, 8, 1, 2, 0, true, &mut rng);
    let mut lane = MapLane::new(1, Box::new(conv));
    let mut stack = vec![Tensor::zeros(&[1, 4, 8, 8]), Tensor::zeros(&[1, 8, 4, 4])];
    lane.forward(&mut stack);
    assert_eq!(lane.flops_per_sample(), 1152);
}

#[test]
fn a_builder_that_knows_the_image_counts_the_same_fresh_and_warmed() {
    // The ledger's cnn: `vgg_cnn` sizes its flatten from the image side, so
    // it tells each conv its input too, and the cost a partition reads off
    // a fresh network is the one it would read after the first sample.
    let mut net = vgg_cnn(3, 16, 4, 16, 256, 10, &mut StdRng::seed_from_u64(4));
    let flops = |net: &pbp_nn::Network| -> Vec<u64> {
        net.stages().map(|s| s.flops_per_sample()).collect()
    };
    let fresh = flops(&net);
    // conv1, 16→16 on 16×16: 2·(16·16·9)·256 for the convolution, plus the
    // parameter-based 2·32 of its group norm.
    assert_eq!(fresh[1], 2 * 2304 * 256 + 64);
    net.forward(&Tensor::zeros(&[1, 3, 16, 16]));
    assert_eq!(flops(&net), fresh);
}
