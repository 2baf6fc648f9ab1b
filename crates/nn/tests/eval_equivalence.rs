//! Eval mode computes only the output — and the *same* output.
//!
//! After `set_training(false)` a forward may consume the tensor it popped
//! and stashes nothing (`Layer::set_training`). What it returns must still
//! be, bit for bit, what the training-mode forward returns wherever the two
//! modes compute the same function: that is the guard serving and
//! `evaluate` rest on, since a training-mode forward is the code every
//! golden record was taken with. Held here per layer, at batch 1, 3 and 17,
//! on inputs that carry the values an in-place rewrite is most likely to
//! treat differently: `-0.0`, negatives, subnormals and NaN. The kernels
//! underneath dispatch on `PBP_SIMD`; `scripts/check.sh` runs this suite on
//! the portable and the AVX2 tier as well as the default one.

use pbp_nn::layer::Layer;
use pbp_nn::layers::{
    AvgPool2d, Conv2d, FilterResponseNorm, Flatten, GlobalAvgPool2d, GroupNorm, Linear, MaxPool2d,
    Relu, Tlu, WsConv2d,
};
use pbp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const BATCHES: [usize; 3] = [1, 3, 17];

/// A random batch of `sample`-shaped inputs with the awkward values written
/// over the head of the first sample and the tail of the last.
fn awkward_input(n: usize, sample: &[usize], seed: u64) -> Tensor {
    let shape = [&[n], sample].concat();
    let mut x = pbp_tensor::normal(&shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed));
    let xs = x.as_mut_slice();
    let specials = [-0.0f32, -3.5, 1e-40, -1e-41, 0.0, f32::NAN];
    assert!(specials[2].is_subnormal() && specials[3].is_subnormal());
    let last = xs.len() - 1;
    for (i, &v) in specials.iter().enumerate() {
        xs[i] = v;
        xs[last - i] = v;
    }
    x
}

fn forward(layer: &mut dyn Layer, x: &Tensor) -> Tensor {
    let mut stack = vec![x.clone()];
    layer.forward(&mut stack);
    assert_eq!(stack.len(), 1, "one lane in, one lane out");
    stack.pop().expect("output")
}

/// Training-mode and eval-mode forwards of `layer` over `sample`-shaped
/// inputs agree `to_bits` at every batch size, and the eval-mode forward
/// leaves no stash: a backward after it meets the layer's "no stash" panic
/// (every layer here keeps something per training-mode forward).
fn assert_eval_is_training_forward(what: &str, layer: &mut dyn Layer, sample: &[usize]) {
    for (i, &n) in BATCHES.iter().enumerate() {
        let x = awkward_input(n, sample, 40 + i as u64);
        layer.set_training(true);
        let want = forward(layer, &x);
        layer.clear_stash();
        layer.set_training(false);
        let got = forward(layer, &x);
        assert_eq!(got.shape(), want.shape(), "{what}, batch {n}");
        for (j, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}, batch {n}, element {j}: eval {a} vs training {b}"
            );
        }
        let mut grads = vec![Tensor::ones(got.shape())];
        let backward = catch_unwind(AssertUnwindSafe(|| layer.backward(&mut grads)));
        assert!(
            backward.is_err(),
            "{what}, batch {n}: an eval-mode forward left a stash behind"
        );
        layer.set_training(true);
    }
}

/// Moves every parameter off its initial value (γ = 1, β = 0, zero biases
/// would hide a dropped or reordered affine term).
fn perturb_params(layer: &mut dyn Layer) {
    for (k, p) in layer.params_mut().into_iter().enumerate() {
        for (i, v) in p.as_mut_slice().iter_mut().enumerate() {
            *v += 0.25 * ((i + 3 * k) as f32 * 0.7).sin() - 0.1;
        }
    }
}

#[test]
fn conv_layers() {
    let mut rng = StdRng::seed_from_u64(1);
    // (kernel, stride, padding, bias): stride 1 and 2, with and without
    // bias, a pointwise kernel and an unpadded one.
    for &(k, s, p, bias) in &[
        (3, 1, 1, true),
        (3, 1, 1, false),
        (3, 2, 1, true),
        (3, 2, 0, false),
        (1, 1, 0, true),
    ] {
        let mut layer = Conv2d::new(3, 5, k, s, p, bias, &mut rng);
        perturb_params(&mut layer);
        let what = format!("conv k={k} s={s} p={p} bias={bias}");
        assert_eval_is_training_forward(&what, &mut layer, &[3, 7, 6]);
    }
    for &s in &[1, 2] {
        let mut layer = WsConv2d::new(3, 4, 3, s, 1, &mut rng);
        assert_eval_is_training_forward(&format!("ws_conv s={s}"), &mut layer, &[3, 7, 6]);
    }
}

#[test]
fn group_norm() {
    // 2 groups: the tail loop of the stepped chains; 8 groups × 3 or 17
    // samples: whole blocks of eight and a tail.
    for &(groups, channels) in &[(2, 4), (8, 16), (1, 3)] {
        let mut layer = GroupNorm::new(groups, channels);
        perturb_params(&mut layer);
        let what = format!("groupnorm g={groups} c={channels}");
        assert_eval_is_training_forward(&what, &mut layer, &[channels, 5, 3]);
    }
}

#[test]
fn relu_keeps_the_bits_of_the_mask_product() {
    let mut layer = Relu::new();
    assert_eval_is_training_forward("relu", &mut layer, &[4, 3, 3]);
    // The values themselves: the product `v · (1.0 | 0.0)`, not `max(v, 0)`.
    layer.set_training(false);
    let y = forward(
        &mut layer,
        &Tensor::from_slice(&[-0.0, -2.0, 0.0, 3.0, 1e-40, -1e-40, f32::NAN]),
    );
    let bits: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
    let want = [-0.0f32, -0.0, 0.0, 3.0, 1e-40, -0.0, f32::NAN].map(f32::to_bits);
    assert_eq!(bits, want);
}

#[test]
fn linear_and_flatten() {
    let mut rng = StdRng::seed_from_u64(2);
    for bias in [true, false] {
        let mut layer = Linear::new(12, 7, bias, &mut rng);
        perturb_params(&mut layer);
        // Rank-2 input moves through; rank-4 input is flattened on the way.
        assert_eval_is_training_forward(&format!("linear bias={bias}"), &mut layer, &[12]);
        assert_eval_is_training_forward(
            &format!("linear bias={bias}, NCHW input"),
            &mut layer,
            &[3, 2, 2],
        );
    }
    // Wide enough for the lane-per-output kernel and the tiled GEMM both.
    let mut wide = Linear::new(40, 33, true, &mut rng);
    assert_eval_is_training_forward("linear 40→33", &mut wide, &[40]);
    assert_eval_is_training_forward("flatten", &mut Flatten::new(), &[3, 2, 5]);
}

#[test]
fn pooling_layers() {
    assert_eval_is_training_forward("maxpool 2/2", &mut MaxPool2d::new(2, 2), &[3, 6, 6]);
    assert_eval_is_training_forward("maxpool 3/2", &mut MaxPool2d::new(3, 2), &[2, 7, 7]);
    assert_eval_is_training_forward("avgpool 2/2", &mut AvgPool2d::new(2, 2), &[3, 6, 6]);
    assert_eval_is_training_forward("global avgpool", &mut GlobalAvgPool2d::new(), &[3, 4, 5]);
}

#[test]
fn filter_response_norm_and_tlu() {
    let mut frn = FilterResponseNorm::new(4);
    perturb_params(&mut frn);
    assert_eval_is_training_forward("frn", &mut frn, &[4, 3, 3]);
    let mut tlu = Tlu::new(4);
    perturb_params(&mut tlu);
    assert_eval_is_training_forward("tlu", &mut tlu, &[4, 3, 3]);
}
