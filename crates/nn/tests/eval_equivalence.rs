//! Eval mode computes only the output — and the *same* output.
//!
//! After `set_training(false)` a forward may consume the tensor it popped
//! and stashes nothing (`Layer::set_training`). What it returns must still
//! be, bit for bit, what the training-mode forward returns wherever the two
//! modes compute the same function: that is the guard serving and
//! `evaluate` rest on, since a training-mode forward is the code every
//! golden record was taken with. Held here per layer against the
//! training-mode forward of each sample alone, at batch sizes on both
//! sides of the pool's four-sample chunk (1, 3, 4, 5, 17, 64) and kernel
//! thread caps 1, 2 and 64 — eval-mode convolution and group normalisation
//! split a batch into chunks of samples over the pool — on inputs that
//! carry the values an in-place rewrite is most likely to treat
//! differently: `-0.0`, negatives, subnormals and NaN. The kernels
//! underneath dispatch on `PBP_SIMD`; `scripts/check.sh` runs this suite on
//! the portable and the AVX2 tier as well as the default one, and under
//! `PBP_THREADS=1` and `=64`.

use pbp_nn::layer::Layer;
use pbp_nn::layers::{
    AvgPool2d, Conv2d, Dropout, Flatten, GlobalAvgPool2d, GroupNorm, Linear, MaxPool2d, Relu,
    WsConv2d,
};
use pbp_nn::Stage;
use pbp_tensor::{pool, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

const BATCHES: [usize; 6] = [1, 3, 4, 5, 17, 64];
/// Kernel thread caps: inline, the caller and one helper, more helpers
/// than a batch has chunks.
const THREADS: [usize; 3] = [1, 2, 64];

/// The thread cap is process-wide and the tests run concurrently: each
/// holds this while it sweeps the cap.
static CAP: Mutex<()> = Mutex::new(());

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

/// The training-mode forward of each sample of `x` alone, one thread,
/// stacked back into a batch.
fn per_sample_forward(layer: &mut dyn Layer, x: &Tensor) -> Tensor {
    let n = x.shape()[0];
    let sample_shape = [&[1], &x.shape()[1..]].concat();
    let mut values = Vec::new();
    let mut shape = Vec::new();
    layer.set_training(true);
    for row in x.as_slice().chunks_exact(x.len() / n) {
        let y = forward(
            layer,
            &Tensor::from_vec(row.to_vec(), &sample_shape).unwrap(),
        );
        layer.clear_stash();
        values.extend_from_slice(y.as_slice());
        shape = [&[n], &y.shape()[1..]].concat();
    }
    Tensor::from_vec(values, &shape).unwrap()
}

fn assert_same_bits(got: &Tensor, want: &Tensor, context: &str) {
    assert_eq!(got.shape(), want.shape(), "{context}");
    for (j, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}, element {j}: {a} vs per-sample {b}"
        );
    }
}

/// Training-mode and eval-mode forwards of `layer` over `sample`-shaped
/// inputs agree `to_bits` with the per-sample training-mode forward at
/// every batch size and thread cap, and the eval-mode forward leaves no
/// stash: a backward after it meets the layer's "no stash" panic (every
/// layer here keeps something per training-mode forward).
fn assert_eval_is_training_forward(what: &str, layer: &mut dyn Layer, sample: &[usize]) {
    let _cap = CAP.lock().unwrap_or_else(PoisonError::into_inner);
    let configured = pool::configured_threads();
    for (i, &n) in BATCHES.iter().enumerate() {
        let x = awkward_input(n, sample, 40 + i as u64);
        pool::set_max_threads(1);
        let want = per_sample_forward(layer, &x);
        for threads in THREADS {
            pool::set_max_threads(threads);
            let context = format!("{what}, batch {n}, {threads} threads");
            layer.set_training(true);
            let trained = forward(layer, &x);
            layer.clear_stash();
            assert_same_bits(&trained, &want, &format!("{context}, training mode"));
            layer.set_training(false);
            let got = forward(layer, &x);
            assert_same_bits(&got, &want, &format!("{context}, eval mode"));
            let mut grads = vec![Tensor::ones(got.shape())];
            let backward = catch_unwind(AssertUnwindSafe(|| layer.backward_input(&mut grads)));
            assert!(
                backward.is_err(),
                "{context}: an eval-mode forward left a stash behind"
            );
        }
        layer.set_training(true);
    }
    pool::set_max_threads(configured);
}

/// Moves every parameter off its initial value (γ = 1, β = 0, zero biases
/// would hide a dropped or reordered affine term).
fn perturb_params(layer: &mut dyn Layer) {
    for (k, (p, _)) in layer.params_and_grads().into_iter().enumerate() {
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

/// At `p = 0` both modes are the identity; the training-mode forward
/// still queues a mask-less marker for its backward, the eval-mode one
/// nothing.
#[test]
fn dropout_at_rate_zero() {
    let mut dropout = Dropout::new(0.0, 3);
    assert_eval_is_training_forward("dropout p=0", &mut dropout, &[4, 3, 3]);
}

/// The training-mode forward of each sample of `x` alone through `stage`,
/// one thread, stacked back into a batch.
fn per_sample_stage_forward(stage: &mut Stage, x: &Tensor) -> Tensor {
    let n = x.shape()[0];
    let sample_shape = [&[1], &x.shape()[1..]].concat();
    let (mut values, mut shape) = (Vec::new(), Vec::new());
    stage.set_training(true);
    for row in x.as_slice().chunks_exact(x.len() / n) {
        let mut stack = vec![Tensor::from_vec(row.to_vec(), &sample_shape).unwrap()];
        stage.forward(&mut stack);
        stage.clear_stash();
        let y = stack.pop().expect("output");
        values.extend_from_slice(y.as_slice());
        shape = [&[n], &y.shape()[1..]].concat();
    }
    Tensor::from_vec(values, &shape).unwrap()
}

/// A stage's eval-mode forward — with a GroupNorm directly followed by a
/// ReLU folded into one pass — against its per-sample training-mode
/// forward, which runs every layer on its own, `to_bits`, at every batch
/// size and thread cap.
fn assert_stage_eval_is_training_forward(what: &str, stage: &mut Stage, sample: &[usize]) {
    let _cap = CAP.lock().unwrap_or_else(PoisonError::into_inner);
    let configured = pool::configured_threads();
    for (i, &n) in BATCHES.iter().enumerate() {
        let x = awkward_input(n, sample, 70 + i as u64);
        pool::set_max_threads(1);
        let want = per_sample_stage_forward(stage, &x);
        stage.set_training(false);
        for threads in THREADS {
            pool::set_max_threads(threads);
            let mut stack = vec![x.clone()];
            stage.forward(&mut stack);
            let got = stack.pop().expect("output");
            let context = format!("{what}, batch {n}, {threads} threads, eval mode");
            assert_same_bits(&got, &want, &context);
        }
    }
    pool::set_max_threads(configured);
}

/// A GroupNorm whose first channel maps every value to `-0.0` (γ = 0,
/// β = −0.0 — a negative `x̂` times `+0.0` is `-0.0`, plus `-0.0`) and
/// whose other parameters are moved off their initial values.
fn group_norm_with_a_signed_zero_channel(groups: usize, channels: usize) -> GroupNorm {
    let mut norm = GroupNorm::new(groups, channels);
    perturb_params(&mut norm);
    let mut params = norm.params_and_grads();
    params[0].0.as_mut_slice()[0] = 0.0;
    params[1].0.as_mut_slice()[0] = -0.0;
    norm
}

#[test]
fn a_stage_folds_relu_into_group_norm_in_eval_mode_with_the_same_bits() {
    let mut rng = StdRng::seed_from_u64(3);
    let conv = |rng: &mut StdRng| {
        let mut conv = Conv2d::new(3, 16, 3, 1, 1, false, rng);
        perturb_params(&mut conv);
        Box::new(conv) as Box<dyn Layer>
    };
    let norm = |groups, channels| {
        Box::new(group_norm_with_a_signed_zero_channel(groups, channels)) as Box<dyn Layer>
    };
    // The serving net's conv stage, folded: eight groups of two channels.
    let mut stage = Stage::new(
        "conv+gn+relu",
        vec![conv(&mut rng), norm(8, 16), Box::new(Relu::new())],
    );
    assert_stage_eval_is_training_forward("[conv, gn, relu]", &mut stage, &[3, 7, 6]);
    // The awkward values straight into the fold: −0.0, subnormals and NaN
    // reach the normalisation, and the γ = 0 channel writes −0.0 for the
    // ReLU product to keep.
    let mut stage = Stage::new("gn+relu", vec![norm(2, 4), Box::new(Relu::new())]);
    assert_stage_eval_is_training_forward("[gn, relu]", &mut stage, &[4, 5, 3]);
    // Two folds in one stage, the second after a ReLU of its own.
    let mut stage = Stage::new(
        "gn+relu+gn+relu",
        vec![
            norm(1, 4),
            Box::new(Relu::new()),
            norm(4, 4),
            Box::new(Relu::new()),
        ],
    );
    assert_stage_eval_is_training_forward("[gn, relu, gn, relu]", &mut stage, &[4, 3, 3]);
}

#[test]
fn a_group_norm_not_directly_followed_by_relu_is_not_folded() {
    let mut rng = StdRng::seed_from_u64(4);
    let norm = |groups, channels| {
        Box::new(group_norm_with_a_signed_zero_channel(groups, channels)) as Box<dyn Layer>
    };
    // GroupNorm last: the ReLU that would follow is in the next stage.
    let mut conv = Conv2d::new(3, 8, 3, 1, 1, false, &mut rng);
    perturb_params(&mut conv);
    let mut stage = Stage::new("conv+gn", vec![Box::new(conv), norm(4, 8)]);
    assert_stage_eval_is_training_forward("[conv, gn]", &mut stage, &[3, 7, 6]);
    // Something other than a ReLU between the normalisation and a ReLU.
    let mut stage = Stage::new(
        "gn+pool+relu",
        vec![
            norm(2, 4),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Relu::new()),
        ],
    );
    assert_stage_eval_is_training_forward("[gn, maxpool, relu]", &mut stage, &[4, 6, 6]);
    // A ReLU first, then the normalisation last.
    let mut stage = Stage::new("relu+gn", vec![Box::new(Relu::new()), norm(2, 4)]);
    assert_stage_eval_is_training_forward("[relu, gn]", &mut stage, &[4, 5, 3]);
}
