//! Batched evaluation must be a pure throughput knob.
//!
//! `evaluate` routes any number of samples through one forward pass per
//! batch, but the reported metrics are accumulated per sample: each
//! sample's logits are bit-identical at every batch size (the kernels are
//! bit-exact however a product is dispatched, and eval mode makes every
//! layer row-wise), losses are summed as per-sample `f64` terms in dataset
//! order, and accuracy is an integer count. So loss and accuracy must be
//! *exactly* equal — `to_bits` on the loss, `==` on the accuracy — at
//! batch sizes 1, 3, 4, 5, 17 and 64 (both sides of the pool's four-sample
//! chunk) and kernel thread caps 1, 2 and 64, on dense and convolutional
//! networks alike.
//!
//! Dropout is the reason eval mode matters here: a `Dropout` layer left in
//! training mode draws a fresh mask per forward from its RNG, making the
//! logits depend on which draws a sample meets, and so on the batch size
//! and on every earlier call. The tests below run a dropout network through
//! `evaluate` and demand batch-size invariance — which only holds if
//! `evaluate` really switches dropout off — and then check the prior mode
//! is restored either way.

use pbp_data::Dataset;
use pbp_nn::layers::{Conv2d, Dropout, Flatten, GlobalAvgPool2d, Linear, Relu};
use pbp_nn::models::{mlp, resnet_cifar, simple_cnn, simple_cnn_ws, vgg, ResNetConfig, VggVariant};
use pbp_nn::{Layer, Network, Stage};
use pbp_pipeline::evaluate;
use pbp_tensor::{normal, pool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

const BATCHES: [usize; 6] = [1, 3, 4, 5, 17, 64];
/// Kernel thread caps: inline, the caller and one helper, more helpers
/// than a batch has chunks.
const THREADS: [usize; 3] = [1, 2, 64];

/// The thread cap is process-wide and the tests run concurrently: each
/// holds this while it sweeps the cap.
static CAP: Mutex<()> = Mutex::new(());

/// Evaluates `net` at every batch size in `BATCHES` and thread cap in
/// `THREADS` and asserts the metrics are exactly equal to batch 1 on one
/// thread (loss by bits, accuracy by integer-backed equality); returns the
/// common `(loss, accuracy)`.
fn assert_batch_invariant(net: &mut Network, data: &Dataset, context: &str) -> (f64, f64) {
    let _cap = CAP.lock().unwrap_or_else(PoisonError::into_inner);
    let configured = pool::configured_threads();
    pool::set_max_threads(1);
    let (loss_1, acc_1) = evaluate(net, data, 1);
    for threads in THREADS {
        pool::set_max_threads(threads);
        for batch in BATCHES {
            let (loss_b, acc_b) = evaluate(net, data, batch);
            assert!(
                loss_b.to_bits() == loss_1.to_bits(),
                "{context}: loss at batch {batch}, {threads} threads is {loss_b:?}, \
                 batch 1 gave {loss_1:?}"
            );
            assert!(
                acc_b == acc_1,
                "{context}: accuracy at batch {batch}, {threads} threads is {acc_b}, \
                 batch 1 gave {acc_1}"
            );
        }
    }
    pool::set_max_threads(configured);
    (loss_1, acc_1)
}

/// Synthetic image dataset: `n` random `[c, h, w]` samples, round-robin
/// labels.
fn image_dataset(n: usize, c: usize, h: usize, w: usize, classes: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..n)
        .map(|_| normal(&[c, h, w], 0.0, 1.0, &mut rng))
        .collect();
    let labels = (0..n).map(|i| i % classes).collect();
    Dataset::new(samples, labels, classes)
}

#[test]
fn mlp_eval_metrics_are_batch_size_invariant() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = mlp(&[2, 24, 24, 3], &mut rng);
    // 75 samples: not a multiple of 4, 17 or 64, so those batch sizes see
    // a trailing partial batch.
    let data = pbp_data::spirals(3, 25, 0.08, 9);
    let (loss, acc) = assert_batch_invariant(&mut net, &data, "mlp");
    assert!(loss.is_finite() && loss > 0.0);
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn cnn_eval_metrics_are_batch_size_invariant() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut net = simple_cnn(3, 8, 3, 4, &mut rng);
    let data = image_dataset(41, 3, 6, 6, 4, 10);
    let (loss, _) = assert_batch_invariant(&mut net, &data, "cnn");
    assert!(loss.is_finite() && loss > 0.0);
}

#[test]
fn wsconv_cnn_eval_metrics_are_batch_size_invariant() {
    // Weight-standardized convolutions run the same direct kernels over
    // the standardized weight, so they must show the same exact
    // batch-size invariance as plain convs.
    let mut rng = StdRng::seed_from_u64(21);
    let mut net = simple_cnn_ws(3, 8, 3, 4, &mut rng);
    let data = image_dataset(41, 3, 6, 6, 4, 22);
    let (loss, _) = assert_batch_invariant(&mut net, &data, "wsconv cnn");
    assert!(loss.is_finite() && loss > 0.0);
}

#[test]
fn resnet_eval_metrics_are_batch_size_invariant() {
    // The residual builder: `Dup` / `AddLanes` / `MapLane` (the strided
    // 1×1 projections on the skip lane) and in-place GroupNorm + ReLU on a
    // stack of two lanes.
    let config = ResNetConfig {
        depth: 8,
        base_width: 4,
        in_channels: 3,
        num_classes: 4,
    };
    let mut net = resnet_cifar(config, &mut StdRng::seed_from_u64(31));
    let data = image_dataset(23, 3, 8, 8, 4, 32);
    let (loss, _) = assert_batch_invariant(&mut net, &data, "resnet");
    assert!(loss.is_finite() && loss > 0.0);
}

#[test]
fn vgg_eval_metrics_are_batch_size_invariant() {
    // The VGG builder: `MaxPool2d` stages between the conv blocks and
    // eval-mode `Dropout` in the classifier.
    let mut net = vgg(
        VggVariant::Vgg11,
        16,
        3,
        4,
        0.5,
        &mut StdRng::seed_from_u64(33),
    );
    let data = image_dataset(15, 3, 32, 32, 4, 34);
    let (loss, _) = assert_batch_invariant(&mut net, &data, "vgg");
    assert!(loss.is_finite() && loss > 0.0);
}

/// A conv net with a half-rate `Dropout` — the layer whose training mode
/// breaks batch invariance. Half of every feature map is zeroed by masks
/// that differ from call to call, so these assertions fail loudly if
/// `evaluate` forgets to switch to eval mode.
fn dropout_net(rng: &mut StdRng) -> Network {
    Network::new(vec![
        Stage::new(
            "conv+drop",
            vec![
                Box::new(Conv2d::new(2, 6, 3, 1, 1, false, rng)) as Box<dyn Layer>,
                Box::new(Relu::new()),
                Box::new(Dropout::new(0.5, 5)),
            ],
        ),
        Stage::single(Box::new(GlobalAvgPool2d::new())),
        Stage::new(
            "head",
            vec![
                Box::new(Flatten::new()) as Box<dyn Layer>,
                Box::new(Linear::new(6, 3, true, rng)),
            ],
        ),
    ])
}

#[test]
fn evaluate_switches_dropout_off() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = dropout_net(&mut rng);
    let data = image_dataset(33, 2, 5, 5, 3, 12);
    assert_batch_invariant(&mut net, &data, "dropout net");
}

#[test]
fn evaluate_restores_the_prior_training_mode() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut net = dropout_net(&mut rng);
    let data = image_dataset(9, 2, 5, 5, 3, 14);

    assert!(net.is_training(), "networks start in training mode");
    evaluate(&mut net, &data, 4);
    assert!(net.is_training(), "prior training mode must be restored");

    net.set_training(false);
    evaluate(&mut net, &data, 4);
    assert!(!net.is_training(), "prior eval mode must be restored");
    net.set_training(true);
}
