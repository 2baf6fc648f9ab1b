//! The in-flight invariant every layer must satisfy for pipelined
//! backpropagation: with fixed weights, processing k samples with all
//! forwards first and all backwards after (k in flight) produces exactly
//! the same input gradients and accumulated parameter gradients as strict
//! sequential forward/backward pairs.
//!
//! (Stateful-normalization layers — BatchNorm running stats, OnlineNorm
//! streaming stats — update state at forward time, so their forward order
//! is the same in both schedules and the invariant still holds.)

use pbp_nn::layer::Layer;
use pbp_nn::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, FilterResponseNorm, Flatten, GlobalAvgPool2d,
    GroupNorm, Linear, MaxPool2d, OnlineNorm, Relu, Tlu, WsConv2d,
};
use pbp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn inputs(k: usize, shape: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| pbp_tensor::normal(shape, 0.0, 1.0, &mut rng))
        .collect()
}

/// Runs the invariant check for one layer builder.
fn check_fifo(name: &str, mut make: impl FnMut() -> Box<dyn Layer>, in_shape: &[usize]) {
    let k = 3;
    let xs = inputs(k, in_shape, 42);

    // Schedule A: sequential fwd/bwd pairs.
    let mut layer_a = make();
    let mut grads_in_a = Vec::new();
    for x in &xs {
        let mut s = vec![x.clone()];
        layer_a.forward(&mut s);
        let y = s.pop().unwrap();
        let mut g = vec![Tensor::ones(y.shape())];
        layer_a.backward(&mut g);
        grads_in_a.push(g.pop().unwrap());
    }

    // Schedule B: all forwards, then all backwards (k in flight).
    let mut layer_b = make();
    let mut out_shapes = Vec::new();
    for x in &xs {
        let mut s = vec![x.clone()];
        layer_b.forward(&mut s);
        out_shapes.push(s.pop().unwrap().shape().to_vec());
    }
    let mut grads_in_b = Vec::new();
    for shape in &out_shapes {
        let mut g = vec![Tensor::ones(shape)];
        layer_b.backward(&mut g);
        grads_in_b.push(g.pop().unwrap());
    }

    for (i, (a, b)) in grads_in_a.iter().zip(&grads_in_b).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{name}: input gradient differs for in-flight sample {i}"
        );
    }
    for (pa, pb) in layer_a.grads().iter().zip(layer_b.grads()) {
        assert_eq!(
            pa.dense().as_slice(),
            pb.dense().as_slice(),
            "{name}: parameter gradients differ"
        );
    }
}

#[test]
fn conv2d_supports_in_flight_samples() {
    check_fifo(
        "conv2d",
        || {
            let mut rng = StdRng::seed_from_u64(1);
            Box::new(Conv2d::new(2, 3, 3, 1, 1, true, &mut rng))
        },
        &[1, 2, 5, 5],
    );
}

#[test]
fn ws_conv2d_supports_in_flight_samples() {
    check_fifo(
        "ws_conv2d",
        || {
            let mut rng = StdRng::seed_from_u64(2);
            Box::new(WsConv2d::new(2, 2, 3, 1, 1, &mut rng))
        },
        &[1, 2, 5, 5],
    );
}

#[test]
fn linear_supports_in_flight_samples() {
    check_fifo(
        "linear",
        || {
            let mut rng = StdRng::seed_from_u64(3);
            Box::new(Linear::new(6, 4, true, &mut rng))
        },
        &[1, 6],
    );
}

#[test]
fn relu_supports_in_flight_samples() {
    check_fifo("relu", || Box::new(Relu::new()), &[1, 8]);
}

#[test]
fn groupnorm_supports_in_flight_samples() {
    check_fifo(
        "groupnorm",
        || Box::new(GroupNorm::new(2, 4)),
        &[1, 4, 3, 3],
    );
}

#[test]
fn frn_and_tlu_support_in_flight_samples() {
    check_fifo(
        "frn",
        || Box::new(FilterResponseNorm::new(3)),
        &[1, 3, 4, 4],
    );
    check_fifo("tlu", || Box::new(Tlu::new(3)), &[1, 3, 4, 4]);
}

#[test]
fn pools_support_in_flight_samples() {
    check_fifo("maxpool", || Box::new(MaxPool2d::new(2, 2)), &[1, 2, 4, 4]);
    check_fifo("avgpool", || Box::new(AvgPool2d::new(2, 2)), &[1, 2, 4, 4]);
    check_fifo("gap", || Box::new(GlobalAvgPool2d::new()), &[1, 2, 4, 4]);
    check_fifo("flatten", || Box::new(Flatten::new()), &[1, 2, 3, 3]);
}

#[test]
fn dropout_supports_in_flight_samples() {
    // Dropout draws a fresh mask per forward from its own RNG, so the two
    // schedules see identical mask sequences (forward order is the same).
    check_fifo("dropout", || Box::new(Dropout::new(0.4, 7)), &[1, 32]);
}

#[test]
fn stateful_norms_support_in_flight_samples() {
    check_fifo("batchnorm", || Box::new(BatchNorm2d::new(2)), &[2, 2, 3, 3]);
    check_fifo(
        "online_norm",
        || Box::new(OnlineNorm::new(2)),
        &[1, 2, 4, 4],
    );
}
