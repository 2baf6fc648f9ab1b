//! End-to-end serving behavior: bit-exact replies, coalescing, shape
//! cohorts, typed worker failures, and graceful shutdown.

use pbp_nn::models::{mlp, simple_cnn};
use pbp_nn::Network;
use pbp_serve::{ServeConfig, ServeError, Server};
use pbp_tensor::{normal, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Two structurally-identical networks from the same seed: one to serve,
/// one to compute reference logits directly.
fn twin_mlps() -> (Network, Network) {
    let build = || mlp(&[6, 16, 4], &mut StdRng::seed_from_u64(3));
    (build(), build())
}

/// Reference forward in eval mode on a single sample.
fn direct_logits(net: &mut Network, x: &Tensor) -> Tensor {
    net.set_training(false);
    let mut shape = vec![1];
    shape.extend_from_slice(x.shape());
    let batched = Tensor::from_vec(x.as_slice().to_vec(), &shape).unwrap();
    let y = net.forward(&batched);
    net.clear_stash();
    Tensor::from_vec(y.as_slice().to_vec(), &y.shape()[1..]).unwrap()
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, context: &str) {
    assert_eq!(got.shape(), want.shape(), "{context}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{context}: element {i}");
    }
}

#[test]
fn replies_match_direct_forward_bitwise() {
    let (served, mut reference) = twin_mlps();
    let server = Server::start(vec![served], ServeConfig::default());
    let client = server.client();
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..8 {
        let x = normal(&[6], 0.0, 1.0, &mut rng);
        let got = client.infer(x.clone()).expect("infer succeeds");
        let want = direct_logits(&mut reference, &x);
        assert_bits_eq(&got, &want, "served logits");
    }
    let (_, stats) = server.shutdown();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.replied, 8);
}

#[test]
fn coalesced_batches_reply_identically_to_solo_requests() {
    // A long deadline plus pre-queued requests forces coalescing; the
    // replies must still match a per-request reference bit for bit —
    // batch composition is unobservable.
    let (served, mut reference) = twin_mlps();
    let server = Server::start(
        vec![served],
        ServeConfig {
            max_batch: 16,
            deadline: Duration::from_millis(500),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut rng = StdRng::seed_from_u64(11);
    let inputs: Vec<Tensor> = (0..12).map(|_| normal(&[6], 0.0, 1.0, &mut rng)).collect();
    let pendings: Vec<_> = inputs
        .iter()
        .map(|x| client.submit(x.clone()).expect("submit"))
        .collect();
    for (x, pending) in inputs.iter().zip(pendings) {
        let got = pending.wait().expect("reply");
        let want = direct_logits(&mut reference, x);
        assert_bits_eq(&got, &want, "coalesced logits");
    }
    let (_, stats) = server.shutdown();
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.replied, 12);
    assert!(
        stats.max_coalesced >= 2,
        "expected coalescing under a 500ms deadline, max batch was {}",
        stats.max_coalesced
    );
    assert!(
        stats.batches < 12,
        "12 requests should not need 12 batches, got {}",
        stats.batches
    );
}

#[test]
fn coalesced_cnn_replies_match_solo_forwards_bit_identically() {
    // A conv net's eval forward runs the direct kernels over whatever batch
    // the batcher coalesced and normalizes and rectifies it in place: each
    // served reply must still be exactly the solo forward of its own input.
    let build = || simple_cnn(2, 6, 2, 3, &mut StdRng::seed_from_u64(5));
    let mut reference = build();
    let server = Server::start(
        vec![build()],
        ServeConfig {
            max_batch: 8,
            deadline: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut rng = StdRng::seed_from_u64(12);
    let inputs: Vec<Tensor> = (0..6)
        .map(|_| normal(&[2, 5, 5], 0.0, 1.0, &mut rng))
        .collect();
    let pendings: Vec<_> = inputs
        .iter()
        .map(|x| client.submit(x.clone()).expect("submit"))
        .collect();
    for (x, pending) in inputs.iter().zip(pendings) {
        let got = pending.wait().expect("reply");
        let want = direct_logits(&mut reference, x);
        assert_bits_eq(&got, &want, "cnn logits");
    }
    server.shutdown();
}

#[test]
fn shape_cohorts_are_batched_separately() {
    // A CNN head is size-agnostic (global average pooling), so two input
    // resolutions are both valid — but they can never share one forward
    // pass. The batcher must flush between cohorts, and both replies must
    // be correct.
    let build = || simple_cnn(2, 6, 2, 3, &mut StdRng::seed_from_u64(6));
    let mut reference = build();
    let server = Server::start(
        vec![build()],
        ServeConfig {
            max_batch: 8,
            deadline: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut rng = StdRng::seed_from_u64(13);
    let small = normal(&[2, 5, 5], 0.0, 1.0, &mut rng);
    let large = normal(&[2, 7, 7], 0.0, 1.0, &mut rng);
    let p1 = client.submit(small.clone()).unwrap();
    let p2 = client.submit(large.clone()).unwrap();
    let p3 = client.submit(small.clone()).unwrap();
    let r1 = p1.wait().expect("small #1");
    let r2 = p2.wait().expect("large");
    let r3 = p3.wait().expect("small #2");
    assert_bits_eq(&r1, &direct_logits(&mut reference, &small), "small #1");
    assert_bits_eq(&r2, &direct_logits(&mut reference, &large), "large");
    assert_bits_eq(&r3, &direct_logits(&mut reference, &small), "small #2");
    let (_, stats) = server.shutdown();
    assert!(
        stats.batches >= 2,
        "mixed shapes need at least two batches, got {}",
        stats.batches
    );
}

#[test]
fn worker_panic_is_a_typed_error_and_the_worker_survives() {
    let (served, mut reference) = twin_mlps();
    let server = Server::start(vec![served], ServeConfig::default());
    let client = server.client();
    // Wrong feature width: the first linear layer panics on the shape
    // mismatch. The request must fail with a typed error, not a hang.
    let bad = Tensor::from_slice(&[1.0, 2.0]);
    assert_eq!(client.infer(bad), Err(ServeError::WorkerPanicked));
    // The worker keeps serving after the panic.
    let x = Tensor::from_slice(&[0.5, -0.25, 0.125, 1.0, -1.0, 2.0]);
    let got = client.infer(x.clone()).expect("worker survived the panic");
    assert_bits_eq(&got, &direct_logits(&mut reference, &x), "post-panic");
    let (_, stats) = server.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.replied, 2);
}

#[test]
fn shutdown_serves_queued_requests_then_rejects_new_ones() {
    let (served, mut reference) = twin_mlps();
    let server = Server::start(
        vec![served],
        ServeConfig {
            max_batch: 4,
            // A long deadline keeps requests queued in the batcher when
            // shutdown lands; the drain must still serve them.
            deadline: Duration::from_secs(5),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut rng = StdRng::seed_from_u64(14);
    let inputs: Vec<Tensor> = (0..10).map(|_| normal(&[6], 0.0, 1.0, &mut rng)).collect();
    let pendings: Vec<_> = inputs
        .iter()
        .map(|x| client.submit(x.clone()).expect("submit"))
        .collect();
    let (nets, stats) = server.shutdown();
    assert_eq!(nets.len(), 1, "shutdown returns the networks");
    assert!(nets[0].is_training(), "training mode is restored");
    assert_eq!(stats.replied, 10, "drain serves every queued request");
    for (x, pending) in inputs.iter().zip(pendings) {
        let got = pending.wait().expect("queued request served at shutdown");
        assert_bits_eq(&got, &direct_logits(&mut reference, x), "drained");
    }
    // The client outlives the server: submissions now fail fast.
    let x = normal(&[6], 0.0, 1.0, &mut rng);
    assert_eq!(client.infer(x), Err(ServeError::ShuttingDown));
}

#[test]
fn multiple_workers_serve_concurrently_and_identically() {
    let build = || mlp(&[6, 16, 4], &mut StdRng::seed_from_u64(3));
    let mut reference = build();
    let server = Server::start(
        vec![build(), build(), build()],
        ServeConfig {
            max_batch: 2,
            deadline: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut rng = StdRng::seed_from_u64(15);
    let inputs: Vec<Tensor> = (0..30).map(|_| normal(&[6], 0.0, 1.0, &mut rng)).collect();
    let pendings: Vec<_> = inputs
        .iter()
        .map(|x| client.submit(x.clone()).expect("submit"))
        .collect();
    for (x, pending) in inputs.iter().zip(pendings) {
        let got = pending.wait().expect("reply");
        assert_bits_eq(&got, &direct_logits(&mut reference, x), "multi-worker");
    }
    let (nets, stats) = server.shutdown();
    assert_eq!(nets.len(), 3);
    assert_eq!(stats.replied, 30);
}
