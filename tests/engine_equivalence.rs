//! Cross-crate integration tests: the training engines must agree with
//! each other in the regimes where the paper's math says they coincide.

use pipelined_backprop::data::{blobs, DatasetSpec, SyntheticImages};
use pipelined_backprop::nn::models::{mlp, resnet_cifar, simple_cnn, vgg_cnn, ResNetConfig};
use pipelined_backprop::nn::Network;
use pipelined_backprop::optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pipelined_backprop::pipeline::{
    evaluate, DelayedConfig, DelayedTrainer, MicrobatchSchedule, ScheduledConfig, ScheduledTrainer,
    ThreadedConfig, ThreadedPipeline, TrainEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schedule1() -> LrSchedule {
    LrSchedule::constant(scale_hyperparams(Hyperparams::new(0.1, 0.9), 32, 1))
}

fn tiny_images(n: usize) -> pipelined_backprop::data::Dataset {
    let spec = DatasetSpec {
        num_classes: 4,
        channels: 3,
        size: 8,
        noise: 0.3,
        max_shift: 1,
        contrast_jitter: 0.2,
    };
    SyntheticImages::new(spec, 99).generate(n, 0)
}

fn assert_networks_equal(a: &Network, b: &Network, tol: f32, what: &str) {
    assert_eq!(a.num_stages(), b.num_stages());
    for s in 0..a.num_stages() {
        for (p, q) in a.stage(s).params().iter().zip(b.stage(s).params()) {
            for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                assert!((x - y).abs() <= tol, "{what}: stage {s}: {x} vs {y}");
            }
        }
    }
}

#[test]
fn pb_with_zero_delay_matches_sgdm_on_a_conv_net() {
    // Eq. 4-5 degenerate to plain SGD when all delays are zero; this must
    // hold through convolutions, group norm and residual lanes.
    let config = ResNetConfig {
        depth: 8,
        base_width: 4,
        in_channels: 3,
        num_classes: 4,
    };
    let mut rng = StdRng::seed_from_u64(0);
    let net_a = resnet_cifar(config, &mut rng);
    let mut rng = StdRng::seed_from_u64(0);
    let net_b = resnet_cifar(config, &mut rng);
    let data = tiny_images(24);
    let cfg = ScheduledConfig::new(MicrobatchSchedule::UniformDelay { delay: 0 }, schedule1());
    let mut pb = ScheduledTrainer::new(net_a, cfg);
    let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(1, schedule1()));
    for epoch in 0..2 {
        pb.train_epoch(&data, 5, epoch);
        sgd.train_epoch(&data, 5, epoch);
    }
    assert_networks_equal(
        &pb.into_network(),
        &sgd.into_network(),
        0.0,
        "PB(D=0) vs SGDM",
    );
}

#[test]
fn fill_drain_matches_batch_sgdm_on_a_conv_net() {
    let mut rng = StdRng::seed_from_u64(1);
    let net_a = simple_cnn(3, 6, 3, 4, &mut rng);
    let mut rng = StdRng::seed_from_u64(1);
    let net_b = simple_cnn(3, 6, 3, 4, &mut rng);
    let data = tiny_images(32);
    let hp = LrSchedule::constant(Hyperparams::new(0.05, 0.9));
    let mut fd = ScheduledTrainer::new(net_a, ScheduledConfig::fill_drain(8, hp.clone()));
    let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(8, hp));
    for epoch in 0..2 {
        fd.train_epoch(&data, 3, epoch);
        sgd.train_epoch(&data, 3, epoch);
    }
    assert_networks_equal(
        &fd.into_network(),
        &sgd.into_network(),
        5e-4,
        "fill&drain vs batch",
    );
}

#[test]
fn delayed_trainer_matches_the_uniform_delay_schedule() {
    // The App. G.2 simulator at batch 1 with uniform delay D must produce
    // the same weights as the stage executor running the uniform-delay
    // plan (every stage's version lag and optimizer delay forced to D).
    let mut rng = StdRng::seed_from_u64(2);
    let net_a = mlp(&[2, 12, 3], &mut rng);
    let mut rng = StdRng::seed_from_u64(2);
    let net_b = mlp(&[2, 12, 3], &mut rng);
    let data = blobs(3, 20, 0.4, 7);
    let delay = 3usize;

    let cfg = ScheduledConfig::new(MicrobatchSchedule::UniformDelay { delay }, schedule1());
    let mut pb = ScheduledTrainer::new(net_a, cfg);
    // Consistent=false matches PB's inconsistent-weight semantics.
    let mut delayed =
        DelayedTrainer::new(net_b, DelayedConfig::inconsistent(delay, 1, schedule1()));
    for epoch in 0..3 {
        pb.train_epoch(&data, 11, epoch);
        delayed.train_epoch(&data, 11, epoch);
    }
    assert_networks_equal(
        &pb.into_network(),
        &delayed.into_network(),
        1e-6,
        "UniformDelay(D) vs DelayedTrainer",
    );
}

#[test]
fn threaded_fill_drain_matches_sequential_sgdm_on_a_residual_net() {
    // The threaded runtime must route multi-lane residual activations and
    // gradients correctly; in drain mode it is exactly sequential SGDM.
    let config = ResNetConfig {
        depth: 8,
        base_width: 4,
        in_channels: 3,
        num_classes: 4,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let net_a = resnet_cifar(config, &mut rng);
    let mut rng = StdRng::seed_from_u64(3);
    let net_b = resnet_cifar(config, &mut rng);
    let data = tiny_images(16);
    let order: Vec<usize> = (0..data.len()).collect();
    let mut threaded = ThreadedPipeline::new(net_a, ThreadedConfig::fill_drain(schedule1()));
    let losses = threaded.stream(&data, &order).expect("clean run");
    let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(1, schedule1()));
    let mut ref_losses = Vec::new();
    for &i in &order {
        let (x, labels) = data.batch(&[i]);
        ref_losses.push(sgd.train_batch(&x, &labels));
    }
    for (a, b) in losses.iter().zip(&ref_losses) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
    assert_networks_equal(
        &threaded.into_network(),
        &sgd.into_network(),
        1e-4,
        "threaded drain vs SGDM",
    );
}

#[test]
fn threaded_pb_trains_a_residual_net_with_in_flight_overlap() {
    // True concurrency over Dup/AddLanes lanes: several samples in flight
    // through a residual topology must still converge.
    let config = ResNetConfig {
        depth: 8,
        base_width: 4,
        in_channels: 3,
        num_classes: 4,
    };
    let mut rng = StdRng::seed_from_u64(4);
    let net = resnet_cifar(config, &mut rng);
    let data = tiny_images(48);
    let order: Vec<usize> = (0..6).flat_map(|e| data.epoch_order(13, e)).collect();
    let cfg = ThreadedConfig::pb(schedule1()).with_mitigation(Mitigation::lwpv_scd());
    let mut engine = ThreadedPipeline::new(net, cfg);
    let losses = engine.stream(&data, &order).expect("clean run");
    assert!(losses.iter().all(|l| l.is_finite()));
    let (_, acc) = evaluate(engine.network_mut(), &data, 16);
    assert!(acc > 0.5, "threaded residual PB accuracy {acc}");
}

#[test]
fn weight_stashing_equals_plain_pb_when_weights_do_not_change() {
    // With lr = 0 the weights never move, so stashing is a no-op: both
    // configurations must produce identical (zero) updates and identical
    // losses.
    let mut rng = StdRng::seed_from_u64(5);
    let net_a = mlp(&[2, 8, 3], &mut rng);
    let mut rng = StdRng::seed_from_u64(5);
    let net_b = mlp(&[2, 8, 3], &mut rng);
    let data = blobs(3, 12, 0.4, 1);
    let sched = LrSchedule::constant(Hyperparams::new(1e-12, 0.9));
    let mut a = ScheduledTrainer::new(net_a, ScheduledConfig::pb(sched.clone()));
    let mut b = ScheduledTrainer::new(net_b, ScheduledConfig::pb(sched).with_weight_stashing());
    for i in 0..data.len() {
        let (x, l) = data.sample(i);
        let la = a.train_sample(x, l);
        let lb = b.train_sample(x, l);
        assert!((la - lb).abs() < 1e-6);
    }
}

/// Streams `order` through a threaded PB + LWPvD + SCD engine over `net()`
/// and trains a sequential one on the same samples: per-sample losses,
/// Eq. 5 delay histograms and weights must be equal bit for bit, whatever
/// cut the threaded engine made — which is returned.
fn assert_threaded_pb_is_the_sequential_run(
    net: impl Fn() -> Network,
    data: &pipelined_backprop::data::Dataset,
    order: &[usize],
    what: &str,
) -> Vec<usize> {
    let run = ScheduledConfig::pb(schedule1()).with_mitigation(Mitigation::lwpv_scd());
    let mut threaded = ThreadedPipeline::new(net(), ThreadedConfig::new(run.clone()));
    let bounds = threaded.worker_bounds();
    let losses = threaded.stream(data, order).expect("clean run");
    let mut sequential = ScheduledTrainer::new(net(), run);
    let want: Vec<f32> = order
        .iter()
        .map(|&i| {
            let (x, label) = data.sample(i);
            sequential.train_sample(x, label)
        })
        .collect();
    assert_eq!(losses, want, "{what}");
    let delays = |engine: &dyn TrainEngine| -> Vec<_> {
        let stages = engine.metrics().stages;
        stages.into_iter().map(|s| s.delay_hist).collect()
    };
    assert_eq!(delays(&threaded), delays(&sequential), "{what}");
    assert_networks_equal(
        &threaded.into_network(),
        &sequential.into_network(),
        0.0,
        what,
    );
    bounds
}

#[test]
fn threaded_pb_matches_the_sequential_engine_at_the_papers_depth() {
    // RN20's shape — 33 layer stages plus the loss, the paper's
    // one-layer-per-worker regime — on however many workers the thread
    // budget gives (`PBP_THREADS`): the threaded run is the sequential
    // one, bit for bit, whatever the cut.
    let config = ResNetConfig {
        depth: 20,
        base_width: 4,
        in_channels: 3,
        num_classes: 4,
    };
    let net = || resnet_cifar(config, &mut StdRng::seed_from_u64(6));
    assert_eq!(net().pipeline_stage_count(), 34);
    let data = tiny_images(64);
    let order: Vec<usize> = (0..8).flat_map(|e| data.epoch_order(17, e)).collect();
    assert_threaded_pb_is_the_sequential_run(
        net,
        &data,
        &order,
        "threaded PB vs sequential at 34 stages",
    );
}

#[test]
fn threaded_pb_matches_the_sequential_engine_at_an_uneven_cut() {
    // The ledger's cnn in small: four conv stages, then an `fc0` whose
    // weights cost more than the whole trunk. Two workers cut it 4 + 2 by
    // cost, not 3 + 3 by count; the threaded run is still the sequential
    // one, bit for bit.
    let net = || vgg_cnn(3, 4, 4, 8, 64, 4, &mut StdRng::seed_from_u64(7));
    let data = tiny_images(48);
    let order: Vec<usize> = (0..5).flat_map(|e| data.epoch_order(19, e)).collect();
    let what = "threaded PB vs sequential on a vgg_cnn";
    let bounds = assert_threaded_pb_is_the_sequential_run(net, &data, &order, what);
    if bounds.len() == 3 {
        assert_eq!(bounds, [0, 4, 6], "two workers cut before fc0");
    }
}
