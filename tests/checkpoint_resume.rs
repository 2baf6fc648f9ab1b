//! Checkpoint/resume across training engines: weights saved mid-run (the
//! network sections of a snapshot) load into a fresh engine and continue
//! training sensibly.

use pipelined_backprop::data::blobs;
use pipelined_backprop::nn::models::mlp;
use pipelined_backprop::nn::snapshot::{read_network, write_network};
use pipelined_backprop::nn::Network;
use pipelined_backprop::optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pipelined_backprop::pipeline::{evaluate, ScheduledConfig, ScheduledTrainer};
use pipelined_backprop::snapshot::{SnapshotArchive, SnapshotBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The network's weights as snapshot bytes.
fn save(net: &Network) -> Vec<u8> {
    let mut builder = SnapshotBuilder::new();
    write_network(net, &mut builder);
    builder.to_bytes()
}

fn load(net: &mut Network, bytes: &[u8]) {
    let archive = SnapshotArchive::from_bytes(bytes).expect("snapshot bytes");
    read_network(net, &archive).expect("same architecture");
}

fn schedule() -> LrSchedule {
    LrSchedule::constant(scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1))
}

#[test]
fn pb_training_resumes_from_a_checkpoint() {
    let data = blobs(3, 40, 0.4, 1);
    let (train, val) = data.split(0.25);

    // Phase 1: train, checkpoint.
    let mut rng = StdRng::seed_from_u64(0);
    let net = mlp(&[2, 16, 3], &mut rng);
    let mut trainer = ScheduledTrainer::new(net, ScheduledConfig::pb(schedule()));
    for epoch in 0..6 {
        trainer.train_epoch(&train, 3, epoch);
    }
    let (_, acc_mid) = evaluate(trainer.network_mut(), &val, 16);
    let buf = save(trainer.network_mut());

    // Phase 2: fresh engine (velocity and weight-version queues reset, as
    // documented), resumed weights.
    let mut rng = StdRng::seed_from_u64(99);
    let mut net = mlp(&[2, 16, 3], &mut rng);
    load(&mut net, &buf);
    let mut resumed = ScheduledTrainer::new(net, ScheduledConfig::pb(schedule()));
    let (_, acc_loaded) = evaluate(resumed.network_mut(), &val, 16);
    assert!(
        (acc_loaded - acc_mid).abs() < 1e-12,
        "loaded weights must evaluate identically: {acc_mid} vs {acc_loaded}"
    );
    for epoch in 6..12 {
        resumed.train_epoch(&train, 3, epoch);
    }
    let (_, acc_final) = evaluate(resumed.network_mut(), &val, 16);
    assert!(
        acc_final >= acc_mid - 0.15,
        "resumed training regressed: {acc_mid} → {acc_final}"
    );
    assert!(acc_final > 0.8, "final accuracy {acc_final}");
}

#[test]
fn checkpoints_transfer_between_engines() {
    // Weights trained by SGDM load into a PB engine (a realistic
    // fine-tune-with-PB scenario).
    use pipelined_backprop::pipeline::{DelayedConfig, DelayedTrainer, TrainEngine};
    let data = blobs(3, 40, 0.4, 2);
    let (train, val) = data.split(0.25);
    let mut rng = StdRng::seed_from_u64(1);
    let net = mlp(&[2, 16, 3], &mut rng);
    let mut sgdm = DelayedTrainer::new(
        net,
        DelayedConfig::sgdm(8, LrSchedule::constant(Hyperparams::new(0.1, 0.9))),
    );
    for epoch in 0..10 {
        sgdm.train_epoch(&train, 5, epoch);
    }
    let (_, sgdm_acc) = evaluate(sgdm.network_mut(), &val, 16);
    let buf = save(sgdm.network_mut());

    let mut rng = StdRng::seed_from_u64(2);
    let mut net = mlp(&[2, 16, 3], &mut rng);
    load(&mut net, &buf);
    let mut pb = ScheduledTrainer::new(net, ScheduledConfig::pb(schedule()));
    for epoch in 0..4 {
        pb.train_epoch(&train, 7, epoch);
    }
    let (_, pb_acc) = evaluate(pb.network_mut(), &val, 16);
    assert!(
        pb_acc >= sgdm_acc - 0.2,
        "PB fine-tuning broke the checkpoint: {sgdm_acc} → {pb_acc}"
    );
}
