//! Quickstart: train one network four ways — SGDM, plain Pipelined
//! Backpropagation, PB + Spike Compensation, PB + the combined mitigation —
//! and print the resulting validation accuracies.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pipelined_backprop::data::{DatasetSpec, SyntheticImages};
use pipelined_backprop::nn::models::simple_cnn;
use pipelined_backprop::optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pipelined_backprop::pipeline::{
    DelayedConfig, DelayedTrainer, ScheduledConfig, ScheduledTrainer, TrainEngine, TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A small synthetic image-classification task (CIFAR-10 stand-in).
    let spec = DatasetSpec {
        num_classes: 4,
        channels: 3,
        size: 12,
        noise: 0.3,
        max_shift: 1,
        contrast_jitter: 0.2,
    };
    let gen = SyntheticImages::new(spec, 7);
    let train = gen.generate(400, 0);
    let val = gen.generate(120, 1);

    // Reference hyperparameters (He et al. 2016a style) at batch 32,
    // scaled to update size one with Eq. 9 — no tuning for PB.
    let reference = Hyperparams::new(0.1, 0.9);
    let hp1 = scale_hyperparams(reference, 32, 1);
    println!(
        "scaled hyperparameters for update size 1: lr={:.5} m={:.5}\n",
        hp1.lr, hp1.momentum
    );

    let epochs = 6;
    let seed = 42;
    let mut reports: Vec<TrainReport> = Vec::new();

    // --- SGDM baseline at the reference batch size: the whole-network
    // simulator at delay 0.
    {
        let mut rng = StdRng::seed_from_u64(1);
        let net = simple_cnn(3, 12, 6, spec.num_classes, &mut rng);
        let mut sgdm = DelayedTrainer::new(
            net,
            DelayedConfig::sgdm(32, LrSchedule::constant(reference)),
        );
        let mut report = TrainReport::new("SGDM (batch 32)");
        for epoch in 0..epochs {
            let train_loss = sgdm.train_epoch(&train, seed, epoch);
            let (val_loss, val_acc) =
                pipelined_backprop::pipeline::evaluate(sgdm.network_mut(), &val, 16);
            report
                .records
                .push(pipelined_backprop::pipeline::EpochRecord {
                    epoch,
                    train_loss,
                    val_loss,
                    val_acc,
                });
        }
        reports.push(report);
    }

    // --- Pipelined backpropagation variants at update size one.
    for mitigation in [Mitigation::None, Mitigation::scd(), Mitigation::lwpv_scd()] {
        let mut rng = StdRng::seed_from_u64(1);
        let net = simple_cnn(3, 12, 6, spec.num_classes, &mut rng);
        println!(
            "{}: {} pipeline stages, max delay {} updates",
            mitigation.label(),
            net.pipeline_stage_count(),
            2 * (net.pipeline_stage_count() - 1)
        );
        let config = ScheduledConfig::pb(LrSchedule::constant(hp1)).with_mitigation(mitigation);
        let mut trainer = ScheduledTrainer::new(net, config);
        reports.push(trainer.run(&train, &val, epochs, seed));
    }

    println!("\n{:<22} {:>10} {:>10}", "method", "final acc", "best acc");
    for report in &reports {
        println!(
            "{:<22} {:>9.1}% {:>9.1}%",
            report.label,
            100.0 * report.final_val_acc(),
            100.0 * report.best_val_acc()
        );
    }
}
