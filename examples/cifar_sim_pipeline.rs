//! Fine-grained pipelined backpropagation on a real paper architecture:
//! ResNet20 with group normalization (34 pipeline stages, maximum gradient
//! delay 66 updates) on the synthetic CIFAR-10 stand-in, comparing SGDM,
//! plain PB and PB with the combined mitigation — a scaled-down Figure 8.
//!
//! ```sh
//! cargo run --release --example cifar_sim_pipeline
//! ```

use pipelined_backprop::data::{DatasetSpec, SyntheticImages};
use pipelined_backprop::nn::models::{resnet_cifar, ResNetConfig};
use pipelined_backprop::optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pipelined_backprop::pipeline::{
    DelayedConfig, DelayedTrainer, ScheduledConfig, ScheduledTrainer, TrainEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let spec = DatasetSpec::cifar_sim(16);
    let gen = SyntheticImages::new(spec, 11);
    let train = gen.generate(600, 0);
    let val = gen.generate(200, 1);

    let config = ResNetConfig {
        depth: 20,
        base_width: 4, // reduced width; stage structure identical to RN20
        in_channels: 3,
        num_classes: spec.num_classes,
    };
    let reference = Hyperparams::new(0.1, 0.9);
    let hp1 = scale_hyperparams(reference, 32, 1);
    let epochs = 4;
    let seed = 7;

    println!(
        "ResNet20 (width/4), {} pipeline stages",
        config.expected_stage_count()
    );
    println!(
        "update-size-1 hyperparameters (Eq. 9): lr={:.5} m={:.5}\n",
        hp1.lr, hp1.momentum
    );

    // SGDM baseline at batch 32: the whole-network simulator at delay 0.
    let mut rng = StdRng::seed_from_u64(1);
    let net = resnet_cifar(config, &mut rng);
    let mut sgdm = DelayedTrainer::new(
        net,
        DelayedConfig::sgdm(32, LrSchedule::constant(reference)),
    );
    let mut sgdm_acc = 0.0;
    for epoch in 0..epochs {
        let loss = sgdm.train_epoch(&train, seed, epoch);
        let (_, acc) = pipelined_backprop::pipeline::evaluate(sgdm.network_mut(), &val, 16);
        sgdm_acc = acc;
        println!(
            "SGDM          epoch {epoch}: loss {loss:.3} val acc {:.1}%",
            100.0 * acc
        );
    }
    println!();

    // PB variants at update size one.
    let mut results = vec![("SGDM (batch 32)".to_string(), sgdm_acc)];
    for mitigation in [Mitigation::None, Mitigation::lwpv_scd()] {
        let mut rng = StdRng::seed_from_u64(1);
        let net = resnet_cifar(config, &mut rng);
        let cfg = ScheduledConfig::pb(LrSchedule::constant(hp1)).with_mitigation(mitigation);
        let mut trainer = ScheduledTrainer::new(net, cfg);
        let report = trainer.run(&train, &val, epochs, seed);
        for r in &report.records {
            println!(
                "{:<13} epoch {}: loss {:.3} val acc {:.1}%",
                report.label,
                r.epoch,
                r.train_loss,
                100.0 * r.val_acc
            );
        }
        println!();
        results.push((report.label.clone(), report.final_val_acc()));
    }

    println!("{:<22} {:>10}", "method", "final acc");
    for (label, acc) in results {
        println!("{label:<22} {:>9.1}%", 100.0 * acc);
    }
}
