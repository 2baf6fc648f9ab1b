//! The Appendix G.2 simulator, one row at a time: uniform delays, weight
//! inconsistency, mitigation, random (ASGD-style) delays and Adam — all
//! `DelayedConfig`s of the one `DelayedTrainer`, on a small CNN.
//!
//! ```sh
//! cargo run --release --example delayed_gradients
//! ```

use pipelined_backprop::data::{DatasetSpec, SyntheticImages};
use pipelined_backprop::nn::models::simple_cnn;
use pipelined_backprop::optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pipelined_backprop::pipeline::{
    evaluate, DelayDistribution, DelayedConfig, DelayedTrainer, TrainEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let spec = DatasetSpec::cifar_sim(12);
    let gen = SyntheticImages::new(spec, 3);
    let train = gen.generate(600, 0);
    let val = gen.generate(150, 1);
    let batch = 8usize;
    let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, batch);
    let schedule = LrSchedule::constant(hp);
    let epochs = 12;

    let fresh = || {
        let mut rng = StdRng::seed_from_u64(1);
        simple_cnn(3, 12, 6, spec.num_classes, &mut rng)
    };

    println!("{:<44} {:>8}", "configuration", "val acc");
    println!("{}", "-".repeat(54));

    // Constant delays, consistent vs inconsistent weights (Figure 10);
    // random delays (ASGD simulation); Adam under the same delay.
    for (label, cfg) in [
        ("no delay", DelayedConfig::sgdm(batch, schedule.clone())),
        (
            "delay 12, consistent weights",
            DelayedConfig::consistent(12, batch, schedule.clone()),
        ),
        (
            "delay 12, inconsistent weights",
            DelayedConfig::inconsistent(12, batch, schedule.clone()),
        ),
        (
            "delay 12 + LWPvD+SCD mitigation",
            DelayedConfig::consistent(12, batch, schedule.clone())
                .with_mitigation(Mitigation::lwpv_scd()),
        ),
        (
            "ASGD: uniform delay 0..=24",
            DelayedConfig::asgd(
                DelayDistribution::Uniform { max: 24 },
                batch,
                schedule.clone(),
                5,
            ),
        ),
        (
            "ASGD: straggler tail (mean 12)",
            DelayedConfig::asgd(
                DelayDistribution::Geometric { p: 0.926, max: 96 },
                batch,
                schedule.clone(),
                5,
            ),
        ),
        ("delay 12, Adam", DelayedConfig::adam(12, batch, 1e-3)),
    ] {
        let mut trainer = DelayedTrainer::new(fresh(), cfg);
        for epoch in 0..epochs {
            trainer.train_epoch(&train, 7, epoch);
        }
        let (_, acc) = evaluate(trainer.network_mut(), &val, 16);
        println!("{label:<44} {:>7.1}%", 100.0 * acc);
    }
}
