//! The unified engine interface: build any engine from an [`EngineSpec`],
//! drive it through the shared [`run_training`] loop, and print the
//! per-stage instrumentation (updates, busy time, effective-delay
//! histograms, occupancy) as JSON.

use pipelined_backprop::data::blobs;
use pipelined_backprop::nn::models::mlp;
use pipelined_backprop::optim::{Hyperparams, LrSchedule, Mitigation};
use pipelined_backprop::pipeline::{
    run_training, DelayedConfig, EngineSpec, RunConfig, ScheduledConfig,
};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let data = blobs(3, 60, 0.4, 0);
    let (train, val) = data.split(0.25);
    let schedule = || LrSchedule::constant(Hyperparams::new(0.05, 0.9));

    // Every engine is constructed the same way and runs through the same
    // loop; swap the spec to swap the training algorithm.
    let specs = [
        EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule())),
        // Another row of the same whole-network simulator: Adam, with
        // every gradient two updates stale.
        EngineSpec::Delayed(DelayedConfig::adam(2, 4, 0.01)),
        EngineSpec::Scheduled(
            ScheduledConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd()),
        ),
    ];

    for spec in &specs {
        let mut rng = StdRng::seed_from_u64(0);
        let mut engine = spec.build(mlp(&[2, 16, 3], &mut rng));
        let config = RunConfig::new(6, 0);
        let report = run_training(engine.as_mut(), &train, &val, &config);
        let m = engine.metrics();
        println!(
            "{:<14} final acc {:>5.1}%   {:>6.0} samples/s   {} stage updates",
            report.label,
            100.0 * report.final_val_acc(),
            m.samples_per_sec(),
            m.total_updates(),
        );
        println!("  {}", m.to_json());
    }

    // Evaluation is a cadence: here only after the final epoch.
    let mut engine = EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule()))
        .build(mlp(&[2, 16, 3], &mut StdRng::seed_from_u64(0)));
    let report = run_training(
        engine.as_mut(),
        &train,
        &val,
        &RunConfig::new(2, 0).eval_last_only(),
    );
    println!(
        "eval_last_only: 2 epochs trained, {} record(s) kept",
        report.records.len()
    );
}
