//! Figure 9: ImageNet-sim ResNet50 validation-accuracy curves (single
//! run), same five methods as Figure 8.
//!
//! Substitution: ImageNet → a harder 20-class synthetic task; ResNet50 →
//! the bottleneck pre-activation analogue with the same 78-stage pipeline
//! (maximum gradient delay 154 updates).

use pbp_bench::{imagenet_data, Budget, Table};
use pbp_nn::models::resnet50_like;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    run_training, DelayedConfig, EngineSpec, NoHooks, RunConfig, ScheduledConfig, TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(2000, 400, 8, 1);
    let (train, val) = imagenet_data(24, budget.train_samples, budget.val_samples);
    let reference = Hyperparams::new(0.1, 0.9); // He et al. @ N=256 for ImageNet; we use 128
    let seed = 9u64;

    let hp32 = scale_hyperparams(reference, 128, 32);
    let hp1 = scale_hyperparams(reference, 128, 1);
    let mut specs = vec![EngineSpec::Delayed(DelayedConfig::sgdm(
        32,
        LrSchedule::constant(hp32),
    ))];
    for mitigation in [
        Mitigation::None,
        Mitigation::lwpd(),
        Mitigation::scd(),
        Mitigation::lwpv_scd(),
    ] {
        specs.push(EngineSpec::Scheduled(
            ScheduledConfig::pb(LrSchedule::constant(hp1)).with_mitigation(mitigation),
        ));
    }

    let run_config = RunConfig::new(budget.epochs, seed);
    let mut reports: Vec<TrainReport> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(2000);
        let net = resnet50_like(4, 3, 20, &mut rng);
        if i == 0 {
            println!(
                "== Figure 9: ResNet50-like ({} stages) on ImageNet-sim ==\n",
                net.pipeline_stage_count()
            );
        }
        let mut engine = spec.build(net);
        reports.push(run_training(
            engine.as_mut(),
            &train,
            &val,
            &run_config,
            &mut NoHooks,
        ));
        eprint!(".");
    }
    eprintln!();

    let mut headers = vec!["epoch".to_string()];
    headers.extend(reports.iter().map(|r| r.label.clone()));
    let mut table = Table::new(headers);
    for epoch in 0..budget.epochs {
        let mut row = vec![epoch.to_string()];
        for report in &reports {
            row.push(format!("{:.1}%", 100.0 * report.records[epoch].val_acc));
        }
        table.row(row);
    }
    table.print();

    println!("\nfinal validation accuracy:");
    let mut final_table = Table::new(["method", "val acc"]);
    for report in &reports {
        final_table.row([
            report.label.clone(),
            format!("{:.1}%", 100.0 * report.final_val_acc()),
        ]);
    }
    final_table.print();
    println!(
        "\nPaper check (Fig. 9): with 78 stages the plain-PB gap is larger than\n\
         on ResNet20; single mitigations recover only part of it; the combined\n\
         PB+LWPvD+SCD is the closest to (or matches) SGDM."
    );
}
