//! Figure 8: CIFAR-sim ResNet20 validation-accuracy curves for SGDM,
//! plain PB, PB+LWPD, PB+SCD and PB+LWPvD+SCD.
//!
//! Substitution: CIFAR-10 → synthetic CIFAR-sim at 16×16, ResNet20 at
//! width/4 (same 34-stage pipeline, same per-stage delays). Absolute
//! accuracies differ from the paper; the method ordering and the recovery
//! of the SGDM baseline by the combined mitigation are the claims under
//! test.

use pbp_bench::{cifar_data, Budget, Table};
use pbp_nn::models::{resnet_cifar, ResNetConfig};
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    run_training, DelayedConfig, EngineSpec, NoHooks, RunConfig, ScheduledConfig, TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(1500, 300, 8, 1);
    let (train, val) = cifar_data(16, budget.train_samples, budget.val_samples);
    let config = ResNetConfig {
        depth: 20,
        base_width: 4,
        in_channels: 3,
        num_classes: 10,
    };
    let reference = Hyperparams::new(0.1, 0.9); // He et al. (2016a) @ N=128
    let seed = 7u64;

    println!(
        "== Figure 8: ResNet20 ({} stages) on CIFAR-sim ==\n",
        config.expected_stage_count()
    );

    // SGDM baseline (batch 32, hyperparameters scaled from the 128
    // reference so the per-sample contribution matches PB's), then the PB
    // variants at update size one.
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
    for spec in &specs {
        let mut rng = StdRng::seed_from_u64(1000);
        let mut engine = spec.build(resnet_cifar(config, &mut rng));
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

    // Per-epoch curve table (the figure's series).
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
        "\nPaper check (Fig. 8): PB trails SGDM; each mitigation closes part of\n\
         the gap; PB+LWPvD+SCD reaches (or exceeds) the SGDM curve."
    );
}
