//! Figure 17 (Appendix H.4): the hyperparameter scaling rules of Eq. 9 —
//! training at batch 1 with scaled (η, m) should match the reference-batch
//! training curve sample-for-sample.

use pbp_bench::{cifar_data, mean_std, Budget, Table};
use pbp_nn::models::simple_cnn;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{run_training, DelayedConfig, EngineSpec, NoHooks, RunConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(1500, 300, 6, 3);
    let (train, val) = cifar_data(12, budget.train_samples, budget.val_samples);
    let reference_batch = 32usize;
    let reference = scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, reference_batch);
    let scaled = scale_hyperparams(reference, reference_batch, 1);

    println!("== Figure 17: Eq. 9 hyperparameter scaling, batch {reference_batch} vs batch 1 ==");
    println!(
        "reference: lr={:.4} m={:.4}   scaled (N=1): lr={:.6} m={:.6}\n",
        reference.lr, reference.momentum, scaled.lr, scaled.momentum
    );

    let mut per_epoch: Vec<(Vec<f64>, Vec<f64>)> = (0..budget.epochs)
        .map(|_| (Vec::new(), Vec::new()))
        .collect();
    let big_spec = EngineSpec::Delayed(DelayedConfig::sgdm(
        reference_batch,
        LrSchedule::constant(reference),
    ));
    let one_spec = EngineSpec::Delayed(DelayedConfig::sgdm(1, LrSchedule::constant(scaled)));
    for seed in 0..budget.seeds as u64 {
        let run_config = RunConfig::new(budget.epochs, seed);
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let mut big = big_spec.build(simple_cnn(3, 12, 6, 10, &mut rng));
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let mut one = one_spec.build(simple_cnn(3, 12, 6, 10, &mut rng));
        let big_report = run_training(big.as_mut(), &train, &val, &run_config, &mut NoHooks);
        let one_report = run_training(one.as_mut(), &train, &val, &run_config, &mut NoHooks);
        for (epoch, slot) in per_epoch.iter_mut().enumerate() {
            slot.0.push(big_report.records[epoch].val_acc);
            slot.1.push(one_report.records[epoch].val_acc);
        }
        eprint!(".");
    }
    eprintln!();

    let mut table = Table::new([
        "epoch".to_string(),
        format!("batch {reference_batch}"),
        "batch 1 (scaled)".to_string(),
        "|Δ|".to_string(),
    ]);
    for (epoch, (a, b)) in per_epoch.iter().enumerate() {
        let (ma, sa) = mean_std(a);
        let (mb, sb) = mean_std(b);
        table.row([
            epoch.to_string(),
            format!("{:.1}±{:.1}%", 100.0 * ma, 100.0 * sa),
            format!("{:.1}±{:.1}%", 100.0 * mb, 100.0 * sb),
            format!("{:.2}%", 100.0 * (ma - mb).abs()),
        ]);
    }
    table.print();
    println!(
        "\nPaper check (Fig. 17): the scaled batch-1 run tracks the reference\n\
         batch-{reference_batch} curve within run-to-run noise — the scaling rules let PB\n\
         reuse published large-batch hyperparameters without tuning."
    );
}
