//! Ablation (Appendix G.2): random gradient delays as in asynchronous SGD.
//! Compares constant delay against uniform and straggler-tailed (geometric)
//! delay distributions with the same mean.

use pbp_bench::{cifar_data, mean_std, Budget, Table};
use pbp_nn::models::simple_cnn;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{
    run_training, DelayDistribution, DelayedConfig, EngineSpec, NoHooks, RunConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(1200, 300, 8, 2);
    let (train, val) = cifar_data(12, budget.train_samples, budget.val_samples);
    let batch = 8usize;
    let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, batch);

    // Three distributions with mean delay 8.
    let cases = [
        ("constant D=8", DelayDistribution::Constant(8)),
        ("uniform 0..=16", DelayDistribution::Uniform { max: 16 }),
        (
            "geometric tail (p=.889, max=64)",
            DelayDistribution::Geometric { p: 0.889, max: 64 },
        ),
        ("no delay", DelayDistribution::Constant(0)),
    ];

    println!(
        "== Ablation: ASGD-style random delays ({} seeds) ==\n",
        budget.seeds
    );
    let mut table = Table::new(["distribution", "mean delay", "val acc"]);
    for (name, dist) in cases {
        let mut accs = Vec::new();
        for seed in 0..budget.seeds as u64 {
            let spec = EngineSpec::Delayed(DelayedConfig::asgd(
                dist,
                batch,
                LrSchedule::constant(hp),
                31 + seed,
            ));
            let mut rng = StdRng::seed_from_u64(9700 + seed);
            let mut engine = spec.build(simple_cnn(3, 12, 6, 10, &mut rng));
            let run_config = RunConfig::new(budget.epochs, seed).eval_last_only();
            let report = run_training(engine.as_mut(), &train, &val, &run_config, &mut NoHooks);
            accs.push(report.final_val_acc());
            eprint!(".");
        }
        let (m, s) = mean_std(&accs);
        table.row([
            name.to_string(),
            format!("{:.1}", dist.mean()),
            format!("{:.1}±{:.1}%", 100.0 * m, 100.0 * s),
        ]);
    }
    eprintln!();
    table.print();
    println!(
        "\nExpectation: all delayed variants trail the no-delay run. Note that\n\
         distributions are matched on the MEAN delay, and what hurts is the\n\
         typical delay: the straggler-tailed (geometric) distribution has a\n\
         median well below its mean, so it degrades the least, while the\n\
         constant distribution concentrates all mass at the mean."
    );
}
