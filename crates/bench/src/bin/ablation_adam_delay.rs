//! Ablation (Discussion section): "Optimizers such as ADAM may also
//! increase delay tolerance." Compares SGDM vs Adam under increasing
//! uniform, consistent gradient delay.
//!
//! Both columns are rows of the one Appendix G.2 simulator
//! ([`DelayedConfig::consistent`] and [`DelayedConfig::adam`]): same
//! delay ring, same loop, only the update rule differs.

use pbp_bench::{cifar_data, mean_std, Budget, Table};
use pbp_nn::models::simple_cnn;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{run_training, DelayedConfig, EngineSpec, NoHooks, RunConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(1200, 300, 8, 2);
    let (train, val) = cifar_data(12, budget.train_samples, budget.val_samples);
    let batch = 8usize;
    let sgdm_hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, batch);
    let adam_lr = 1e-3f32;
    let delays = [0usize, 4, 8, 16, 32];

    println!(
        "== Ablation: Adam vs SGDM under gradient delay ({} seeds) ==\n\
           (SGDM lr={:.4} m={:.4}; Adam lr={adam_lr})\n",
        budget.seeds, sgdm_hp.lr, sgdm_hp.momentum
    );
    let mut table = Table::new(["delay", "SGDM", "Adam"]);
    for &delay in &delays {
        let sgdm_spec = EngineSpec::Delayed(DelayedConfig::consistent(
            delay,
            batch,
            LrSchedule::constant(sgdm_hp),
        ));
        let adam_spec = EngineSpec::Delayed(DelayedConfig::adam(delay, batch, adam_lr));
        let mut sgdm_accs = Vec::new();
        let mut adam_accs = Vec::new();
        for seed in 0..budget.seeds as u64 {
            let run_config = RunConfig::new(budget.epochs, seed).eval_last_only();
            for (spec, accs) in [(&sgdm_spec, &mut sgdm_accs), (&adam_spec, &mut adam_accs)] {
                let mut rng = StdRng::seed_from_u64(9500 + seed);
                let mut engine = spec.build(simple_cnn(3, 12, 6, 10, &mut rng));
                let report = run_training(engine.as_mut(), &train, &val, &run_config, &mut NoHooks);
                accs.push(report.final_val_acc());
            }
            eprint!(".");
        }
        let (ms, ss) = mean_std(&sgdm_accs);
        let (ma, sa) = mean_std(&adam_accs);
        table.row([
            delay.to_string(),
            format!("{:.1}±{:.1}%", 100.0 * ms, 100.0 * ss),
            format!("{:.1}±{:.1}%", 100.0 * ma, 100.0 * sa),
        ]);
    }
    eprintln!();
    table.print();
    println!(
        "\nPaper check (Discussion): Adam's per-coordinate normalization damps\n\
         the effective step size, so its accuracy should degrade more slowly\n\
         with delay than momentum SGD's."
    );
}
