//! Ablation (Discussion section): a learning-rate warmup as an additional
//! stabilizer for PB. The paper argues delays hurt most early in training,
//! when parameters change fastest, so a warmup should help plain PB more
//! than it helps mitigated PB.

use pbp_bench::{cifar_data, mean_std, Budget, Table};
use pbp_nn::models::{resnet_cifar, ResNetConfig};
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{run_training, EngineSpec, NoHooks, RunConfig, ScheduledConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(1500, 300, 6, 2);
    let (train, val) = cifar_data(16, budget.train_samples, budget.val_samples);
    let config = ResNetConfig {
        depth: 32,
        base_width: 4,
        in_channels: 3,
        num_classes: 10,
    };
    let hp1 = scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, 1);
    let warmup_samples = budget.train_samples; // one epoch of linear warmup

    println!(
        "== Ablation: LR warmup for PB (ResNet32, {} stages, {} seeds) ==\n",
        config.expected_stage_count(),
        budget.seeds
    );
    let mut table = Table::new(["method", "no warmup", "1-epoch warmup"]);
    for mitigation in [Mitigation::None, Mitigation::scd(), Mitigation::lwpv_scd()] {
        let mut row = vec![mitigation.label()];
        for warmup in [false, true] {
            let mut accs = Vec::new();
            for seed in 0..budget.seeds as u64 {
                let mut schedule = LrSchedule::constant(hp1);
                if warmup {
                    schedule = schedule.with_warmup(warmup_samples);
                }
                let spec = EngineSpec::Scheduled(
                    ScheduledConfig::pb(schedule).with_mitigation(mitigation),
                );
                let mut rng = StdRng::seed_from_u64(8000 + seed);
                let mut engine = spec.build(resnet_cifar(config, &mut rng));
                let run_config = RunConfig::new(budget.epochs, seed).eval_last_only();
                let report = run_training(engine.as_mut(), &train, &val, &run_config, &mut NoHooks);
                accs.push(report.final_val_acc());
            }
            let (m, s) = mean_std(&accs);
            row.push(format!("{:.2}±{:.2}", 100.0 * m, 100.0 * s));
            eprint!(".");
        }
        table.row(row);
    }
    eprintln!();
    table.print();
    println!(
        "\nPaper check (Discussion): \"a learning rate warmup may help stabilize\n\
         PB training\" — the warmup column should help plain PB noticeably and\n\
         mitigated PB less (its delay compensation already absorbs the early\n\
         instability)."
    );
}
