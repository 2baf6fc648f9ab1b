//! Figure 16 (Appendix H.2): framework validation — batch-parallel SGD
//! and fill-and-drain pipeline SGD must optimize identically (they are the
//! same algorithm on different schedules). The paper validated GProp's two
//! SGD modes against PyTorch; here the reference implementation is the
//! sequential SGDM (`DelayedConfig::sgdm`).

use pbp_bench::{cifar_data, mean_std, Budget, Table};
use pbp_nn::models::{vgg, VggVariant};
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{run_training, DelayedConfig, EngineSpec, NoHooks, RunConfig, ScheduledConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(1200, 300, 6, 4);
    let (train, val) = cifar_data(32, budget.train_samples, budget.val_samples);
    let batch = 32usize;
    let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, batch);

    println!(
        "== Figure 16: batch-parallel SGD vs fill&drain SGD (VGG11, {} seeds) ==\n",
        budget.seeds
    );
    let mut table = Table::new(["epoch", "batch SGD val acc", "fill&drain val acc", "|Δ|"]);
    let mut per_epoch: Vec<(Vec<f64>, Vec<f64>)> = (0..budget.epochs)
        .map(|_| (Vec::new(), Vec::new()))
        .collect();
    let mut util = 0.0;

    let sgd_spec = EngineSpec::Delayed(DelayedConfig::sgdm(batch, LrSchedule::constant(hp)));
    let fd_spec =
        EngineSpec::Scheduled(ScheduledConfig::fill_drain(batch, LrSchedule::constant(hp)));
    for seed in 0..budget.seeds as u64 {
        let run_config = RunConfig::new(budget.epochs, seed);
        let mut rng = StdRng::seed_from_u64(6000 + seed);
        let mut sgd = sgd_spec.build(vgg(VggVariant::Vgg11, 16, 3, 10, 0.2, &mut rng));
        let mut rng = StdRng::seed_from_u64(6000 + seed);
        let mut fd = fd_spec.build(vgg(VggVariant::Vgg11, 16, 3, 10, 0.2, &mut rng));
        let sgd_report = run_training(sgd.as_mut(), &train, &val, &run_config, &mut NoHooks);
        let fd_report = run_training(fd.as_mut(), &train, &val, &run_config, &mut NoHooks);
        for (epoch, slot) in per_epoch.iter_mut().enumerate() {
            slot.0.push(sgd_report.records[epoch].val_acc);
            slot.1.push(fd_report.records[epoch].val_acc);
        }
        util = fd.metrics().occupancy.unwrap_or(0.0);
        eprint!(".");
    }
    eprintln!();

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
        "\nfill&drain pipeline utilization at N={batch} over {} stages: {:.1}% \
         (Eq. 1 bound)",
        VggVariant::Vgg11.expected_stage_count(),
        100.0 * util
    );
    println!(
        "\nPaper check (Fig. 16): the two SGD modes produce statistically\n\
         indistinguishable training curves — the pipeline schedule changes\n\
         utilization, not optimization."
    );
}
