//! Engine benchmark: runs every training engine — including the 1F1B and
//! 2BP schedules — on one fixed workload through the shared
//! [`run_training`] loop, prints a comparison table and writes the full
//! per-stage metrics (updates, busy time, effective-delay histograms,
//! occupancy, throughput) to `results/BENCH_engines.json` via the
//! [`JsonSink`] observer.

use pbp_bench::{cifar_data, Budget, Table};
use pbp_nn::models::simple_cnn;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    run_training, DelayDistribution, DelayedConfig, EngineSpec, JsonSink, MetricsSink, RunConfig,
    ScheduledConfig, ThreadedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Budget::new(600, 150, 4, 1);
    let (train, val) = cifar_data(12, budget.train_samples, budget.val_samples);
    let batch = 8usize;
    let reference = Hyperparams::new(0.1, 0.9);
    let hp_batch = scale_hyperparams(reference, 128, batch);
    let hp1 = scale_hyperparams(reference, 128, 1);
    let seed = 13u64;

    let specs = vec![
        EngineSpec::Sgdm {
            schedule: LrSchedule::constant(hp_batch),
            batch,
        },
        // Fill&drain applies the mean gradient of each N-sample update, so
        // it takes the batch-N hyperparameters, not the per-sample ones.
        EngineSpec::Scheduled(ScheduledConfig::fill_drain(
            batch,
            LrSchedule::constant(hp_batch),
        )),
        EngineSpec::Scheduled(
            ScheduledConfig::pb(LrSchedule::constant(hp1)).with_mitigation(Mitigation::lwpv_scd()),
        ),
        EngineSpec::Delayed(DelayedConfig::consistent(
            4,
            batch,
            LrSchedule::constant(hp_batch),
        )),
        EngineSpec::Asgd {
            distribution: DelayDistribution::Uniform { max: 8 },
            batch,
            schedule: LrSchedule::constant(hp_batch),
            delay_seed: 17,
        },
        EngineSpec::Threaded(ThreadedConfig::pb(LrSchedule::constant(hp1))),
        // 1F1B/2BP apply the mean gradient of M microbatches per update,
        // so like fill&drain they take the batch-M hyperparameters.
        EngineSpec::Scheduled(ScheduledConfig::one_f_one_b(
            batch,
            LrSchedule::constant(hp_batch),
        )),
        EngineSpec::Scheduled(ScheduledConfig::two_bp(
            batch,
            LrSchedule::constant(hp_batch),
        )),
    ];

    println!(
        "== Engine benchmark: {} engines, {} train / {} val samples, {} epochs ==\n",
        specs.len(),
        train.len(),
        val.len(),
        budget.epochs
    );

    let mut sink = JsonSink::new("results/BENCH_engines.json");
    let mut table = Table::new([
        "engine",
        "val acc",
        "samples/s",
        "updates",
        "mean delay",
        "occupancy",
    ]);
    for spec in &specs {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut engine = spec.build(simple_cnn(3, 12, 6, 10, &mut rng));
        let config = RunConfig::new(budget.epochs, seed);
        let report = run_training(engine.as_mut(), &train, &val, &config, &mut sink);
        let metrics = engine.metrics();
        let mean_delay = {
            let with_updates: Vec<_> = metrics.stages.iter().filter(|s| s.updates > 0).collect();
            if with_updates.is_empty() {
                0.0
            } else {
                with_updates.iter().map(|s| s.mean_delay()).sum::<f64>() / with_updates.len() as f64
            }
        };
        table.row([
            report.label.clone(),
            format!("{:.1}%", 100.0 * report.final_val_acc()),
            format!("{:.0}", metrics.samples_per_sec()),
            metrics.total_updates().to_string(),
            format!("{mean_delay:.2}"),
            match metrics.occupancy {
                Some(o) => format!("{:.1}%", 100.0 * o),
                None => "-".to_string(),
            },
        ]);
        eprint!(".");
    }
    eprintln!();
    table.print();

    sink.write().expect("write results/BENCH_engines.json");
    println!(
        "\nwrote per-stage metrics for {} runs to {}",
        sink.len(),
        sink.path().display()
    );
    println!(
        "\nNotes: PB runs at update size one (samples/s is per-sample work,\n\
         not comparable to the batched engines' per-batch forward); the\n\
         fill&drain occupancy is Eq. 1 at N={batch}, PB's is the Figure 2\n\
         schedule model; mean delay averages each engine's per-stage\n\
         effective-delay histograms."
    );
}
