//! Criterion benchmarks comparing training-engine throughput: the threaded
//! PB runtime vs threaded fill-and-drain vs the sequential engine —
//! the wall-clock version of Eq. 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pbp_data::spirals;
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{ScheduledConfig, ScheduledTrainer, ThreadedConfig, ThreadedPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WIDTHS: &[usize] = &[2, 48, 48, 48, 48, 48, 3];

fn schedule() -> LrSchedule {
    LrSchedule::constant(scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1))
}

fn fresh_net() -> Network {
    let mut rng = StdRng::seed_from_u64(0);
    mlp(WIDTHS, &mut rng)
}

fn bench_engines(c: &mut Criterion) {
    let n = 128usize;
    let data = spirals(3, 64, 0.05, 1);
    let order: Vec<usize> = (0..n).map(|i| i % data.len()).collect();
    let mut group = c.benchmark_group("train_128_samples");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);

    let threaded = |cfg: ThreadedConfig| {
        let mut engine = ThreadedPipeline::new(fresh_net(), cfg);
        engine.stream(&data, &order).expect("clean run");
        engine
    };
    group.bench_with_input(BenchmarkId::new("threaded", "pb"), &(), |b, _| {
        b.iter(|| threaded(ThreadedConfig::pb(schedule())))
    });
    group.bench_with_input(BenchmarkId::new("threaded", "fill_drain"), &(), |b, _| {
        b.iter(|| threaded(ThreadedConfig::fill_drain(schedule())))
    });
    group.bench_with_input(BenchmarkId::new("sequential", "pb"), &(), |b, _| {
        b.iter(|| {
            let mut trainer = ScheduledTrainer::new(fresh_net(), ScheduledConfig::pb(schedule()));
            for &i in &order {
                let (x, l) = data.sample(i);
                trainer.train_sample(x, l);
            }
            trainer
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
