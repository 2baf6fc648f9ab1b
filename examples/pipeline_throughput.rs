//! Systems demonstration: the threaded pipeline runtime versus
//! fill-and-drain, in real wall-clock throughput, next to the analytic
//! utilization bound of Eq. 1.
//!
//! ```sh
//! cargo run --release --example pipeline_throughput
//! ```

use pipelined_backprop::data::spirals;
use pipelined_backprop::nn::models::mlp;
use pipelined_backprop::optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pipelined_backprop::pipeline::{
    fill_drain_utilization, stage_cost, ThreadedConfig, ThreadedPipeline, TrainEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1);
    let schedule = LrSchedule::constant(hp);

    // A deep, skinny MLP: many pipeline stages, the regime where fill and
    // drain hurts most.
    let widths = [2usize, 64, 64, 64, 64, 64, 64, 64, 64, 3];
    let data = spirals(3, 200, 0.05, 1);
    let order: Vec<usize> = (0..1200).map(|i| i % data.len()).collect();

    // Layer stages + loss.
    let stages = widths.len();
    // The threaded engine's rule: one worker per layer stage, or as many
    // as the thread budget (`PBP_THREADS`, else the core count) holds, cut
    // so that the costliest worker carries as little as possible.
    let engine = ThreadedPipeline::new(
        mlp(&widths, &mut StdRng::seed_from_u64(3)),
        ThreadedConfig::pb(schedule.clone()),
    );
    let bounds = engine.worker_bounds();
    let costs: Vec<u64> = engine.into_network().stages().map(stage_cost).collect();
    let total: u64 = costs.iter().sum();
    let shares: Vec<String> = bounds
        .windows(2)
        .map(|run| costs[run[0]..run[1]].iter().sum::<u64>())
        .map(|cost| format!("{:.0}%", 100.0 * cost as f64 / total as f64))
        .collect();
    println!(
        "pipeline stages: {stages} (on {} worker threads, cut at {bounds:?}: {} of the cost)",
        bounds.len() - 1,
        shares.join(" / ")
    );
    println!(
        "analytic fill&drain utilization at N=1 (Eq. 1): {:.1}%\n",
        100.0 * fill_drain_utilization(1, stages)
    );

    // Streams the samples through a fresh threaded engine; returns the
    // per-sample losses and the measured samples per second.
    let run = |config: ThreadedConfig| -> (Vec<f32>, f64) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = ThreadedPipeline::new(mlp(&widths, &mut rng), config);
        let losses = engine.stream(&data, &order).expect("clean run");
        (losses, engine.metrics().samples_per_sec())
    };
    let (_, fd) = run(ThreadedConfig::fill_drain(schedule.clone()));
    let (_, pb) = run(ThreadedConfig::pb(schedule.clone()));
    let (losses, pbm) = run(ThreadedConfig::pb(schedule).with_mitigation(Mitigation::lwpv_scd()));

    println!("{:<28} {:>14} {:>12}", "mode", "samples/sec", "speedup");
    println!("{:<28} {:>14.0} {:>11.2}x", "fill&drain (N=1)", fd, 1.0);
    println!(
        "{:<28} {:>14.0} {:>11.2}x",
        "pipelined backprop",
        pb,
        pb / fd
    );
    println!("{:<28} {:>14.0} {:>11.2}x", "PB + LWPvD+SCD", pbm, pbm / fd);

    let head: f32 = losses[..100].iter().sum::<f32>() / 100.0;
    let tail: f32 = losses[losses.len() - 100..].iter().sum::<f32>() / 100.0;
    println!("\nPB+mitigation loss: first 100 samples {head:.3} → last 100 samples {tail:.3}");
}
