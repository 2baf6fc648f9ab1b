//! The traced pass of a training workload: the per-layer numbers.
//!
//! One untraced repeat gives the base throughput; one repeat with the
//! engine's tracer on and the harness's spans recorded gives the timeline;
//! the probes time each layer alone. The probes must sum back to the
//! sequential engine's time per sample (`pipeline.attribution_coverage`);
//! what they do not explain is reported as `pipeline.glue_us_per_sample`.

use crate::ledger::{self, Ledger};
use crate::probes::{self, ModelCosts};
use crate::stats::Summary;
use crate::sys;
use crate::train::{self, Model, Substrate, TrainCase};
use crate::{us, Outcome, RunOpts};
use pbp_pipeline::{ScheduledTrainer, TrainEngine};
use pbp_snapshot::{SnapshotArchive, SnapshotBuilder};
use pbp_trace::{Trace, TraceAnalysis, TracePhase, Tracer, PID_WALL};

/// What a pipelined run of these stages could at best take per sample on
/// `workers` workers: the slowest unit, or the total spread over the cores.
fn ideal_us(units: &[f64], workers: usize) -> f64 {
    let slowest = units.iter().copied().fold(0.0, f64::max);
    let spread = units.iter().sum::<f64>() / units.len().min(workers).max(1) as f64;
    slowest.max(spread)
}

/// `pipeline.schedule_gen_us`: building the engine (stage cells, version
/// FIFOs sized from the schedule) and generating the action stream of every
/// microbatch of a repeat.
fn schedule_gen_us(ledger: &mut Ledger, model: Model, n: usize) -> f64 {
    let net = model.build_net();
    let ((), took) = ledger.span("pipeline.schedule_gen", TracePhase::Snapshot, 0, || {
        std::hint::black_box(ScheduledTrainer::new(net, train::seq_config(model)));
        for i in 0..n {
            std::hint::black_box(train::PLAN.stage_actions(i));
        }
    });
    us(took)
}

struct SnapshotCosts {
    save_ms: f64,
    load_ms: f64,
    bytes: f64,
}

/// `snapshot.*`: the stall one snapshot of a trained sequential engine
/// would add — `write_state`, `save_atomic`, and a `load` back.
fn snapshot_costs(
    ledger: &mut Ledger,
    case: &TrainCase,
    data: &pbp_data::Dataset,
    order: &[usize],
) -> Result<SnapshotCosts, String> {
    let mut engine = ScheduledTrainer::new(case.model.build_net(), train::seq_config(case.model));
    TrainEngine::train_range(&mut engine, data, &order[..order.len().min(64)]);
    let path = std::path::PathBuf::from(format!("out/snapshot-{}.pbpsnap", std::process::id()));
    let (saved, save) = ledger.span("snapshot.save", TracePhase::Snapshot, 0, || {
        let mut builder = SnapshotBuilder::new();
        TrainEngine::write_state(&engine, &mut builder);
        builder.save_atomic(&path)
    });
    saved.map_err(|e| format!("snapshot save: {e}"))?;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (loaded, load) = ledger.span("snapshot.load", TracePhase::Snapshot, 0, || {
        SnapshotArchive::load(&path)
    });
    let _ = std::fs::remove_file(&path);
    loaded.map_err(|e| format!("snapshot load: {e}"))?;
    Ok(SnapshotCosts {
        save_ms: us(save) / 1e3,
        load_ms: us(load) / 1e3,
        bytes: bytes as f64,
    })
}

/// `trace.disabled_overhead_pct`: the sequential engine with no tracer
/// against the same engine handed `Tracer::disabled()`, interleaved.
fn disabled_tracer_overhead_pct(
    case: &TrainCase,
    data: &pbp_data::Dataset,
    order: &[usize],
    seed: u64,
) -> Result<f64, String> {
    let half = &order[..order.len() / 2];
    let mut plain = Ledger::new(case.name, Tracer::disabled());
    let (mut without, mut with) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        without.push(train::drive(case, data, half, seed, &mut plain, 0)?.samples_per_s());
        let mut engine =
            ScheduledTrainer::new(case.model.build_net(), train::seq_config(case.model));
        TrainEngine::set_tracer(&mut engine, Tracer::disabled());
        let (_, took) = plain.span("pipeline.train_range", TracePhase::Forward, 0, || {
            TrainEngine::train_range(&mut engine, data, half)
        });
        with.push(half.len() as f64 / took.as_secs_f64());
    }
    let (a, b) = (crate::stats::median(&without), crate::stats::median(&with));
    Ok((a - b) / a * 100.0)
}

/// Busy share of each engine lane against the makespan of the traced
/// repeat, and the shares of bubble and stall.
struct Timeline {
    bubble: f64,
    stall_share: f64,
    busy_min: f64,
    busy_max: f64,
    rank_busy: [f64; 2],
}

fn timeline(trace: &Trace) -> Timeline {
    let analysis = TraceAnalysis::of(trace, PID_WALL);
    let makespan = analysis.makespan_ns().max(1) as f64;
    let shares: Vec<f64> = analysis
        .lanes
        .iter()
        .map(|l| l.busy_ns as f64 / makespan)
        .collect();
    let window: u64 = analysis.lanes.iter().map(|l| l.window_ns).sum();
    let stall: u64 = analysis.lanes.iter().map(|l| l.stall_ns).sum();
    let rank = |r: usize| -> f64 {
        analysis
            .lanes
            .iter()
            .filter(|l| l.name.starts_with(&format!("rank{r}/")))
            .map(|l| l.busy_ns as f64 / makespan)
            .sum()
    };
    Timeline {
        bubble: analysis.bubble_fraction(),
        stall_share: stall as f64 / window.max(1) as f64,
        busy_min: shares
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        busy_max: shares.iter().copied().fold(0.0, f64::max),
        rank_busy: [rank(0), rank(1)],
    }
}

pub fn run_traced(case: &TrainCase, opts: &RunOpts) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut ledger = Ledger::new(case.name, tracer.clone());
    let mut quiet = Ledger::new(case.name, Tracer::disabled());
    let prepared = train::set_up(case, opts, &mut quiet)?;
    let (data, order) = (&prepared.data, &prepared.order);
    let n = order.len();
    let reference = train::reference(case, data, order, opts.seed);
    let mut outcome = Outcome::default();

    // The two passes whose gap is the tracing overhead.
    let threads_before = sys::live_threads();
    let untraced = train::drive(case, data, order, opts.seed, &mut quiet, 1)?;
    train::check_into(case, &untraced, &reference, "untraced repeat", &mut outcome);
    let traced = train::drive(case, data, order, opts.seed, &mut ledger, 2)?;
    train::check_into(case, &traced, &reference, "traced repeat", &mut outcome);

    // The layers alone.
    let div = opts.scale;
    let probe_samples = match case.model {
        Model::Cnn => 96,
        Model::Fine => 1024,
    } / div;
    let warm = (probe_samples / 8).max(2);
    let probe_order = &order[..probe_samples.max(warm + 4).min(n)];
    let costs = probes::model_costs(&mut ledger, case.model, data, probe_order, warm);
    let cell_us = (probes::cell_loop_us(&mut ledger, case.model, data, probe_order, warm)
        - costs.total_us())
    .max(0.0);
    let size = probes::model_size(&mut case.model.build_net(), data.sample(0).0);
    let peak = probes::peak_gflops(&mut ledger);
    let mut m: Vec<(&'static str, f64)> = vec![
        ("tensor.peak_gflops", peak),
        (
            "tensor.pool_dispatch_us",
            probes::pool_dispatch_us(&mut ledger, 2000 / div),
        ),
        (
            "tensor.pool_threads",
            pbp_tensor::pool::configured_threads() as f64,
        ),
        ("tensor.flops_per_sample", size.flops as f64),
        ("tensor.bytes_per_sample", size.bytes as f64),
        ("nn.fwd_us_per_sample", ModelCosts::sum(&costs.fwd_us)),
        ("nn.bwd_us_per_sample", ModelCosts::sum(&costs.bwd_us)),
        ("optim.step_us_per_sample", ModelCosts::sum(&costs.step_us)),
        (
            "optim.predict_us_per_sample",
            ModelCosts::sum(&costs.predict_us),
        ),
        // Computed: an LWPvD+SCD update reads weight, velocity and gradient
        // and writes weight and velocity; the prediction reads weight and
        // velocity and writes the predicted copy. Eight float passes.
        ("optim.bytes_per_step", 8.0 * 4.0 * size.params as f64),
        ("data.sample_fetch_us", costs.fetch_us),
        ("data.generate_ms", prepared.generate.as_secs_f64() * 1e3),
        ("diag.setup_first_s", prepared.took.as_secs_f64()),
        (
            "pipeline.schedule_gen_us",
            schedule_gen_us(&mut ledger, case.model, n),
        ),
        ("pipeline.cell_us_per_sample", cell_us),
    ];

    // Kernels under the layers, and what the layers add around them.
    let nn_us = ModelCosts::sum(&costs.fwd_us) + ModelCosts::sum(&costs.bwd_us);
    let kernel_us = match case.model {
        Model::Cnn => {
            let conv = probes::conv_kernels(&mut ledger, &probes::CNN_CONVS, (200 / div).max(4));
            let fc_shapes = [
                (train::CNN_WIDTH * 8 * 8, train::CNN_HIDDEN),
                (train::CNN_HIDDEN, 10),
            ];
            let fc = probes::linear_kernels(&mut ledger, &fc_shapes, 1, (200 / div).max(4));
            m.push(("tensor.gemm_gflops_cnn_b1", conv.gemm_gflops));
            m.push(("tensor.conv_fwd_us_cnn", conv.fwd_us));
            m.push(("tensor.conv_bwd_us_cnn", conv.bwd_us));
            conv.fwd_us + conv.bwd_us + fc.fwd_us + fc.bwd_us
        }
        Model::Fine => {
            let shapes: Vec<(usize, usize)> = train::FINE_WIDTHS
                .windows(2)
                .map(|w| (w[0], w[1]))
                .collect();
            let all = probes::linear_kernels(&mut ledger, &shapes, 1, (4000 / div).max(16));
            let gemv = probes::linear_kernels(&mut ledger, &[(64, 64)], 1, (20_000 / div).max(16));
            m.push(("tensor.gemv_gflops_fine", gemv.fwd_gflops));
            all.fwd_us + all.bwd_us
        }
    };
    m.push(("nn.glue_share", (1.0 - kernel_us / nn_us).max(0.0)));
    let stage_us: Vec<f64> = (0..costs.stages()).map(|s| costs.stage_us(s)).collect();
    let slowest = stage_us.iter().copied().fold(0.0, f64::max);
    m.push((
        "nn.slowest_stage_share",
        slowest / stage_us.iter().sum::<f64>(),
    ));

    // The engine against the layers.
    let cores = sys::nproc();
    m.push((
        "pipeline.mfu",
        3.0 * size.flops as f64 * n as f64 / untraced.wall.as_secs_f64() / (peak * 1e9),
    ));
    m.push((
        "pipeline.delay_eq5_match",
        train::delay_eq5_match(&untraced.metrics),
    ));
    m.push((
        "pipeline.mean_delay_stage0",
        untraced.metrics.stages[0].mean_delay(),
    ));
    m.push((
        "pipeline.ctx_switches_per_sample",
        untraced.used.ctx_switches as f64 / n as f64,
    ));
    m.push((
        "pipeline.threads",
        (threads_before.max(sys::live_threads()) + untraced.engine_threads - 1) as f64,
    ));
    m.push((
        "trace.enabled_overhead_pct",
        (untraced.samples_per_s() - traced.samples_per_s()) / untraced.samples_per_s() * 100.0,
    ));
    match case.substrate {
        Substrate::Seq => {
            let probed = costs.total_us() + cell_us;
            m.push((
                "pipeline.glue_us_per_sample",
                untraced.us_per_sample() - probed,
            ));
            m.push((
                "pipeline.attribution_coverage",
                probed / untraced.us_per_sample(),
            ));
            if case.model == Model::Fine {
                m.push((
                    "trace.disabled_overhead_pct",
                    disabled_tracer_overhead_pct(case, data, order, opts.seed)?,
                ));
            } else {
                let snap = snapshot_costs(&mut ledger, case, data, order)?;
                m.push(("snapshot.save_ms_cnn", snap.save_ms));
                m.push(("snapshot.load_ms_cnn", snap.load_ms));
                m.push(("snapshot.bytes_cnn", snap.bytes));
            }
        }
        Substrate::Threaded => {
            m.push((
                "pipeline.overhead_us_per_sample",
                untraced.us_per_sample() - ideal_us(&stage_us, cores),
            ));
        }
        Substrate::Dist2 => {
            let topology =
                pbp_dist::Topology::contiguous(costs.stages(), 2).map_err(|e| e.to_string())?;
            let rank_us: Vec<f64> = (0..2)
                .map(|r| topology.range(r).map(|s| stage_us[s]).sum())
                .collect();
            let rank_flops: Vec<f64> = (0..2)
                .map(|r| topology.range(r).map(|s| size.stage_flops[s] as f64).sum())
                .collect();
            let mean_flops = rank_flops.iter().sum::<f64>() / 2.0;
            m.push((
                "dist.split_imbalance",
                rank_flops.iter().copied().fold(0.0, f64::max) / mean_flops,
            ));
            m.push((
                "dist.overhead_us_per_sample",
                untraced.us_per_sample() - ideal_us(&rank_us, cores),
            ));
            // What crosses the wire, counted at the socket on a quarter-size
            // run over an already connected pair (hello and bye included).
            let counted_order = &order[..(n / 4).max(8)];
            let (counted, wire) =
                train::drive_connected(case, data, counted_order, opts.seed, &mut quiet, 3)?;
            let counted_reference = train::reference(case, data, counted_order, opts.seed);
            train::check_into(
                case,
                &counted,
                &counted_reference,
                "counted repeat",
                &mut outcome,
            );
            let per_sample = |total: u64| total as f64 / counted_order.len() as f64;
            m.push(("dist.syscalls_per_sample", per_sample(wire.syscalls())));
            m.push(("dist.frames_per_sample", per_sample(wire.frames())));
            m.push(("dist.bytes_per_sample", per_sample(wire.bytes())));
            let activation = probes::cut_frame(case.model, data);
            let act = probes::codec(&mut ledger, &activation, (2000 / div).max(8));
            match case.model {
                Model::Cnn => {
                    m.push(("dist.encode_us_cnn", act.encode_us));
                    m.push(("dist.decode_us_cnn", act.decode_us));
                    m.push((
                        "dist.codec_mb_per_s",
                        2.0 * act.wire_bytes as f64 / (act.encode_us + act.decode_us),
                    ));
                }
                Model::Fine => m.push(("dist.encode_us_fine", act.encode_us)),
            }
            let links = probes::link_costs(&mut ledger, (2000 / div).max(16))?;
            m.push(("dist.rtt_us_loopback", links.rtt_loopback_us));
            m.push(("dist.rtt_us_unix", links.rtt_unix_us));
            m.push(("dist.establish_ms", links.establish_ms));
        }
    }

    // The timeline of the traced repeat.
    ledger.flush();
    drop(ledger);
    let trace = tracer.finish();
    let engine_spans: usize = trace.lanes_of(PID_WALL).map(|l| l.spans.len()).sum();
    m.push(("trace.spans_per_sample", engine_spans as f64 / n as f64));
    let call = if case.substrate == Substrate::Dist2 {
        "dist.run_rank"
    } else {
        "pipeline.train_range"
    };
    if let Some(self_ns) = ledger::span_self_ns(&trace, case.name, call, 2, PID_WALL) {
        m.push((
            "trace.train_self_us_per_sample",
            self_ns as f64 / 1e3 / n as f64,
        ));
    }
    if case.substrate != Substrate::Seq {
        let t = timeline(&trace);
        if case.substrate == Substrate::Threaded {
            m.push(("pipeline.bubble_fraction", t.bubble));
            m.push(("pipeline.stall_share", t.stall_share));
            m.push(("pipeline.stage_busy_share_min", t.busy_min));
            m.push(("pipeline.stage_busy_share_max", t.busy_max));
        } else {
            m.push(("dist.rank_busy_share_0", t.rank_busy[0]));
            m.push(("dist.rank_busy_share_1", t.rank_busy[1]));
        }
    }
    let path = format!("out/trace_{}.json", case.name);
    trace.write(&path).map_err(|e| format!("{path}: {e}"))?;
    outcome.note("trace_file", format!("benchmark/{path}"));
    outcome.note("trace_spans", trace.span_count());
    outcome.note("untraced_samples_per_s", untraced.samples_per_s());
    outcome.note("traced_samples_per_s", traced.samples_per_s());
    outcome.metrics = m
        .into_iter()
        .map(|(k, v)| (k, Summary::single(v)))
        .collect();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_time_is_the_slowest_unit_or_the_even_split() {
        // One dominant stage bounds the pipeline whatever the core count.
        assert_eq!(ideal_us(&[10.0, 1.0, 1.0], 8), 10.0);
        // Balanced stages on fewer cores than stages: total over cores.
        assert_eq!(ideal_us(&[2.0, 2.0, 2.0, 2.0], 2), 4.0);
        // More cores than stages does not split a stage.
        assert_eq!(ideal_us(&[3.0, 3.0], 16), 3.0);
    }
}
