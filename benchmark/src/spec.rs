//! The ledger's fixed vocabulary: workload names, end-to-end metrics with
//! their bounds, and per-layer metrics with the end-to-end metric each is
//! expected to move. `BENCHMARK.json` at the repo root restates the driver's
//! workloads and the first three columns of the metric tables; a self-test
//! keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads the driver runs and gates, restated in `BENCHMARK.json`:
/// the compute-heavy model on every substrate, and serving. On each the
/// cores stay busy, so what is timed is the program.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "cnn.seq",
        why: "Single-worker PB baseline on compute-heavy conv stages: tensor/nn/optim do nearly all the work, so a kernel or optimizer-step gain shows here first.",
    },
    WorkloadSpec {
        name: "cnn.threaded",
        why: "Eq. 1 on stages big enough to amortise a channel hop: bound by the slowest stage and stalls, so stage balance should move it and wake-up cost should not.",
    },
    WorkloadSpec {
        name: "cnn.dist2",
        why: "Two socket ranks exchanging one conv activation per sample: encode/CRC/copy bytes and rank imbalance dominate, per-frame syscall cost does not.",
    },
    WorkloadSpec {
        name: "serve.vgg",
        why: "Eval-mode batched inference through the dynamic batcher: wide GEMMs, no backward - catches kernels tuned for batch-1 training that hurt batched shapes.",
    },
];

/// Workloads `--all` runs after those, for people and for `compare`, which
/// the driver does not gate: within its time limit four workloads can run
/// long enough to be steady on a shared two-core box, not seven, and on
/// `fine.dist2` two mostly idle ranks wake each other per frame, so its
/// throughput sits in two states 35 % apart by how fast the host wakes an
/// idle core — the scheduler's doing, which no run length averages out.
pub const EXTRA_WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "fine.seq",
        why: "The paper's fine-grained regime (one 64-wide layer per stage, batch 1): kernels take microseconds, so StageCell/version-FIFO/optimizer glue is the cost.",
    },
    WorkloadSpec {
        name: "fine.threaded",
        why: "Per-sample channel hops and thread wake-ups dominate: a runtime-overhead fix must show here and a kernel fix must not.",
    },
    WorkloadSpec {
        name: "fine.dist2",
        why: "Tiny 64-float frames over sockets: per-frame allocation, syscall and ack cost dominate, bytes do not - the opposite use of the dist code from cnn.dist2.",
    },
];

/// Every workload, the driver's first.
pub fn all_workloads() -> impl Iterator<Item = &'static WorkloadSpec> {
    WORKLOADS.iter().chain(&EXTRA_WORKLOADS)
}

/// An end-to-end metric: what a user of the system sees, gated by `bound`
/// (the share of the parent's median it may worsen by). The README's
/// glossary says what each is on a train workload and on `serve.vgg`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEndSpec {
    EndToEndSpec {
        name,
        unit,
        better,
        bound,
    }
}

pub const SETUP_S: &str = "setup_s";
pub const SAMPLES_PER_S: &str = "samples_per_s";
pub const CPU_US_PER_SAMPLE: &str = "cpu_us_per_sample";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const LOSS_MEAN: &str = "loss_mean";

pub const END_TO_END: [EndToEndSpec; 5] = [
    end_to_end(SETUP_S, "s", Better::Lower, 0.25),
    end_to_end(SAMPLES_PER_S, "1/s", Better::Higher, 0.25),
    end_to_end(CPU_US_PER_SAMPLE, "us", Better::Lower, 0.25),
    end_to_end(PEAK_RSS_MB, "MB", Better::Lower, 0.20),
    end_to_end(LOSS_MEAN, "nats", Better::Lower, 0.10),
];

/// A per-layer metric, named `<crate>.<what>`, with the end-to-end effect
/// it is expected to have. Not gated.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload, and
    /// where it should not.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const CNN_KERNEL: &str =
    "samples_per_s on cnn.seq most, cnn.threaded/cnn.dist2 less; not fine.* or serve.vgg";
const SERVE_B64: &str = "samples_per_s (saturated qps) on serve.vgg only";
const SERVE_B1: &str = "diag.serve_lat_p50_ms on serve.vgg only";
const THREADED_SHAPE: &str = "samples_per_s on cnn.threaded; not *.seq";
const FINE_DIST: &str = "samples_per_s on fine.dist2; not cnn.dist2";
const CNN_DIST: &str = "samples_per_s on cnn.dist2; not fine.dist2";
const SERVE_QPS: &str = "samples_per_s on serve.vgg";

pub const PER_LAYER: [LayerSpec; 72] = [
    layer("tensor.peak_gflops", "GFLOP/s", Higher, "MFU denominator and machine-drift canary; moves nothing"),
    layer("tensor.gemm_gflops_cnn_b1", "GFLOP/s", Higher, CNN_KERNEL),
    layer("tensor.conv_fwd_us_cnn", "us", Lower, CNN_KERNEL),
    layer("tensor.conv_bwd_us_cnn", "us", Lower, CNN_KERNEL),
    layer("tensor.gemv_gflops_fine", "GFLOP/s", Higher, "samples_per_s on fine.seq; not cnn.* or serve.vgg"),
    layer("tensor.conv_batched_gflops_b64", "GFLOP/s", Higher, SERVE_B64),
    layer("tensor.fc_gflops_b1", "GFLOP/s", Higher, SERVE_B1),
    layer("tensor.fc_gflops_b64", "GFLOP/s", Higher, SERVE_B64),
    layer("tensor.pool_dispatch_us", "us", Lower, "samples_per_s on cnn.seq, contention on cnn.threaded; not fine.*"),
    layer("tensor.pool_threads", "count", Higher, "provenance: kernel pool width"),
    layer("tensor.flops_per_sample", "FLOP", Lower, "computed from layer shapes (forward); MFU numerator"),
    layer("tensor.bytes_per_sample", "B", Lower, "computed from tensor sizes: parameters + activations touched by one forward"),
    layer("nn.fwd_us_per_sample", "us", Lower, "samples_per_s on *.seq; less on *.threaded/*.dist2"),
    layer("nn.bwd_us_per_sample", "us", Lower, "samples_per_s on *.seq; less on *.threaded/*.dist2"),
    layer("nn.glue_share", "share", Lower, "samples_per_s on cnn.seq (norm, ReLU, allocation around the kernels)"),
    layer("nn.slowest_stage_share", "share", Lower, "samples_per_s on cnn.threaded and cnn.dist2 (pipeline step-time bound); not *.seq"),
    layer("nn.eval_fwd_us_b1", "us", Lower, SERVE_B1),
    layer("nn.eval_fwd_us_b64", "us", Lower, SERVE_B64),
    layer("optim.step_us_per_sample", "us", Lower, "samples_per_s on fine.seq and, through the 1024x256 fc0, cnn.*; not serve.vgg"),
    layer("optim.predict_us_per_sample", "us", Lower, "samples_per_s on fine.seq and cnn.*; not serve.vgg"),
    layer("optim.bytes_per_step", "B", Lower, "computed: weights+velocity+gradient traffic of one update"),
    layer("pipeline.cell_us_per_sample", "us", Lower, "samples_per_s on *.seq: StageCell weight-version traffic (snapshot/load/restore, FIFO push) beyond nn+optim"),
    layer("pipeline.glue_us_per_sample", "us", Lower, "samples_per_s on fine.seq: what no probe explains (ScheduleCore self time); bounds every other train lane"),
    layer("pipeline.attribution_coverage", "share", Higher, "the reconciliation: sum of probes / end-to-end us per sample on *.seq"),
    layer("pipeline.bubble_fraction", "share", Lower, THREADED_SHAPE),
    layer("pipeline.stall_share", "share", Lower, THREADED_SHAPE),
    layer("pipeline.stage_busy_share_min", "share", Higher, THREADED_SHAPE),
    layer("pipeline.stage_busy_share_max", "share", Higher, THREADED_SHAPE),
    layer("pipeline.overhead_us_per_sample", "us", Lower, "samples_per_s on fine.threaded; should stay flat on cnn.threaded"),
    layer("pipeline.ctx_switches_per_sample", "count", Lower, "samples_per_s and cpu_us_per_sample on fine.threaded; flat on cnn.threaded"),
    layer("pipeline.threads", "count", Lower, "provenance: threads alive during a repeat"),
    layer("pipeline.mfu", "share", Higher, "3x forward FLOPs / wall / peak on every train workload"),
    layer("pipeline.delay_eq5_match", "share", Higher, "loss_mean: share of updates at the Eq. 5 delay (1.0 on *.seq and *.dist2)"),
    layer("pipeline.mean_delay_stage0", "count", Lower, "loss_mean on *.threaded (measured delay at stage 0)"),
    layer("pipeline.schedule_gen_us", "us", Lower, "setup_s on train workloads"),
    layer("dist.encode_us_cnn", "us", Lower, CNN_DIST),
    layer("dist.decode_us_cnn", "us", Lower, CNN_DIST),
    layer("dist.codec_mb_per_s", "MB/s", Higher, CNN_DIST),
    layer("dist.encode_us_fine", "us", Lower, FINE_DIST),
    layer("dist.rtt_us_loopback", "us", Lower, FINE_DIST),
    layer("dist.rtt_us_unix", "us", Lower, "samples_per_s on fine.dist2; minus rtt_us_loopback is the kernel's share"),
    layer("dist.syscalls_per_sample", "count", Lower, "samples_per_s on fine.dist2; not cnn.dist2 (read+write calls counted at the socket)"),
    layer("dist.frames_per_sample", "count", Lower, "samples_per_s on fine.dist2; not cnn.dist2 (frames counted at the socket, acks included)"),
    layer("dist.bytes_per_sample", "B", Lower, "samples_per_s on cnn.dist2; not fine.dist2 (bytes counted at the socket)"),
    layer("dist.split_imbalance", "ratio", Lower, CNN_DIST),
    layer("dist.rank_busy_share_0", "share", Higher, CNN_DIST),
    layer("dist.rank_busy_share_1", "share", Higher, CNN_DIST),
    layer("dist.overhead_us_per_sample", "us", Lower, "samples_per_s on *.dist2"),
    layer("dist.establish_ms", "ms", Lower, "setup_s on *.dist2"),
    layer("serve.mean_batch_sat", "count", Higher, SERVE_QPS),
    layer("serve.mean_batch_paced", "count", Higher, "diag.serve_lat_p50_ms on serve.vgg"),
    layer("serve.max_coalesced", "count", Higher, SERVE_QPS),
    layer("serve.idle_rtt_us", "us", Lower, SERVE_B1),
    layer("serve.batch_speedup", "ratio", Higher, "saturated qps / solo-loop qps on serve.vgg"),
    layer("serve.lat_p50_ms_r1000", "ms", Lower, "the bypass case for a batching change: predicted no change"),
    layer("serve.rate_in_slo", "1/s", Higher, "staircase over 1000..6000 req/s; diagnostic only"),
    layer("serve.slo_miss_share", "share", Lower, "share of phase B requests over the 25 ms limit or failed"),
    layer("serve.overloaded", "count", Lower, "must stay 0 in the gated phases"),
    layer("serve.rejected", "count", Lower, "must stay 0"),
    layer("serve.gen_lateness_ms_p99", "ms", Lower, "validity of the open-loop phase: how late the generator ran"),
    layer("snapshot.save_ms_cnn", "ms", Lower, "moves no end-to-end metric today (snapshots are off); base for a recovery-cost issue"),
    layer("snapshot.load_ms_cnn", "ms", Lower, "as snapshot.save_ms_cnn"),
    layer("snapshot.bytes_cnn", "B", Lower, "as snapshot.save_ms_cnn"),
    layer("trace.disabled_overhead_pct", "%", Lower, "fine.seq: no tracer vs Tracer::disabled()"),
    layer("trace.enabled_overhead_pct", "%", Lower, "traced vs untraced throughput of this workload"),
    layer("trace.spans_per_sample", "count", Lower, "diagnostic only"),
    layer("trace.train_self_us_per_sample", "us", Lower, "ledger train span minus the engine spans it covers: time no stage was busy"),
    layer("data.sample_fetch_us", "us", Lower, "samples_per_s on cnn.seq; negligible elsewhere"),
    layer("data.generate_ms", "ms", Lower, "setup_s"),
    layer("diag.serve_lat_p99_ms", "ms", Lower, "demoted from end-to-end: whole-phase p99 at 3000 req/s, decided by single neighbour hiccups (4.6..45 ms over ten runs)"),
    layer("diag.serve_lat_p50_ms", "ms", Lower, "demoted from end-to-end: p50 at 3000 req/s; ten-run medians 2.55..2.86 ms, spread 9..17 %, by how fast the host wakes an idle core"),
    layer("diag.setup_first_s", "s", Lower, "the first of the nine set-ups: includes one-time lazy initialisation"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    all_workloads().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_trace::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in all_workloads() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must name the same things.
    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let s = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(
                (s(row, "name"), s(row, "why")),
                (w.name.into(), w.why.into())
            );
        }
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(row, "name"), m.name);
            assert_eq!(s(row, "unit"), m.unit);
            assert_eq!(s(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(s(row, "name"), m.name);
            assert_eq!(s(row, "unit"), m.unit);
            assert_eq!(s(row, "better"), m.better.as_str());
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::cli::DEFAULT_SECONDS)
        );
    }
}
