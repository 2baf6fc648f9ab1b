//! Model-FLOPs-utilization (MFU) and roofline accounting.
//!
//! MFU divides the FLOPs the *model* requires (counted analytically from
//! `flops_per_sample`, independent of how the implementation computes
//! them) by the wall time of the run and the machine's achievable peak:
//!
//! ```text
//! MFU = model_flops / (wall_seconds × peak_flops_per_sec)
//! ```
//!
//! The per-machine peak is not a datasheet number: it is estimated by
//! running the repo's own best GEMM kernel (the SIMD micro-kernels behind
//! [`pbp_tensor::ops::gemm_nn`]) on a compute-bound 256³ multiply (the
//! ledger's `tensor.peak_gflops`). That makes MFU a "percent of what this
//! binary can actually reach on this box" — a roofline calibrated to the
//! measured kernel, so scheduling overheads and pipeline bubbles are
//! isolated from kernel quality.

use crate::json::json_f64;
use std::time::Instant;

/// Problem size for the peak probe: 256³ is comfortably compute-bound.
const PEAK_PROBE_DIM: usize = 256;
/// Repetitions of the probe; the best (minimum-time) rep is the peak.
const PEAK_PROBE_REPS: usize = 4;

/// Estimates this machine's achievable single-core-pool peak in GFLOP/s
/// by timing the repo's GEMM on a 256³ multiply (one warmup rep, then the
/// best of [`PEAK_PROBE_REPS`] timed reps).
pub fn measure_peak_gflops() -> f64 {
    let n = PEAK_PROBE_DIM;
    let a = vec![0.5f32; n * n];
    let b = vec![0.25f32; n * n];
    let mut c = vec![0.0f32; n * n];
    let flops = 2.0 * (n * n * n) as f64;
    pbp_tensor::ops::gemm_nn(&a, &b, &mut c, n, n, n, false); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..PEAK_PROBE_REPS {
        let t0 = Instant::now();
        pbp_tensor::ops::gemm_nn(&a, &b, &mut c, n, n, n, false);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    // Keep the result observable so the kernel cannot be optimized out.
    assert!(c[0].is_finite());
    flops / best * 1e-9
}

/// Total model FLOPs for a training run: the standard 3× rule (forward +
/// input-gradient + weight-gradient each cost one forward's FLOPs for
/// GEMM-dominated layers) applied to the analytic per-sample forward
/// count.
pub fn model_flops(forward_flops_per_sample: u64, samples: usize) -> f64 {
    3.0 * forward_flops_per_sample as f64 * samples as f64
}

/// An MFU/roofline report for one run.
#[derive(Debug, Clone)]
pub struct MfuReport {
    /// Analytic model FLOPs of the run (forward + backward).
    pub model_flops: f64,
    /// Measured wall time of the run in seconds.
    pub wall_seconds: f64,
    /// Measured machine peak in GFLOP/s (see [`measure_peak_gflops`]).
    pub peak_gflops: f64,
    /// `model_flops / wall_seconds`, in GFLOP/s.
    pub achieved_gflops: f64,
    /// Model FLOPs utilization in `[0, 1]` for a healthy measurement.
    pub mfu: f64,
}

impl MfuReport {
    /// Builds the report from a run's analytic FLOPs, measured wall time
    /// and the machine peak.
    pub fn new(model_flops: f64, wall_seconds: f64, peak_gflops: f64) -> Self {
        let achieved_gflops = if wall_seconds > 0.0 {
            model_flops / wall_seconds * 1e-9
        } else {
            0.0
        };
        let mfu = if peak_gflops > 0.0 {
            achieved_gflops / peak_gflops
        } else {
            0.0
        };
        MfuReport {
            model_flops,
            wall_seconds,
            peak_gflops,
            achieved_gflops,
            mfu,
        }
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"model_flops\":{},\"wall_seconds\":{},\"achieved_gflops\":{},\"peak_gflops\":{},\"mfu\":{}}}",
            json_f64(self.model_flops),
            json_f64(self.wall_seconds),
            json_f64(self.achieved_gflops),
            json_f64(self.peak_gflops),
            json_f64(self.mfu)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_probe_is_positive_and_finite() {
        let peak = measure_peak_gflops();
        assert!(peak.is_finite() && peak > 0.0, "peak {peak}");
    }

    #[test]
    fn report_arithmetic() {
        // 3 GFLOP in 2 s → 1.5 GFLOP/s; against a 15 GFLOP/s peak → 0.1.
        let r = MfuReport::new(3e9, 2.0, 15.0);
        assert!((r.achieved_gflops - 1.5).abs() < 1e-9);
        assert!((r.mfu - 0.1).abs() < 1e-9);
        let json = r.to_json();
        assert!(json.contains("\"mfu\":0.1"));
        let parsed = crate::json::Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("peak_gflops").and_then(|v| v.as_f64()),
            Some(15.0)
        );
    }

    #[test]
    fn model_flops_applies_three_x() {
        assert_eq!(model_flops(100, 7), 2100.0);
    }

    #[test]
    fn degenerate_inputs_do_not_divide_by_zero() {
        let r = MfuReport::new(1e9, 0.0, 0.0);
        assert_eq!(r.achieved_gflops, 0.0);
        assert_eq!(r.mfu, 0.0);
    }
}
