//! Per-stage counters shared by every training engine.
//!
//! All engines record the same per-stage counters while they train —
//! updates applied, wall-clock time attributed to the stage, and the
//! *effective* gradient delay of every update — plus run-level totals
//! (samples, training time, measured pipeline occupancy where the engine
//! runs a pipeline).
//! [`TrainEngine::metrics`](crate::engine::TrainEngine::metrics) snapshots
//! them into an [`EngineMetrics`], and [`EngineMetrics::to_json`] renders
//! any engine's snapshot in the same machine-readable schema. What
//! happened *when* — stage spans, supervision events, snapshot writes —
//! is the trace's ([`pbp_trace::Tracer`]), not this module's.

use pbp_trace::json::{json_f64, json_string};
use std::collections::BTreeMap;

/// Counters for one pipeline stage of one engine run.
///
/// The delay histogram maps *effective gradient delay* (updates applied at
/// this stage between a sample's forward pass and the application of its
/// gradient) to the number of updates that experienced it. For the
/// schedule-executing engines — sequential, threaded and distributed
/// alike — this is the schedule's contracted delay (`⌈D_s/M⌉`, Eq. 5 at
/// `M = 1`), which the weight-version FIFO enforces; for
/// [`crate::DelayedTrainer`] it is the configured or sampled delay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Optimizer updates applied at this stage.
    pub updates: u64,
    /// Wall-clock nanoseconds attributed to this stage's work. Always
    /// includes optimizer updates; engines that execute stage by stage
    /// (every [`StageGroup`](crate::StageGroup) substrate) also attribute
    /// their per-stage forward/backward compute here.
    pub busy_ns: u128,
    /// Effective gradient delay → number of updates observing it.
    pub delay_hist: BTreeMap<usize, u64>,
}

impl StageCounters {
    /// Records one optimizer update with its effective delay and the time
    /// it took.
    pub fn record_update(&mut self, delay: usize, busy_ns: u128) {
        self.updates += 1;
        self.busy_ns += busy_ns;
        *self.delay_hist.entry(delay).or_insert(0) += 1;
    }

    /// Adds stage-attributed wall time without counting an update.
    pub fn add_busy_ns(&mut self, ns: u128) {
        self.busy_ns += ns;
    }

    /// Mean effective delay over all recorded updates (0 if none).
    pub fn mean_delay(&self) -> f64 {
        if self.updates == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .delay_hist
            .iter()
            .map(|(&d, &n)| d as f64 * n as f64)
            .sum();
        weighted / self.updates as f64
    }
}

impl pbp_snapshot::Snapshottable for StageCounters {
    // Counters resume monotonically across a restore; the wall-clock
    // nanosecond totals obviously differ between an interrupted and an
    // uninterrupted run, but the update counts and delay histograms —
    // the deterministic part — restore exactly.
    fn write_state(&self, w: &mut pbp_snapshot::StateWriter) {
        w.put_u64(self.updates);
        w.put_u128(self.busy_ns);
        w.put_u32(self.delay_hist.len() as u32);
        for (&delay, &count) in &self.delay_hist {
            w.put_usize(delay);
            w.put_u64(count);
        }
    }

    fn read_state(
        &mut self,
        r: &mut pbp_snapshot::StateReader<'_>,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        self.updates = r.take_u64()?;
        self.busy_ns = r.take_u128()?;
        let buckets = r.take_u32()? as usize;
        self.delay_hist.clear();
        for _ in 0..buckets {
            let delay = r.take_usize()?;
            let count = r.take_u64()?;
            self.delay_hist.insert(delay, count);
        }
        Ok(())
    }
}

/// Snapshot of an engine's counters, as returned by
/// [`TrainEngine::metrics`](crate::engine::TrainEngine::metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// Engine label (same string as the engine's `TrainReport`s).
    pub engine: String,
    /// Training samples consumed.
    pub samples: usize,
    /// Wall-clock nanoseconds spent inside training calls.
    pub train_ns: u128,
    /// Measured pipeline occupancy in `[0, 1]`: the stages' summed
    /// `busy_ns` over workers × `train_ns` (each stage's busy time is
    /// counted inside its worker's timed steps), where the engine runs a
    /// pipeline of workers. `None` for engines with no pipeline
    /// interpretation, and before the first timed step.
    pub occupancy: Option<f64>,
    /// Per-stage counters, indexed by layer-stage number.
    pub stages: Vec<StageCounters>,
}

impl EngineMetrics {
    /// Training throughput in samples per wall-clock second.
    pub fn samples_per_sec(&self) -> f64 {
        if self.train_ns == 0 {
            return 0.0;
        }
        self.samples as f64 / (self.train_ns as f64 * 1e-9)
    }

    /// Total optimizer updates across all stages.
    pub fn total_updates(&self) -> u64 {
        self.stages.iter().map(|s| s.updates).sum()
    }

    /// Serializes the metrics as one JSON object:
    ///
    /// ```json
    /// {"engine": "PB+SCD", "samples": 1200, "train_seconds": 1.5,
    ///  "samples_per_sec": 800.0, "occupancy": 0.98,
    ///  "stages": [{"stage": 0, "updates": 1200, "busy_seconds": 0.2,
    ///              "mean_delay": 6.0, "delay_hist": {"6": 1200}}, ...]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"engine\":{},", json_string(&self.engine)));
        out.push_str(&format!("\"samples\":{},", self.samples));
        out.push_str(&format!(
            "\"train_seconds\":{},",
            json_f64(self.train_ns as f64 * 1e-9)
        ));
        out.push_str(&format!(
            "\"samples_per_sec\":{},",
            json_f64(self.samples_per_sec())
        ));
        match self.occupancy {
            Some(o) => out.push_str(&format!("\"occupancy\":{},", json_f64(o))),
            None => out.push_str("\"occupancy\":null,"),
        }
        out.push_str("\"stages\":[");
        for (s, stage) in self.stages.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":{},\"updates\":{},\"busy_seconds\":{},\"mean_delay\":{},\"delay_hist\":{{",
                s,
                stage.updates,
                json_f64(stage.busy_ns as f64 * 1e-9),
                json_f64(stage.mean_delay()),
            ));
            for (i, (delay, count)) in stage.delay_hist.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{delay}\":{count}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_average() {
        let mut c = StageCounters::default();
        c.record_update(4, 100);
        c.record_update(4, 50);
        c.record_update(0, 10);
        assert_eq!(c.updates, 3);
        assert_eq!(c.busy_ns, 160);
        assert_eq!(c.delay_hist[&4], 2);
        assert!((c.mean_delay() - 8.0 / 3.0).abs() < 1e-12);
    }

    /// Metrics of a run whose one update per stage saw `delays[stage]`.
    fn metrics(engine: &str, samples: usize, train_ns: u128, delays: &[usize]) -> EngineMetrics {
        let stages = delays.iter().map(|&delay| {
            let mut c = StageCounters::default();
            c.record_update(delay, 500);
            c
        });
        EngineMetrics {
            engine: engine.to_string(),
            samples,
            train_ns,
            occupancy: None,
            stages: stages.collect(),
        }
    }

    #[test]
    fn metrics_report_throughput() {
        let m = metrics("test", 100, 2_000_000_000, &[2, 0]); // 2 s
        assert_eq!(m.total_updates(), 2);
        assert!((m.samples_per_sec() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn json_output_is_well_formed() {
        let metrics = metrics("Fill&Drain SGDM (N=8)", 8, 1_000, &[3]);
        let json = metrics.to_json();
        assert!(json.contains("\"occupancy\":null"));
        assert!(json.contains("\"delay_hist\":{\"3\":1}"));
        assert!(json.contains("\"engine\":\"Fill&Drain SGDM (N=8)\""));
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser dependency.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }
}
