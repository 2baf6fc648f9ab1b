//! Observability layer shared by every training engine.
//!
//! All engines record the same per-stage counters while they train —
//! updates applied, wall-clock time attributed to the stage, and the
//! *effective* gradient delay of every update — plus run-level totals
//! (samples, training time, analytic pipeline occupancy where one exists).
//! [`run_training`](crate::engine::run_training) snapshots them into an
//! [`EngineMetrics`] at the end of a run and hands them to the
//! [`TrainHooks`] observer, so a single [`JsonSink`] can serialize any
//! engine's run into the same machine-readable schema.

use crate::trainer::{EpochRecord, TrainReport};
use pbp_trace::json::{json_f64, json_string};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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
    /// Analytic pipeline occupancy in `[0, 1]`, where the engine models a
    /// pipeline (fill&drain: Eq. 1; PB: the Figure 2 schedule model).
    /// `None` for engines with no pipeline interpretation.
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

    /// Serializes the metrics as a JSON object (the `metrics` field of the
    /// sink schema documented on [`JsonSink`]).
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

/// Observer interface for [`run_training`](crate::engine::run_training).
/// All methods default to no-ops; implement the ones you need.
pub trait TrainHooks {
    /// Called before each epoch's training pass.
    fn on_epoch_start(&mut self, epoch: usize) {
        let _ = epoch;
    }

    /// Called after each evaluated epoch with its record.
    fn on_epoch_end(&mut self, record: &EpochRecord) {
        let _ = record;
    }

    /// Called once at the end of the run with the full report and the
    /// engine's metrics snapshot.
    fn on_run_end(&mut self, report: &TrainReport, metrics: &EngineMetrics) {
        let _ = (report, metrics);
    }

    /// Called by [`run_supervised`](crate::supervisor::run_supervised) on
    /// every supervision event: a detected fault, a snapshot restart, a
    /// backoff sleep, or the switchover to the degraded engine.
    fn on_supervision_event(&mut self, event: &crate::supervisor::SupervisionEvent) {
        let _ = event;
    }

    /// Called by the snapshot runner after a snapshot is written, with the
    /// sample cursor it covers, the file it landed in, and how long the
    /// write took.
    fn on_snapshot(&mut self, samples: usize, path: &Path, elapsed: std::time::Duration) {
        let _ = (samples, path, elapsed);
    }
}

/// A [`TrainHooks`] adapter that records supervision events and snapshot
/// writes into a [`Tracer`](pbp_trace::Tracer) lane named `supervisor`,
/// while forwarding every callback to an inner observer. Faults, restarts,
/// backoffs and degradation switchovers become instant events; snapshot
/// writes become spans covering the measured write time.
#[derive(Debug)]
pub struct TraceHooks<H: TrainHooks> {
    tracer: pbp_trace::Tracer,
    lane: pbp_trace::Lane,
    inner: H,
}

impl<H: TrainHooks> TraceHooks<H> {
    /// Wraps `inner`, recording into `tracer` (sorted above the stage
    /// lanes in the trace view).
    pub fn new(tracer: &pbp_trace::Tracer, inner: H) -> Self {
        TraceHooks {
            tracer: tracer.clone(),
            lane: tracer.lane(pbp_trace::PID_WALL, "supervisor", -1),
            inner,
        }
    }

    /// Flushes the supervisor lane and returns the inner observer.
    pub fn into_inner(mut self) -> H {
        self.lane.flush();
        self.inner
    }
}

impl<H: TrainHooks> TrainHooks for TraceHooks<H> {
    fn on_epoch_start(&mut self, epoch: usize) {
        self.inner.on_epoch_start(epoch);
    }

    fn on_epoch_end(&mut self, record: &EpochRecord) {
        self.inner.on_epoch_end(record);
    }

    fn on_run_end(&mut self, report: &TrainReport, metrics: &EngineMetrics) {
        self.lane.flush();
        self.inner.on_run_end(report, metrics);
    }

    fn on_supervision_event(&mut self, event: &crate::supervisor::SupervisionEvent) {
        use crate::supervisor::SupervisionEvent;
        use pbp_trace::TracePhase;
        let phase = match event {
            SupervisionEvent::Fault { .. } => TracePhase::Fault,
            SupervisionEvent::Restart { .. } => TracePhase::Restart,
            SupervisionEvent::Backoff { .. } => TracePhase::Backoff,
            SupervisionEvent::Degraded { .. } => TracePhase::Degraded,
        };
        self.lane.instant(phase, Some(event.to_string()));
        self.lane.flush();
        self.inner.on_supervision_event(event);
    }

    fn on_snapshot(&mut self, samples: usize, path: &Path, elapsed: std::time::Duration) {
        let now = self.tracer.now_ns();
        let start = now.saturating_sub(elapsed.as_nanos() as u64);
        self.lane.span_at(
            start,
            now,
            pbp_trace::TracePhase::Snapshot,
            Some(samples as u64),
            None,
        );
        self.lane.flush();
        self.inner.on_snapshot(samples, path, elapsed);
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl TrainHooks for NoHooks {}

/// A sink rendering finished runs into one machine-readable JSON document.
///
/// Schema:
///
/// ```json
/// {"runs": [
///   {"label": "PB+SCD",
///    "final_val_acc": 0.93,
///    "records": [{"epoch": 0, "train_loss": 1.0,
///                 "val_loss": 0.9, "val_acc": 0.5}, ...],
///    "metrics": {"engine": "PB+SCD", "samples": 1200,
///                "train_seconds": 1.5, "samples_per_sec": 800.0,
///                "occupancy": 0.98,
///                "stages": [{"stage": 0, "updates": 1200,
///                            "busy_seconds": 0.2, "mean_delay": 6.0,
///                            "delay_hist": {"6": 1200}}, ...]}},
///   ...]}
/// ```
///
/// `JsonSink` also implements [`TrainHooks`], recording on `on_run_end`,
/// so it can be passed straight to
/// [`run_training`](crate::engine::run_training); call [`JsonSink::write`]
/// once all runs are in.
#[derive(Debug, Clone)]
pub struct JsonSink {
    path: PathBuf,
    runs: Vec<String>,
    /// Supervision events observed since the last recorded run; attached
    /// to the next run object as its `"supervision"` array, so fault
    /// recoveries and degradation switchovers are visible in the output.
    supervision: Vec<String>,
}

impl JsonSink {
    /// Creates a sink that will write to `path` (parent directories are
    /// created on [`JsonSink::write`]).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonSink {
            path: path.into(),
            runs: Vec::new(),
            supervision: Vec::new(),
        }
    }

    /// Number of runs recorded so far.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no runs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Renders the accumulated runs as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(run);
        }
        out.push_str("]}\n");
        out
    }

    /// Records one finished run.
    pub fn record(&mut self, report: &TrainReport, metrics: &EngineMetrics) {
        let mut run = String::from("{");
        run.push_str(&format!("\"label\":{},", json_string(&report.label)));
        run.push_str(&format!(
            "\"final_val_acc\":{},",
            json_f64(report.final_val_acc())
        ));
        run.push_str("\"records\":[");
        for (i, r) in report.records.iter().enumerate() {
            if i > 0 {
                run.push(',');
            }
            run.push_str(&format!(
                "{{\"epoch\":{},\"train_loss\":{},\"val_loss\":{},\"val_acc\":{}}}",
                r.epoch,
                json_f64(r.train_loss),
                json_f64(r.val_loss),
                json_f64(r.val_acc)
            ));
        }
        run.push_str("],");
        if !self.supervision.is_empty() {
            run.push_str("\"supervision\":[");
            for (i, ev) in self.supervision.iter().enumerate() {
                if i > 0 {
                    run.push(',');
                }
                run.push_str(&json_string(ev));
            }
            run.push_str("],");
            self.supervision.clear();
        }
        run.push_str(&format!("\"metrics\":{}", metrics.to_json()));
        run.push('}');
        self.runs.push(run);
    }

    /// Writes everything recorded so far to the sink's path.
    pub fn write(&self) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(&self.path, self.to_json())
    }
}

impl TrainHooks for JsonSink {
    fn on_run_end(&mut self, report: &TrainReport, metrics: &EngineMetrics) {
        self.record(report, metrics);
    }

    fn on_supervision_event(&mut self, event: &crate::supervisor::SupervisionEvent) {
        self.supervision.push(event.to_string());
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

        let mut sink = JsonSink::new("unused.json");
        let mut report = TrainReport::new("Fill&Drain SGDM (N=8)");
        report.records.push(EpochRecord {
            epoch: 0,
            train_loss: 1.25,
            val_loss: 1.5,
            val_acc: 0.5,
        });
        sink.record(&report, &metrics);
        let doc = sink.to_json();
        assert!(doc.starts_with("{\"runs\":[{"));
        assert!(doc.contains("\"label\":\"Fill&Drain SGDM (N=8)\""));
        assert!(doc.contains("\"val_acc\":0.5"));
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser dependency.
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_sink_writes_to_disk() {
        let path =
            std::env::temp_dir().join(format!("pbp_metrics_test_{}.json", std::process::id()));
        let mut sink = JsonSink::new(&path);
        sink.record(&TrainReport::new("SGDM"), &metrics("SGDM", 0, 0, &[]));
        sink.write().expect("write json");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"engine\":\"SGDM\""));
        let _ = std::fs::remove_file(&path);
    }
}
