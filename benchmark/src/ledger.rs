//! The harness's own spans: one around every call it makes into a layer.
//!
//! Spans go through the repo's existing `pbp_trace::Tracer`/`Lane` API, on
//! lanes of a process id of their own (`PID_LEDGER`) so that
//! `TraceAnalysis` over the engine's `PID_WALL` lanes is not disturbed. A
//! lane is named `ledger:<workload>/<layer>.<call>`; the span's
//! `microbatch` tag carries the repeat number. With a disabled tracer the
//! lane calls are no-ops and only the clock is read, so the same code path
//! times the untraced run.

use pbp_trace::{Lane, Trace, TracePhase, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Process id of the harness lanes in the Chrome trace.
pub const PID_LEDGER: u32 = 2;

/// Per-thread recorder of harness spans.
pub struct Ledger {
    tracer: Tracer,
    workload: &'static str,
    lanes: BTreeMap<&'static str, Lane>,
}

impl Ledger {
    pub fn new(workload: &'static str, tracer: Tracer) -> Ledger {
        Ledger {
            tracer,
            workload,
            lanes: BTreeMap::new(),
        }
    }

    /// The tracer engines should record into (disabled on untraced runs).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn workload(&self) -> &'static str {
        self.workload
    }

    /// Runs `f` inside a span on lane `<layer>.<call>` and returns its
    /// result with the time it took. The clock is read inside the lane
    /// calls, so the recording cost is not part of the measured time.
    pub fn span<R>(
        &mut self,
        call: &'static str,
        phase: TracePhase,
        repeat: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let order = self.lanes.len() as i64;
        let lane = self.lanes.entry(call).or_insert_with(|| {
            self.tracer.lane(
                PID_LEDGER,
                format!("ledger:{}/{call}", self.workload),
                order,
            )
        });
        lane.begin(phase, Some(repeat), None);
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        lane.end();
        (out, took)
    }

    /// Flushes every lane into the tracer (lanes also flush on drop).
    pub fn flush(&mut self) {
        for lane in self.lanes.values_mut() {
            lane.flush();
        }
    }
}

/// Nanoseconds of `[start, end)` that no interval of `children` covers:
/// a span's self time is its duration minus the part its children cover.
pub fn uncovered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end.saturating_sub(start)).saturating_sub(covered)
}

/// Self time of the harness span on `<call>` tagged `repeat`: its duration
/// minus what the engine's spans (every lane of `engine_pid`) cover.
pub fn span_self_ns(
    trace: &Trace,
    workload: &str,
    call: &str,
    repeat: u64,
    engine_pid: u32,
) -> Option<u64> {
    let lane = trace.lane(PID_LEDGER, &format!("ledger:{workload}/{call}"))?;
    let parent = lane.spans.iter().find(|s| s.microbatch == Some(repeat))?;
    let mut children: Vec<(u64, u64)> = trace
        .lanes_of(engine_pid)
        .flat_map(|l| l.spans.iter())
        .filter(|s| s.end_ns() > parent.start_ns && s.start_ns < parent.end_ns())
        .map(|s| (s.start_ns, s.end_ns()))
        .collect();
    Some(uncovered_ns(
        parent.start_ns,
        parent.end_ns(),
        &mut children,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_trace::PID_WALL;

    #[test]
    fn uncovered_time_subtracts_the_union_of_children() {
        // Children overlap each other and stick out of the parent.
        let mut kids = vec![(5, 15), (10, 30), (50, 60), (90, 120)];
        assert_eq!(uncovered_ns(10, 100, &mut kids), 90 - (20 + 10 + 10));
        assert_eq!(uncovered_ns(0, 10, &mut []), 10);
        assert_eq!(uncovered_ns(0, 10, &mut [(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn spans_are_recorded_on_named_lanes_with_the_repeat_tag() {
        let tracer = Tracer::new();
        let mut ledger = Ledger::new("w", tracer.clone());
        let (v, took) = ledger.span("nn.forward", TracePhase::Forward, 3, || 7);
        assert_eq!(v, 7);
        assert!(took < Duration::from_secs(1));
        ledger.span("nn.forward", TracePhase::Forward, 4, || ());
        ledger.span("optim.step", TracePhase::Update, 3, || ());
        ledger.flush();
        let trace = tracer.finish();
        let lane = trace.lane(PID_LEDGER, "ledger:w/nn.forward").expect("lane");
        assert_eq!(lane.spans.len(), 2);
        assert_eq!(lane.spans[0].microbatch, Some(3));
        assert_eq!(lane.unmatched_begins, 0);
        assert!(trace.lane(PID_LEDGER, "ledger:w/optim.step").is_some());
    }

    #[test]
    fn disabled_tracer_still_times_the_call() {
        let mut ledger = Ledger::new("w", Tracer::disabled());
        let (_, took) = ledger.span("x", TracePhase::Forward, 0, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(took >= Duration::from_millis(2));
        assert_eq!(Tracer::disabled().finish().span_count(), 0);
    }

    #[test]
    fn self_time_is_the_parent_minus_engine_spans() {
        let tracer = Tracer::new();
        let mut parent = tracer.lane(PID_LEDGER, "ledger:w/pipeline.train", 0);
        parent.span_at(100, 1_100, TracePhase::Forward, Some(1), None);
        let mut stage = tracer.lane(PID_WALL, "stage-0", 0);
        stage.span_at(200, 500, TracePhase::Forward, Some(0), None);
        stage.span_at(600, 900, TracePhase::Update, Some(0), None);
        drop((parent, stage));
        let trace = tracer.finish();
        assert_eq!(
            span_self_ns(&trace, "w", "pipeline.train", 1, PID_WALL),
            Some(1_000 - 600)
        );
        assert_eq!(
            span_self_ns(&trace, "w", "pipeline.train", 2, PID_WALL),
            None
        );
    }
}
