//! Utilization analysis over finished traces: per-lane busy/stall
//! accounting and the cross-lane bubble fraction.
//!
//! The accounting identity is exact by construction: a lane's *window* is
//! `last span end − first span start`, its *busy* time is the sum of its
//! non-stall span durations, and its *stall* time is defined as
//! `window − busy` — explicit [`TracePhase::Stall`] spans and unmarked
//! gaps between spans both land there. `busy + stall == window` always
//! holds for non-overlapping lanes; the proptest harness in the pipeline
//! crate leans on this plus [`LaneStats::overlapping`] to certify traces.

use crate::{Trace, TraceLane, TracePhase};

/// Utilization summary of one lane.
#[derive(Debug, Clone)]
pub struct LaneStats {
    pub pid: u32,
    pub name: String,
    /// Sum of non-stall span durations (ns).
    pub busy_ns: u64,
    /// `window_ns − busy_ns`: explicit stalls plus unmarked gaps (ns).
    pub stall_ns: u64,
    /// Last span end − first span start (ns); 0 for empty lanes.
    pub window_ns: u64,
    /// Number of spans.
    pub spans: usize,
    /// Whether any two top-level spans overlap in time.
    pub overlapping: bool,
    pub first_start_ns: u64,
    pub last_end_ns: u64,
}

impl LaneStats {
    fn of(lane: &TraceLane) -> LaneStats {
        let first_start_ns = lane.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let last_end_ns = lane.spans.iter().map(|s| s.end_ns()).max().unwrap_or(0);
        let window_ns = last_end_ns.saturating_sub(first_start_ns);
        // Nested spans (a Stall inside a BackwardInput) must not be double
        // counted: walk spans in record order and only accumulate the
        // top-level ones, using the running maximum end as the nesting
        // boundary. Stall time nested inside a busy span is subtracted.
        let mut busy_ns = 0u64;
        let mut nested_stall_ns = 0u64;
        let mut top_end = 0u64;
        let mut prev_top_end: Option<u64> = None;
        let mut overlapping = false;
        for span in &lane.spans {
            let nested = prev_top_end.is_some() && span.end_ns() <= top_end;
            if nested {
                if span.phase.is_stall() {
                    nested_stall_ns += span.dur_ns;
                }
                continue;
            }
            if let Some(end) = prev_top_end {
                if span.start_ns < end {
                    overlapping = true;
                }
            }
            if !span.phase.is_stall() {
                busy_ns += span.dur_ns;
            }
            top_end = top_end.max(span.end_ns());
            prev_top_end = Some(span.end_ns());
        }
        let busy_ns = busy_ns.saturating_sub(nested_stall_ns);
        LaneStats {
            pid: lane.pid,
            name: lane.name.clone(),
            busy_ns,
            stall_ns: window_ns.saturating_sub(busy_ns),
            window_ns,
            spans: lane.spans.len(),
            overlapping,
            first_start_ns,
            last_end_ns,
        }
    }

    /// Busy fraction of this lane's own window (0 for empty lanes).
    pub fn utilization(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.window_ns as f64
        }
    }
}

/// Cross-lane utilization analysis of one process of a trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    pub lanes: Vec<LaneStats>,
    /// Earliest span start across lanes (ns).
    pub global_start_ns: u64,
    /// Latest span end across lanes (ns).
    pub global_end_ns: u64,
}

impl TraceAnalysis {
    /// Analyzes the lanes of process `pid` that contain at least one span.
    pub fn of(trace: &Trace, pid: u32) -> TraceAnalysis {
        let lanes: Vec<LaneStats> = trace
            .lanes_of(pid)
            .filter(|l| !l.spans.is_empty())
            .map(LaneStats::of)
            .collect();
        let global_start_ns = lanes.iter().map(|l| l.first_start_ns).min().unwrap_or(0);
        let global_end_ns = lanes.iter().map(|l| l.last_end_ns).max().unwrap_or(0);
        TraceAnalysis {
            lanes,
            global_start_ns,
            global_end_ns,
        }
    }

    /// The trace's makespan: latest end − earliest start (ns).
    pub fn makespan_ns(&self) -> u64 {
        self.global_end_ns.saturating_sub(self.global_start_ns)
    }

    /// The pipeline bubble fraction: the share of the `lanes × makespan`
    /// area not covered by busy spans. 0 would be a perfectly packed
    /// pipeline; fill/drain bubbles, 1F1B warmup idling and stalls all
    /// raise it.
    pub fn bubble_fraction(&self) -> f64 {
        let makespan = self.makespan_ns();
        if makespan == 0 || self.lanes.is_empty() {
            return 0.0;
        }
        let area = self.lanes.len() as f64 * makespan as f64;
        let busy: f64 = self.lanes.iter().map(|l| l.busy_ns as f64).sum();
        (1.0 - busy / area).max(0.0)
    }

    /// Whether any analyzed lane has overlapping top-level spans.
    pub fn any_overlap(&self) -> bool {
        self.lanes.iter().any(|l| l.overlapping)
    }

    /// Count of spans of one phase across lanes (from the source trace
    /// this analysis cannot answer; helper lives on [`Trace`] instead).
    pub fn lane(&self, name: &str) -> Option<&LaneStats> {
        self.lanes.iter().find(|l| l.name == name)
    }
}

/// Counts spans of `phase` in one lane of a trace (convenience for tests).
pub fn phase_count(lane: &TraceLane, phase: TracePhase) -> usize {
    lane.spans.iter().filter(|s| s.phase == phase).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, PID_VIRTUAL, PID_WALL};

    #[test]
    fn busy_stall_window_identity() {
        let t = Tracer::new();
        let mut lane = t.lane(PID_WALL, "stage-0", 0);
        lane.span_at(10, 20, TracePhase::Forward, Some(0), None);
        // gap 20..25
        lane.span_at(25, 30, TracePhase::Stall, None, None);
        lane.span_at(30, 40, TracePhase::BackwardInput, Some(0), None);
        lane.flush();
        let a = TraceAnalysis::of(&t.finish(), PID_WALL);
        let s = a.lane("stage-0").unwrap();
        assert_eq!(s.window_ns, 30);
        assert_eq!(s.busy_ns, 20);
        assert_eq!(s.stall_ns, 10); // 5 explicit stall + 5 gap
        assert_eq!(s.busy_ns + s.stall_ns, s.window_ns);
        assert!(!s.overlapping);
    }

    #[test]
    fn nested_stall_is_subtracted_not_double_counted() {
        let t = Tracer::new();
        let mut lane = t.lane(PID_WALL, "s", 0);
        lane.begin_at(0, TracePhase::BackwardInput, Some(0), None);
        lane.begin_at(2, TracePhase::Stall, None, None);
        lane.end_at(6);
        lane.end_at(10);
        lane.flush();
        let a = TraceAnalysis::of(&t.finish(), PID_WALL);
        let s = &a.lanes[0];
        assert_eq!(s.window_ns, 10);
        assert_eq!(s.busy_ns, 6); // 10 backward − 4 nested stall
        assert_eq!(s.stall_ns, 4);
        assert!(!s.overlapping);
    }

    #[test]
    fn overlap_is_detected() {
        let t = Tracer::new();
        let mut lane = t.lane(PID_WALL, "s", 0);
        lane.span_at(0, 10, TracePhase::Forward, None, None);
        lane.span_at(5, 15, TracePhase::Update, None, None);
        lane.flush();
        let a = TraceAnalysis::of(&t.finish(), PID_WALL);
        assert!(a.any_overlap());
    }

    #[test]
    fn bubble_fraction_measures_idle_area() {
        let t = Tracer::new();
        // Two lanes over a makespan of 10: one fully busy, one half busy
        // → busy area 15 of 20 → bubble 0.25.
        let mut a0 = t.lane(PID_VIRTUAL, "a", 0);
        a0.span_at(0, 10, TracePhase::Forward, None, None);
        a0.flush();
        let mut a1 = t.lane(PID_VIRTUAL, "b", 1);
        a1.span_at(0, 5, TracePhase::Forward, None, None);
        a1.span_at(5, 10, TracePhase::Stall, None, None);
        a1.flush();
        let analysis = TraceAnalysis::of(&t.finish(), PID_VIRTUAL);
        assert!((analysis.bubble_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(analysis.makespan_ns(), 10);
    }
}
