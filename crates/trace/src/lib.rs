//! Chrome-trace observability for the pipelined-backprop engines.
//!
//! The tracer is a low-overhead per-thread span recorder: each worker (or
//! each simulated stage) owns a [`Lane`] that buffers begin/end records in
//! a plain `Vec` with no synchronization on the hot path, and flushes them
//! into the shared [`Tracer`] under one lock per flush. A finished
//! [`Trace`] pairs the records into spans and serializes them as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` object format), loadable
//! in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! Two "processes" organize the lanes:
//!
//! * [`PID_WALL`] — wall-clock lanes, timestamped from a shared epoch with
//!   [`std::time::Instant`]: what each stage *actually did* and when.
//! * [`PID_VIRTUAL`] — virtual-timeline lanes, timestamped on a cost
//!   clock through [`Lane::span_at`] by the pipeline crate's virtual host,
//!   which runs the schedule's rank loops on one thread: what W workers
//!   running it would do, so fill/drain bubbles are visible whichever
//!   engine trained.
//!
//! A disabled tracer (the default everywhere) reduces every recording call
//! to one branch on an `Option`, so instrumented hot loops pay nothing
//! measurable when tracing is off.

pub mod analysis;
pub mod json;
pub mod mfu;

pub use analysis::{LaneStats, TraceAnalysis};
pub use mfu::{measure_peak_gflops, model_flops, MfuReport};

use json::json_string;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process id of wall-clock lanes (real measured time).
pub const PID_WALL: u32 = 0;
/// Process id of virtual schedule-timeline lanes (a cost clock).
pub const PID_VIRTUAL: u32 = 1;

/// The kind of work (or event) a span/instant describes. Span names in the
/// emitted JSON come from [`TracePhase::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    /// Forward pass of one microbatch through one stage.
    Forward,
    /// Backward pass w.r.t. the stage input (or the fused full backward).
    BackwardInput,
    /// Deferred weight-gradient half of a split backward (2BP).
    BackwardWeight,
    /// Optimizer update at a stage.
    Update,
    /// Stage idle / injected stall / watchdog-visible wait.
    Stall,
    /// Snapshot written by the training runner.
    Snapshot,
    /// A detected fault (worker panic, stall attribution, channel drop).
    Fault,
    /// Supervisor restart from a snapshot.
    Restart,
    /// Supervisor backoff sleep before a restart attempt.
    Backoff,
    /// A rank-to-rank link tore down and re-established with replay.
    Reconnect,
    /// The cut of stages into workers a streaming call ran under, on each
    /// worker's first stage lane.
    Partition,
}

impl TracePhase {
    /// The event name emitted into the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::Forward => "forward",
            TracePhase::BackwardInput => "backward_input",
            TracePhase::BackwardWeight => "backward_weight",
            TracePhase::Update => "update",
            TracePhase::Stall => "stall",
            TracePhase::Snapshot => "snapshot",
            TracePhase::Fault => "fault",
            TracePhase::Restart => "restart",
            TracePhase::Backoff => "backoff",
            TracePhase::Reconnect => "reconnect",
            TracePhase::Partition => "partition",
        }
    }

    /// Whether spans of this phase count as stall (idle) rather than busy
    /// time in [`TraceAnalysis`].
    pub fn is_stall(self) -> bool {
        matches!(self, TracePhase::Stall | TracePhase::Backoff)
    }
}

/// One buffered record inside a lane. Begins and ends pair LIFO per lane
/// when the trace is finished.
#[derive(Debug, Clone)]
enum Record {
    Begin {
        phase: TracePhase,
        t_ns: u64,
        microbatch: Option<u64>,
        weight_version: Option<u64>,
    },
    End {
        t_ns: u64,
    },
    Instant {
        phase: TracePhase,
        t_ns: u64,
        detail: Option<String>,
    },
}

struct LaneBuf {
    sort: i64,
    records: Vec<Record>,
}

struct TracerInner {
    epoch: Instant,
    lanes: Mutex<BTreeMap<(u32, String), LaneBuf>>,
}

/// Shared handle to a trace being recorded. Cheap to clone; a disabled
/// tracer carries no allocation and makes every operation a no-op.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Tracer {
    /// An enabled tracer whose epoch (timestamp zero) is now.
    pub fn new() -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                lanes: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The disabled tracer: all recording is a no-op.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the tracer's epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Opens a lane (one horizontal track in the trace view). Lanes are
    /// keyed by `(pid, name)`: re-opening the same key — e.g. a restarted
    /// worker thread — appends to the existing track on flush. `sort`
    /// orders lanes top-to-bottom within the process.
    pub fn lane(&self, pid: u32, name: impl Into<String>, sort: i64) -> Lane {
        Lane {
            tracer: self.inner.clone(),
            pid,
            name: name.into(),
            sort,
            records: Vec::new(),
        }
    }

    /// Pairs and snapshots everything flushed so far into a [`Trace`].
    /// Lanes with unflushed buffers (still-live [`Lane`]s) are not
    /// included until they flush or drop.
    pub fn finish(&self) -> Trace {
        let mut lanes = Vec::new();
        if let Some(inner) = &self.inner {
            let map = inner.lanes.lock().expect("tracer lock");
            for ((pid, name), buf) in map.iter() {
                lanes.push(pair_lane(*pid, name.clone(), buf.sort, &buf.records));
            }
        }
        lanes.sort_by(|a, b| {
            (a.pid, a.sort, a.name.as_str()).cmp(&(b.pid, b.sort, b.name.as_str()))
        });
        Trace { lanes }
    }
}

/// A per-thread (or per-simulated-stage) event buffer. Not `Sync`: each
/// lane belongs to exactly one recording thread. Dropping a lane flushes
/// it into the tracer.
pub struct Lane {
    tracer: Option<Arc<TracerInner>>,
    pid: u32,
    name: String,
    sort: i64,
    records: Vec<Record>,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Lane(pid={}, {:?}, {} records)",
            self.pid,
            self.name,
            self.records.len()
        )
    }
}

impl Lane {
    /// Whether this lane records anything (false for lanes minted from a
    /// disabled tracer).
    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    fn now_ns(&self) -> u64 {
        match &self.tracer {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Opens a span now. `microbatch` / `weight_version` become the span's
    /// args in the trace.
    pub fn begin(
        &mut self,
        phase: TracePhase,
        microbatch: Option<u64>,
        weight_version: Option<u64>,
    ) {
        if self.tracer.is_some() {
            let t_ns = self.now_ns();
            self.begin_at(t_ns, phase, microbatch, weight_version);
        }
    }

    /// Closes the innermost open span now.
    pub fn end(&mut self) {
        if self.tracer.is_some() {
            let t_ns = self.now_ns();
            self.end_at(t_ns);
        }
    }

    /// Opens a span at an explicit timestamp (virtual timelines).
    pub fn begin_at(
        &mut self,
        t_ns: u64,
        phase: TracePhase,
        microbatch: Option<u64>,
        weight_version: Option<u64>,
    ) {
        if self.tracer.is_some() {
            self.records.push(Record::Begin {
                phase,
                t_ns,
                microbatch,
                weight_version,
            });
        }
    }

    /// Closes the innermost open span at an explicit timestamp.
    pub fn end_at(&mut self, t_ns: u64) {
        if self.tracer.is_some() {
            self.records.push(Record::End { t_ns });
        }
    }

    /// Records a zero-duration instant event now.
    pub fn instant(&mut self, phase: TracePhase, detail: Option<String>) {
        if self.tracer.is_some() {
            let t_ns = self.now_ns();
            self.instant_at(t_ns, phase, detail);
        }
    }

    /// Records an instant at an explicit timestamp.
    pub fn instant_at(&mut self, t_ns: u64, phase: TracePhase, detail: Option<String>) {
        if self.tracer.is_some() {
            self.records.push(Record::Instant {
                phase,
                t_ns,
                detail,
            });
        }
    }

    /// Records a complete span from explicit timestamps (used when the
    /// duration was measured before the lane could be touched, e.g. a
    /// snapshot write timed by the runner).
    pub fn span_at(
        &mut self,
        start_ns: u64,
        end_ns: u64,
        phase: TracePhase,
        microbatch: Option<u64>,
        weight_version: Option<u64>,
    ) {
        self.begin_at(start_ns, phase, microbatch, weight_version);
        self.end_at(end_ns.max(start_ns));
    }

    /// Appends this lane's buffered records into the tracer. The lane
    /// stays usable; flushing an empty buffer is free.
    pub fn flush(&mut self) {
        if self.records.is_empty() {
            return;
        }
        if let Some(inner) = &self.tracer {
            let mut map = inner.lanes.lock().expect("tracer lock");
            let buf = map
                .entry((self.pid, self.name.clone()))
                .or_insert_with(|| LaneBuf {
                    sort: self.sort,
                    records: Vec::new(),
                });
            buf.records.append(&mut self.records);
        } else {
            self.records.clear();
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A completed span in a finished trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub phase: TracePhase,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub microbatch: Option<u64>,
    pub weight_version: Option<u64>,
}

impl Span {
    /// End timestamp.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// A zero-duration event in a finished trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantEvent {
    pub phase: TracePhase,
    pub t_ns: u64,
    pub detail: Option<String>,
}

/// One track of a finished trace: all spans and instants recorded under a
/// `(pid, name)` key, in record order.
#[derive(Debug, Clone)]
pub struct TraceLane {
    pub pid: u32,
    pub name: String,
    pub sort: i64,
    pub spans: Vec<Span>,
    pub instants: Vec<InstantEvent>,
    /// Begin records that never saw a matching end (0 in a well-formed
    /// trace; they are closed at the lane's last timestamp so the trace
    /// still renders).
    pub unmatched_begins: usize,
}

/// A finished, paired trace ready for serialization or analysis.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub lanes: Vec<TraceLane>,
}

fn pair_lane(pid: u32, name: String, sort: i64, records: &[Record]) -> TraceLane {
    let mut spans = Vec::new();
    let mut instants = Vec::new();
    // Indices into `spans` of begins awaiting their end; LIFO so nested
    // spans close innermost-first.
    let mut open: Vec<usize> = Vec::new();
    let mut last_t = 0u64;
    for rec in records {
        match rec {
            Record::Begin {
                phase,
                t_ns,
                microbatch,
                weight_version,
            } => {
                last_t = last_t.max(*t_ns);
                open.push(spans.len());
                spans.push(Span {
                    phase: *phase,
                    start_ns: *t_ns,
                    dur_ns: 0,
                    microbatch: *microbatch,
                    weight_version: *weight_version,
                });
            }
            Record::End { t_ns } => {
                last_t = last_t.max(*t_ns);
                if let Some(i) = open.pop() {
                    spans[i].dur_ns = t_ns.saturating_sub(spans[i].start_ns);
                }
            }
            Record::Instant {
                phase,
                t_ns,
                detail,
            } => {
                last_t = last_t.max(*t_ns);
                instants.push(InstantEvent {
                    phase: *phase,
                    t_ns: *t_ns,
                    detail: detail.clone(),
                });
            }
        }
    }
    let unmatched_begins = open.len();
    for i in open {
        spans[i].dur_ns = last_t.saturating_sub(spans[i].start_ns);
    }
    TraceLane {
        pid,
        name,
        sort,
        spans,
        instants,
        unmatched_begins,
    }
}

impl Trace {
    /// Looks up a lane by process and name.
    pub fn lane(&self, pid: u32, name: &str) -> Option<&TraceLane> {
        self.lanes.iter().find(|l| l.pid == pid && l.name == name)
    }

    /// All lanes of one process.
    pub fn lanes_of(&self, pid: u32) -> impl Iterator<Item = &TraceLane> {
        self.lanes.iter().filter(move |l| l.pid == pid)
    }

    /// Total spans across all lanes.
    pub fn span_count(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// A timestamp-free rendering of the trace's structure: lane names and
    /// the ordered (phase, microbatch, weight-version) sequence of every
    /// lane. Two runs of a deterministic engine at the same seed produce
    /// equal signatures even though their wall-clock timings differ.
    pub fn structural_signature(&self) -> String {
        let mut out = String::new();
        for lane in &self.lanes {
            out.push_str(&format!("lane {}:{}\n", lane.pid, lane.name));
            for span in &lane.spans {
                out.push_str(&format!(
                    "  {} mb={:?} wv={:?}\n",
                    span.phase.name(),
                    span.microbatch,
                    span.weight_version
                ));
            }
            for inst in &lane.instants {
                out.push_str(&format!("  !{}\n", inst.phase.name()));
            }
        }
        out
    }

    /// Serializes the trace as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`). Timestamps are
    /// microseconds with nanosecond precision preserved as fractions.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |ev: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };
        for (tid0, lane) in self.lanes.iter().enumerate() {
            let tid = tid0 + 1;
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    lane.pid,
                    tid,
                    json_string(&lane.name)
                ),
                &mut first,
            );
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{}}}}}",
                    lane.pid, tid, lane.sort
                ),
                &mut first,
            );
            for span in &lane.spans {
                let mut args = String::new();
                if let Some(mb) = span.microbatch {
                    args.push_str(&format!("\"microbatch\":{mb}"));
                }
                if let Some(wv) = span.weight_version {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    args.push_str(&format!("\"weight_version\":{wv}"));
                }
                push(
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"pbp\",\"args\":{{{}}}}}",
                        lane.pid,
                        tid,
                        micros(span.start_ns),
                        micros(span.dur_ns),
                        span.phase.name(),
                        args
                    ),
                    &mut first,
                );
            }
            for inst in &lane.instants {
                let args = match &inst.detail {
                    Some(d) => format!("\"detail\":{}", json_string(d)),
                    None => String::new(),
                };
                push(
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"cat\":\"pbp\",\"args\":{{{}}}}}",
                        lane.pid,
                        tid,
                        micros(inst.t_ns),
                        inst.phase.name(),
                        args
                    ),
                    &mut first,
                );
            }
        }
        // Process names so Perfetto groups wall vs virtual lanes.
        for (pid, pname) in [
            (PID_WALL, "wall clock"),
            (PID_VIRTUAL, "schedule (virtual)"),
        ] {
            if self.lanes.iter().any(|l| l.pid == pid) {
                push(
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{pname}\"}}}}"
                    ),
                    &mut first,
                );
            }
        }
        let _ = first;
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Writes the Chrome JSON to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_chrome_json())
    }
}

/// Nanoseconds → microseconds, rendered with sub-µs fraction only when
/// needed (Chrome's `ts`/`dur` unit is microseconds).
fn micros(ns: u64) -> String {
    if ns.is_multiple_of(1_000) {
        format!("{}", ns / 1_000)
    } else {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut lane = t.lane(PID_WALL, "stage-0", 0);
        lane.begin(TracePhase::Forward, Some(0), Some(0));
        lane.end();
        lane.flush();
        let trace = t.finish();
        assert!(trace.lanes.is_empty());
        assert_eq!(trace.span_count(), 0);
    }

    #[test]
    fn spans_pair_lifo_and_merge_across_flushes() {
        let t = Tracer::new();
        {
            let mut lane = t.lane(PID_WALL, "stage-0", 0);
            lane.begin_at(10, TracePhase::Forward, Some(0), Some(0));
            lane.end_at(20);
            lane.flush();
            // Same key again (e.g. a restarted worker): appends.
            let mut lane2 = t.lane(PID_WALL, "stage-0", 0);
            lane2.begin_at(30, TracePhase::BackwardInput, Some(0), Some(0));
            lane2.end_at(45);
            // lane2 drops here and auto-flushes.
        }
        let trace = t.finish();
        assert_eq!(trace.lanes.len(), 1);
        let lane = trace.lane(PID_WALL, "stage-0").unwrap();
        assert_eq!(lane.spans.len(), 2);
        assert_eq!(lane.unmatched_begins, 0);
        assert_eq!(lane.spans[0].phase, TracePhase::Forward);
        assert_eq!(lane.spans[0].dur_ns, 10);
        assert_eq!(lane.spans[1].phase, TracePhase::BackwardInput);
        assert_eq!(lane.spans[1].dur_ns, 15);
    }

    #[test]
    fn nested_spans_close_innermost_first() {
        let t = Tracer::new();
        let mut lane = t.lane(PID_WALL, "s", 0);
        lane.begin_at(0, TracePhase::BackwardInput, Some(1), None);
        lane.begin_at(2, TracePhase::Stall, None, None);
        lane.end_at(5); // closes the stall
        lane.end_at(9); // closes the backward
        lane.flush();
        let trace = t.finish();
        let lane = &trace.lanes[0];
        assert_eq!(lane.spans[0].phase, TracePhase::BackwardInput);
        assert_eq!(lane.spans[0].dur_ns, 9);
        assert_eq!(lane.spans[1].phase, TracePhase::Stall);
        assert_eq!(lane.spans[1].dur_ns, 3);
    }

    #[test]
    fn unmatched_begins_are_counted_and_closed() {
        let t = Tracer::new();
        let mut lane = t.lane(PID_WALL, "s", 0);
        lane.begin_at(0, TracePhase::Forward, None, None);
        lane.begin_at(4, TracePhase::Update, None, None);
        lane.end_at(6);
        lane.flush();
        let trace = t.finish();
        let lane = &trace.lanes[0];
        assert_eq!(lane.unmatched_begins, 1);
        assert_eq!(lane.spans[0].dur_ns, 6); // closed at last timestamp
    }

    #[test]
    fn chrome_json_is_parseable_and_complete() {
        let t = Tracer::new();
        let mut lane = t.lane(PID_WALL, "stage-0", 0);
        lane.span_at(1_000, 3_500, TracePhase::Forward, Some(7), Some(3));
        lane.instant_at(4_000, TracePhase::Fault, Some("boom \"quoted\"".into()));
        lane.flush();
        let mut vlane = t.lane(PID_VIRTUAL, "sched-0", 0);
        vlane.span_at(0, 2_000, TracePhase::Forward, Some(0), None);
        vlane.flush();
        let doc = t.finish().to_chrome_json();
        let parsed = json::Json::parse(&doc).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        // 2 lanes × 2 metadata + 2 spans + 1 instant + 2 process names.
        assert_eq!(events.len(), 9);
        // The trace-event schema Perfetto expects, on every event.
        let num = |ev: &json::Json, key: &str| ev.get(key).and_then(|v| v.as_f64()).is_some();
        for ev in events {
            assert!(num(ev, "pid") && ev.get("name").is_some(), "{ev:?}");
            match ev.get("ph").and_then(|p| p.as_str()) {
                Some("X") => assert!(["tid", "ts", "dur"].iter().all(|k| num(ev, k)), "{ev:?}"),
                Some("i") => assert!(num(ev, "ts"), "{ev:?}"),
                Some("M") => {}
                other => panic!("unexpected event phase {other:?}"),
            }
        }
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("an X event");
        assert_eq!(span.get("ts").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(span.get("dur").and_then(|v| v.as_f64()), Some(2.5));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("microbatch"))
                .and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn structural_signature_ignores_time() {
        let make = |offset: u64| {
            let t = Tracer::new();
            let mut lane = t.lane(PID_WALL, "stage-0", 0);
            lane.span_at(offset, offset + 5, TracePhase::Forward, Some(0), Some(1));
            lane.flush();
            t.finish().structural_signature()
        };
        assert_eq!(make(10), make(99));
    }

    #[test]
    fn micros_renders_fractions_only_when_needed() {
        assert_eq!(micros(2_000), "2");
        assert_eq!(micros(2_500), "2.500");
        assert_eq!(micros(1), "0.001");
    }
}
