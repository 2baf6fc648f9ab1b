//! The one executor of per-stage schedule semantics.
//!
//! A [`StageGroup`] owns a contiguous range of [`StageCell`]s together
//! with their trace lanes and counters, and interprets the plan's
//! [`Action`] stream for them. Every substrate drives the same four
//! operations through the one [`RankLoop`](crate::RankLoop): the
//! sequential [`ScheduledTrainer`](crate::ScheduledTrainer) over a group
//! of all stages, each [`ThreadedPipeline`](crate::ThreadedPipeline)
//! worker and each `pbp-dist` rank over its run of
//! [`contiguous_bounds`]. Trace spans, metrics, loss
//! scaling, hyperparameter binding and the run-ahead rule therefore exist
//! once, and the cell's ordering contract (see [`crate::cell`]) makes the
//! three bit-identical — weights, f64 loss sums and Eq. 5 delay
//! histograms — however their stages interleave.
//!
//! ## The operations
//!
//! * [`StageGroup::can_forward`] — the run-ahead rule: a forward may not
//!   outrun its weight-version queue, so at most `min version_lag`
//!   microbatches may be in flight (forwarded, not yet backwarded).
//! * [`StageGroup::forward`] — every owned stage's forward, first to
//!   last, each under its scheduled weight version.
//! * [`StageGroup::loss`] — the loss stage, mean-scaled over the update
//!   window (last group only).
//! * [`StageGroup::backward`] — the plan's remaining actions at every
//!   owned stage, last to first, then one `push_next_version` per stage.
//!   Hyperparameters bind here, at the update window's first backward:
//!   they only affect backward-phase operations (updates, SpecTrain's
//!   re-prediction, the pushed version), so binding at the backward
//!   boundary matches a sequential sweep even when forwards ran ahead.

use crate::cell::StageCell;
use crate::metrics::StageCounters;
use crate::schedule::Action;
use crate::scheduled::ScheduledConfig;
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::{LaneStack, Network, Stage};
use pbp_snapshot::{SnapshotError, Snapshottable, StateReader, StateWriter};
use pbp_tensor::Tensor;
use pbp_trace::{Lane, TracePhase, Tracer, PID_WALL};
use std::ops::Range;
use std::time::Instant;

/// The one by-count partition rule: the `workers + 1` ascending bounds
/// that cut `layer_stages` stages into `workers ≥ 1` contiguous runs of
/// `layer_stages / workers`, the first `layer_stages % workers` runs one
/// longer. Threaded workers and `pbp-dist` ranks both own run `w`,
/// `bounds[w]..bounds[w + 1]`.
pub fn contiguous_bounds(layer_stages: usize, workers: usize) -> Vec<usize> {
    let (base, extra) = (layer_stages / workers, layer_stages % workers);
    (0..=workers).map(|w| w * base + w.min(extra)).collect()
}

/// A contiguous range of pipeline stages executing one schedule (see the
/// module docs). The stages themselves stay with the caller — a
/// [`Network`] or a worker's run of [`Stage`]s — and are lent to each
/// operation as the slice matching [`StageGroup::range`].
pub struct StageGroup {
    config: ScheduledConfig,
    /// Global index of the first owned stage.
    first: usize,
    cells: Vec<StageCell>,
    /// One lane per owned stage; no-ops until [`StageGroup::set_tracer`].
    lanes: Vec<Lane>,
    counters: Vec<StageCounters>,
    /// Global index of the next microbatch to forward / to backward.
    next_fwd: usize,
    next_bwd: usize,
}

impl StageGroup {
    /// Builds the group for stages `range` of `net` under `config`,
    /// deriving each stage's version lag and optimizer delay from the
    /// plan.
    pub fn new(net: &Network, range: Range<usize>, config: &ScheduledConfig) -> Self {
        let pipeline_stages = net.pipeline_stage_count();
        let hp = config.schedule.at(0);
        let cells: Vec<StageCell> = range
            .clone()
            .map(|s| {
                StageCell::new(
                    net.stage(s),
                    s,
                    pipeline_stages,
                    &config.plan,
                    config.mitigation,
                    config.weight_stashing,
                    hp,
                    None,
                )
            })
            .collect();
        assert!(!cells.is_empty(), "a stage group owns at least one stage");
        let mut group = StageGroup {
            config: config.clone(),
            first: range.start,
            counters: vec![StageCounters::default(); cells.len()],
            cells,
            lanes: Vec::new(),
            next_fwd: 0,
            next_bwd: 0,
        };
        group.set_tracer(&Tracer::disabled(), "");
        group
    }

    /// Records every owned stage's spans into `{prefix}stage-{s}`
    /// wall-clock lanes of `tracer`, tagged with the microbatch index and
    /// the stage's weight version (updates applied).
    pub fn set_tracer(&mut self, tracer: &Tracer, prefix: &str) {
        self.lanes = self
            .range()
            .map(|s| tracer.lane(PID_WALL, format!("{prefix}stage-{s}"), s as i64))
            .collect();
    }

    /// Flushes buffered trace records into the tracer (lanes also flush
    /// on drop).
    pub fn flush_trace(&mut self) {
        for lane in &mut self.lanes {
            lane.flush();
        }
    }

    /// Owned stage `stage`'s lane, for the owner's own events (stalls,
    /// faults, reconnects).
    pub fn lane(&mut self, stage: usize) -> &mut Lane {
        &mut self.lanes[stage - self.first]
    }

    /// The global stage indices this group owns.
    pub fn range(&self) -> Range<usize> {
        self.first..self.first + self.cells.len()
    }

    /// The owned stages' cells, first to last.
    pub fn cells(&self) -> &[StageCell] {
        &self.cells
    }

    /// The owned stages' counters, first to last.
    pub fn counters(&self) -> &[StageCounters] {
        &self.counters
    }

    /// Microbatches forwarded so far (the next forward's global index).
    pub fn forwarded(&self) -> usize {
        self.next_fwd
    }

    /// Microbatches fully processed so far (the next backward's global
    /// index).
    pub fn completed(&self) -> usize {
        self.next_bwd
    }

    /// Whether another forward fits before a backward must retire one:
    /// `in_flight ≤ min version_lag` over the owned stages, whose queues
    /// hold `lag + 1` versions each. A lag-0 group therefore drains after
    /// every microbatch by construction.
    pub fn can_forward(&self) -> bool {
        let run_ahead = self
            .cells
            .iter()
            .map(StageCell::version_lag)
            .min()
            .expect("non-empty group");
        self.next_fwd - self.next_bwd <= run_ahead
    }

    /// Runs microbatch `mb`'s forward pass through the owned stages.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is not the next microbatch in forward order or
    /// `stages` is not the owned slice.
    pub fn forward(&mut self, stages: &mut [Stage], stack: &mut LaneStack, mb: usize) {
        assert_eq!(mb, self.next_fwd, "forwards run in microbatch order");
        assert_eq!(stages.len(), self.cells.len(), "one stage per cell");
        for (local, stage) in stages.iter_mut().enumerate() {
            let t0 = Instant::now();
            self.lanes[local].begin(
                TracePhase::Forward,
                Some(mb as u64),
                Some(self.counters[local].updates),
            );
            self.cells[local].forward(stage, stack);
            self.lanes[local].end();
            self.counters[local].add_busy_ns(t0.elapsed().as_nanos());
        }
        self.next_fwd += 1;
    }

    /// The loss stage: cross-entropy of `logits` against `label` and its
    /// gradient, mean-scaled by `1/M` over the plan's update window.
    pub fn loss(&self, logits: &Tensor, label: usize) -> (f32, Tensor) {
        let (loss, grad) = softmax_cross_entropy(logits, &[label]);
        let m = self.config.plan.microbatches_per_update();
        let grad = if m > 1 {
            grad.scale(1.0 / m as f32)
        } else {
            grad
        };
        (loss, grad)
    }

    /// Runs microbatch `mb`'s backward actions through the owned stages,
    /// last to first, and enqueues each stage's next forward version.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is not the next microbatch in backward order, has
    /// not been forwarded, or `stages` is not the owned slice.
    pub fn backward(&mut self, stages: &mut [Stage], gstack: &mut LaneStack, mb: usize) {
        assert_eq!(mb, self.next_bwd, "backwards run in microbatch order");
        assert!(mb < self.next_fwd, "backward of an unforwarded microbatch");
        assert_eq!(stages.len(), self.cells.len(), "one stage per cell");
        let plan = self.config.plan;
        let first_of_update = mb.is_multiple_of(plan.microbatches_per_update());
        if first_of_update {
            let hp = self.config.schedule.at(mb);
            for cell in &mut self.cells {
                cell.set_hyperparams(hp);
            }
        }
        let actions = plan.stage_actions(mb);
        for (local, stage) in stages.iter_mut().enumerate().rev() {
            let t0 = Instant::now();
            let cell = &mut self.cells[local];
            let lane = &mut self.lanes[local];
            let version = self.counters[local].updates;
            let mut updated = false;
            for action in &actions {
                match *action {
                    Action::Forward(_) => {}
                    Action::BackwardInput(i) => {
                        lane.begin(TracePhase::BackwardInput, Some(i as u64), Some(version));
                        cell.backward_input(stage, gstack, first_of_update);
                        lane.end();
                    }
                    Action::BackwardWeight(j) => {
                        lane.begin(TracePhase::BackwardWeight, Some(j as u64), Some(version));
                        cell.backward_weight(stage);
                        lane.end();
                    }
                    Action::Update => {
                        if cell.will_update(stage) {
                            lane.begin(TracePhase::Update, Some(mb as u64), Some(version + 1));
                            cell.update(stage, plan.splits_backward());
                            lane.end();
                            updated = true;
                        }
                    }
                }
            }
            cell.push_next_version(stage);
            let busy = t0.elapsed().as_nanos();
            if updated {
                self.counters[local].record_update(cell.delay(), busy);
            } else {
                self.counters[local].add_busy_ns(busy);
            }
        }
        self.next_bwd += 1;
    }

    /// Splits the group at `bounds` (ascending global stage indices, from
    /// the group's first to one past its last), one group per run;
    /// [`StageGroup::join`] is the inverse.
    pub(crate) fn split(mut self, bounds: &[usize]) -> Vec<StageGroup> {
        // Last run first: each `split_off` leaves the runs before it.
        let runs = bounds.windows(2).rev().map(|run| StageGroup {
            config: self.config.clone(),
            first: run[0],
            cells: self.cells.split_off(run[0] - self.first),
            lanes: self.lanes.split_off(run[0] - self.first),
            counters: self.counters.split_off(run[0] - self.first),
            next_fwd: self.next_fwd,
            next_bwd: self.next_bwd,
        });
        let mut parts: Vec<StageGroup> = runs.collect();
        parts.reverse();
        parts
    }

    /// Reassembles adjacent drained groups, in stage order, into one.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, not contiguous, or the parts disagree
    /// on how many microbatches they completed.
    pub(crate) fn join(parts: Vec<StageGroup>) -> StageGroup {
        let mut parts = parts.into_iter();
        let mut whole = parts.next().expect("at least one group to join");
        for part in parts {
            assert_eq!(part.first, whole.range().end, "groups must be adjacent");
            assert_eq!(
                (part.next_fwd, part.next_bwd),
                (whole.next_fwd, whole.next_bwd),
                "groups must have completed the same microbatches"
            );
            whole.cells.extend(part.cells);
            whole.lanes.extend(part.lanes);
            whole.counters.extend(part.counters);
        }
        whole
    }

    /// Serializes the group's evolving state — the one layout every
    /// substrate's snapshots share: microbatches completed, then per
    /// owned stage its counters, then per owned stage its cell. Counters
    /// come first so a verification harness can read the delay histograms
    /// without reconstructing cells. Only a drained group can be
    /// snapshotted: layer activation stashes are not serialized.
    pub fn write_state(&self, w: &mut StateWriter) {
        debug_assert_eq!(
            self.next_fwd, self.next_bwd,
            "snapshot of an undrained group"
        );
        w.put_usize(self.next_bwd);
        w.put_u32(self.cells.len() as u32);
        for counters in &self.counters {
            counters.write_state(w);
        }
        for cell in &self.cells {
            cell.write_state(w);
        }
    }

    /// Restores state written by [`StageGroup::write_state`] into a group
    /// built from the same configuration; `tag` names the engine in
    /// mismatch errors.
    pub fn read_state(&mut self, r: &mut StateReader<'_>, tag: &str) -> Result<(), SnapshotError> {
        let completed = r.take_usize()?;
        let n = r.take_u32()? as usize;
        if n != self.cells.len() {
            return Err(SnapshotError::Mismatch(format!(
                "{tag} state for {n} stages, group owns {}",
                self.cells.len()
            )));
        }
        for counters in &mut self.counters {
            counters.read_state(r)?;
        }
        let first = self.first;
        for (local, cell) in self.cells.iter_mut().enumerate() {
            cell.read_state(r, tag, first + local)?;
        }
        self.next_fwd = completed;
        self.next_bwd = completed;
        Ok(())
    }
}
