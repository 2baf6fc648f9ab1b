//! The one executor of per-stage schedule semantics.
//!
//! A [`StageGroup`] owns a contiguous range of [`StageCell`]s together
//! with their trace lanes and counters, and interprets the plan's
//! [`Action`] stream for them. Every substrate drives the same four
//! operations through the one [`RankLoop`](crate::RankLoop): the
//! sequential [`ScheduledTrainer`](crate::ScheduledTrainer) over a group
//! of all stages, each [`ThreadedPipeline`](crate::ThreadedPipeline)
//! worker and each `pbp-dist` rank over its run of
//! [`partition_bounds`]. Trace spans, metrics, loss
//! scaling, hyperparameter binding and the run-ahead rule therefore exist
//! once, and the cell's ordering contract (see [`crate::cell`]) makes the
//! three bit-identical — weights, f64 loss sums and Eq. 5 delay
//! histograms — however their stages interleave.
//!
//! ## The operations
//!
//! * [`StageGroup::can_forward`] — the run-ahead rule: a forward runs
//!   once every owned stage has queued the weight version it reads, capped
//!   by the plan's stash budget
//!   ([`in_flight_cap`](crate::MicrobatchSchedule::in_flight_cap)): `min
//!   D_s + 1` microbatches in flight (forwarded, not yet backwarded) under
//!   the pipelined plans, the open update window under fill&drain.
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
//!   Where [`StageGroup::pairs`] allows (the loss rank only), one call
//!   takes two consecutive own-window microbatches: a stage that pairs
//!   takes both input halves in one pass over its `Linear` weights, every
//!   other stage runs the two backwards in turn.

use crate::cell::StageCell;
use crate::metrics::StageCounters;
use crate::rank::Step;
use crate::schedule::{is_own_update_window, Action};
use crate::scheduled::ScheduledConfig;
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::{LaneStack, Network, Stage};
use pbp_snapshot::{SnapshotError, Snapshottable, StateReader, StateWriter};
use pbp_tensor::Tensor;
use pbp_trace::{Lane, TracePhase, Tracer, PID_WALL};
use std::ops::Range;
use std::time::Instant;

/// Flop-equivalents one parameter costs a stage per sample: what the seven
/// weight-sized streams of an update (the table of DESIGN §15) take, at
/// the rate the stage's arithmetic goes. Read off `fc0` (1024×256,
/// 262 400 parameters) and `conv1` (3 × 1.18 MFLOP) of the ledger's traced
/// `cnn.seq` runs: `fc0`'s spans less its own 1.57 MFLOP at `conv1`'s rate,
/// times that rate, per parameter — (224 − 24) µs × 65 GFLOP/s = 50 with
/// the reference box in its fast mode, (264 − 41) µs × 38.5 GFLOP/s = 33
/// in its slow one. Any value from 14 up cuts the ledger's cnn before
/// `fc0`.
const FLOPS_PER_PARAM: u64 = 45;

/// The phases of one microbatch's actions at a stage, whose costs
/// [`stage_cost`] sums.
pub(crate) const ACTION_PHASES: [TracePhase; 4] = [
    TracePhase::Forward,
    TracePhase::BackwardInput,
    TracePhase::BackwardWeight,
    TracePhase::Update,
];

/// What the action of `phase` costs `stage` per sample, in
/// flop-equivalents: the update its memory streams per parameter, the
/// forward and each backward half the forward's
/// [`Stage::flops_per_sample`].
pub fn action_cost(stage: &Stage, phase: TracePhase) -> u64 {
    match phase {
        TracePhase::Update => FLOPS_PER_PARAM * stage.param_count() as u64,
        _ => stage.flops_per_sample(),
    }
}

/// What one sample costs `stage`, in flop-equivalents, read off the model
/// alone: the [`action_cost`] of its forward, its two backward halves and
/// its update. A convolution whose builder did not say its input size
/// counts parameter-based until its first forward (see
/// `Layer::flops_per_sample`), so only builders that do — `vgg_cnn`,
/// `vgg` — are cut the same fresh and warmed.
pub fn stage_cost(stage: &Stage) -> u64 {
    let costs = ACTION_PHASES.map(|phase| action_cost(stage, phase));
    costs.iter().sum()
}

/// The one partition rule: the `workers + 1` ascending bounds that cut
/// stages costing `costs` into `workers` non-empty contiguous runs with the
/// least possible maximum summed cost. Threaded workers and `pbp-dist`
/// ranks both own run `w`, `bounds[w]..bounds[w + 1]`. Among the cuts that
/// reach that least maximum, run 0 is the longest that fits under it and
/// the rest are cut the same way for their own least maximum — which, for
/// uniform costs, is [`contiguous_bounds`].
///
/// # Panics
///
/// Panics unless `1 <= workers <= costs.len()`.
pub fn partition_bounds(costs: &[u64], workers: usize) -> Vec<usize> {
    assert!(
        (1..=costs.len()).contains(&workers),
        "{workers} workers cannot each own one of {} stages",
        costs.len()
    );
    let mut bounds = vec![0];
    for later in (0..workers).rev() {
        let first = bounds[bounds.len() - 1];
        let rest = &costs[first..];
        let cap = least_max_run(rest, later + 1);
        // Every later run keeps a stage; `cap` is at least any one cost,
        // so this run is not empty either.
        let (mut len, mut sum) = (0, 0u64);
        while len < rest.len() - later && sum + rest[len] <= cap {
            sum += rest[len];
            len += 1;
        }
        bounds.push(first + len);
    }
    bounds
}

/// The least `cap` under which `costs` fits in at most `runs` contiguous
/// runs (splitting a run never raises the maximum, so also in exactly
/// `runs` non-empty ones): a bisection over the greedy fit.
fn least_max_run(costs: &[u64], runs: usize) -> u64 {
    let fits = |cap: u64| {
        let (mut used, mut sum) = (1, 0u64);
        for &cost in costs {
            if sum + cost > cap {
                used += 1;
                sum = 0;
            }
            sum += cost;
        }
        used <= runs
    };
    let mut lo = costs.iter().copied().max().unwrap_or(0);
    let mut hi = costs.iter().sum();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// [`partition_bounds`] by count — every stage costs the same: runs of
/// `layer_stages / workers`, the first `layer_stages % workers` one longer.
pub fn contiguous_bounds(layer_stages: usize, workers: usize) -> Vec<usize> {
    partition_bounds(&vec![1; layer_stages], workers)
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

    /// The run-ahead rule: the next forward may run once every owned stage
    /// has queued the version it reads, while fewer than the plan's
    /// [`in_flight_cap`](crate::MicrobatchSchedule::in_flight_cap) of the
    /// least-lagged stage are in flight: `min D_s + 1`, or fill&drain's
    /// open window, which it therefore streams before draining.
    pub fn can_forward(&self) -> bool {
        let lag = self.cells.iter().map(StageCell::version_lag).min();
        let cap = self
            .config
            .plan
            .in_flight_cap(lag.expect("non-empty group"));
        self.next_fwd - self.next_bwd < cap && self.cells.iter().all(StageCell::version_ready)
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

    /// Runs the backward actions of microbatches `mb..mb + grads.len()` —
    /// one, or two that [pair](StageGroup::pairs) — their gradients on
    /// `grads`, through the owned stages, last to first: at each stage
    /// every microbatch's actions and then its `push_next_version`, in
    /// order. A stage that [pairs](Stage::pairs_backward) takes both input
    /// halves in one pass inside the first's `BackwardInput` span
    /// ([`StageCell::backward_input_for`]), and the second's span is empty.
    /// The cell's ordering contract makes the bits those of one microbatch
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics if the microbatches are not the next in backward order,
    /// forwarded, and one or a pair, or `stages` is not the owned slice.
    pub fn backward(&mut self, stages: &mut [Stage], grads: &mut [LaneStack], mb: usize) {
        let n = grads.len();
        assert_eq!(mb, self.next_bwd, "backwards run in microbatch order");
        assert!(
            mb + n <= self.next_fwd,
            "backward of an unforwarded microbatch"
        );
        assert_eq!(stages.len(), self.cells.len(), "one stage per cell");
        assert!(
            n == 1 || (n == 2 && self.pairs(mb)),
            "{n} backwards from {mb} do not pair"
        );
        for (local, stage) in stages.iter_mut().enumerate().rev() {
            for u in 0..n {
                self.backward_stage(local, stage, &mut grads[u..], mb + u);
            }
        }
        self.next_bwd += n;
    }

    /// Whether microbatches `mb` and `mb + 1` can retire as one
    /// [`StageGroup::backward`] that saves a pass: each is its own update
    /// window, and an owned stage pairs.
    pub fn pairs(&self, mb: usize) -> bool {
        let own = |mb| is_own_update_window(&self.config.plan.stage_actions(mb));
        own(mb) && own(mb + 1) && self.cells.iter().any(|cell| cell.pairs)
    }

    /// Microbatch `mb`'s backward actions at owned stage `local`, its
    /// gradients on `grads[0]`, then its `push_next_version`; `grads[1..]`
    /// are the next microbatches', offered to its input half.
    fn backward_stage(
        &mut self,
        local: usize,
        stage: &mut Stage,
        grads: &mut [LaneStack],
        mb: usize,
    ) {
        let plan = self.config.plan;
        let first_of_update = mb.is_multiple_of(plan.microbatches_per_update());
        let t0 = Instant::now();
        let cell = &mut self.cells[local];
        if first_of_update {
            cell.set_hyperparams(self.config.schedule.at(mb));
        }
        let lane = &mut self.lanes[local];
        let version = self.counters[local].updates;
        let actions = plan.stage_actions(mb);
        let mut updated = false;
        for action in &actions {
            match *action {
                Action::Forward(_) => {}
                Action::BackwardInput(i) => {
                    lane.begin(TracePhase::BackwardInput, Some(i as u64), Some(version));
                    let hps = [mb, mb + 1].map(|mb| self.config.schedule.at(mb));
                    let hps = &hps[..grads.len()];
                    cell.backward_input_for(stage, grads, first_of_update, &actions, hps);
                    lane.end();
                }
                Action::BackwardWeight(j) => {
                    lane.begin(TracePhase::BackwardWeight, Some(j as u64), Some(version));
                    stage.backward_weight();
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

    /// The spans `step` records, in the order it runs them, as (global
    /// stage, phase, microbatch, weight version): what
    /// [`StageGroup::forward`] or [`StageGroup::backward`] would run on
    /// `stages`, read without running it.
    pub(crate) fn spans(
        &self,
        stages: &[Stage],
        step: Step,
    ) -> Vec<(usize, TracePhase, usize, u64)> {
        let (fwd, mbs) = match step {
            Step::Forward(mb) => (true, mb..mb + 1),
            Step::Backward { .. } => (false, step.retires()),
        };
        let (n, mut spans) = (self.cells.len(), Vec::new());
        for k in 0..n {
            let local = if fwd { k } else { n - 1 - k };
            let (s, mut v) = (self.first + local, self.counters[local].updates);
            let updates = self.cells[local].will_update(&stages[local]);
            for mb in mbs.clone() {
                let actions = self.config.plan.stage_actions(mb);
                spans.extend(actions.iter().filter_map(|&action| match action {
                    Action::Forward(i) if fwd => Some((s, TracePhase::Forward, i, v)),
                    Action::BackwardInput(i) if !fwd => Some((s, TracePhase::BackwardInput, i, v)),
                    Action::BackwardWeight(j) if !fwd => {
                        Some((s, TracePhase::BackwardWeight, j, v))
                    }
                    Action::Update if !fwd && updates => Some((s, TracePhase::Update, mb, v + 1)),
                    _ => None,
                }));
                if !fwd && updates && actions.contains(&Action::Update) {
                    v += 1;
                }
            }
        }
        spans
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
            cell.read_state(r, tag, first + local, completed)?;
        }
        self.next_fwd = completed;
        self.next_bwd = completed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_nn::models::{mlp, vgg_cnn};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn max_run(costs: &[u64], bounds: &[usize]) -> u64 {
        let run = |w: &[usize]| costs[w[0]..w[1]].iter().sum::<u64>();
        bounds.windows(2).map(run).max().expect("a run")
    }

    /// Every way to cut `n` stages into `workers` non-empty runs.
    fn all_cuts(n: usize, workers: usize) -> Vec<Vec<usize>> {
        let mut cuts = vec![vec![0]];
        for later in (0..workers).rev() {
            cuts = cuts
                .into_iter()
                .flat_map(|cut| {
                    let first = cut[cut.len() - 1];
                    let ends = if later == 0 {
                        n..=n
                    } else {
                        first + 1..=n - later
                    };
                    ends.map(move |end| [&cut[..], &[end]].concat())
                })
                .collect();
        }
        cuts
    }

    #[test]
    fn uniform_costs_cut_by_count() {
        for n in 1..=12usize {
            for w in 1..=n {
                let (base, extra) = (n / w, n % w);
                let by_count: Vec<usize> = (0..=w).map(|r| r * base + r.min(extra)).collect();
                assert_eq!(contiguous_bounds(n, w), by_count, "{n} stages, {w} workers");
                assert_eq!(partition_bounds(&vec![7; n], w), by_count, "cost 7 each");
            }
        }
    }

    #[test]
    fn random_costs_reach_the_brute_force_least_maximum() {
        let mut rng = StdRng::seed_from_u64(22);
        for case in 0..300 {
            let n = rng.gen_range(1..10usize);
            let w = rng.gen_range(1..n + 1);
            // Zero-cost (parameterless) stages and heavy outliers included.
            let costs: Vec<u64> = (0..n)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1_000..5_000u64),
                    _ => rng.gen_range(1..50u64),
                })
                .collect();
            let bounds = partition_bounds(&costs, w);
            let what = format!("case {case}: {costs:?} over {w}: {bounds:?}");
            assert_eq!((bounds[0], bounds[w]), (0, n), "{what}");
            assert!(bounds.windows(2).all(|run| run[0] < run[1]), "{what}");
            let least = all_cuts(n, w).iter().map(|cut| max_run(&costs, cut)).min();
            assert_eq!(Some(max_run(&costs, &bounds)), least, "{what}");
            assert_eq!(partition_bounds(&costs, w), bounds, "{what}: deterministic");
        }
    }

    #[test]
    fn the_ledgers_models_cut_where_the_spans_say() {
        let costs = |net: &Network| net.stages().map(stage_cost).collect::<Vec<_>>();
        // Four conv stages against `fc0`'s 1 MB of weights: cut before `fc0`.
        let cnn = vgg_cnn(3, 16, 4, 16, 256, 10, &mut StdRng::seed_from_u64(0));
        assert_eq!(partition_bounds(&costs(&cnn), 2), [0, 4, 6]);
        // Seven equal 64×64 layers between two light ends: as by count.
        let fine = mlp(
            &[2, 64, 64, 64, 64, 64, 64, 64, 64, 3],
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(partition_bounds(&costs(&fine), 2), contiguous_bounds(9, 2));
        assert_eq!(partition_bounds(&costs(&fine), 9), contiguous_bounds(9, 9));
    }
}
