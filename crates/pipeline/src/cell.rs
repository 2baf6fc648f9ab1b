//! The per-stage schedule-execution state every substrate shares.
//!
//! [`StageCell`] owns what one pipeline stage needs to execute its slice
//! of a [`MicrobatchSchedule`](crate::MicrobatchSchedule) action stream:
//! the stage's optimizer (with its delay-mitigation configuration) and
//! the FIFO of forward weight versions — one per update, `⌈D/M⌉ + 1` of
//! them between microbatches, for a version lag of `D` microbatches and
//! `M` microbatches per update. Forward `i` reads the version after
//! `max(0, ⌊(i − D)/M⌋)` updates; under weight stashing its backward reads
//! the same queued version, so nothing is copied to stash it. Version
//! buffers circulate: the closing update of a window retires the oldest
//! version, whose every reader has run, and writes the next one into a
//! spent buffer in the same sweep that applies the update, so a running
//! pipeline allocates no weight-sized memory. Cells are driven by
//! [`StageGroup`](crate::StageGroup), the
//! one interpreter of the action stream; this file and `group.rs` are
//! together the only implementation of per-stage semantics (DESIGN §12,
//! enforced by a grep lint in `scripts/check.sh`), which is what makes
//! the sequential, threaded and multi-process substrates bit-identical.
//!
//! ## One pass over a weight for its backward and its update
//!
//! When a microbatch is its own update window — its actions are
//! `BackwardInput(i), BackwardWeight(i), Update`: PB, and fill&drain, 1F1B
//! and 2BP at an update size of one — and its backward runs under the live
//! weights (no weight stashing, no SpecTrain backward re-prediction), the
//! cell lends the window's optimizer step to the stage's backward
//! ([`StageCell::backward_input_for`], [`Stage::backward_input_stepping`]).
//! A batch-1 `Linear` then computes `gx = δ·W` inside its weight's update
//! sweep, from each row before the sweep rewrites it, so `W` and its
//! velocity are read once where the split path reads `W` twice back to
//! back. The bits are the split path's: `gx` is `gemm_nn`'s `m = 1`
//! chain — rows in order from `+0.0`, one fma each — and the weight's
//! sweep reads the gradient `δ ⊗ x` its `backward_weight` will hold, under
//! the hyperparameters `update` would use, writing into the same version
//! buffer (retired from the queue's front once, by the backward, and
//! finished by `update`, which sweeps only the parameters not yet
//! stepped). Every other window — 1F1B, 2BP and fill&drain at `M > 1`,
//! where one window sums several gradients; weight stashing and SpecTrain,
//! whose backward runs under other weights than the live ones — takes the
//! split path: `backward_input`, then `backward_weight`, then one `update`.
//!
//! ## No input gradient for the network's first stage
//!
//! Stage 0's input gradient is the gradient of the sample itself: on every
//! host rank 0 feeds itself and sends nothing upstream, so the cell of
//! stage 0 asks the stage's first layer for its weight half only
//! ([`Layer::backward_input_unread`](pbp_nn::Layer::backward_input_unread)):
//! a convolution runs no input-gradient kernel, a `Linear` no `δ·W`, and
//! the backward leaves the gradient stack empty. Every other stage passes
//! its input gradient on. Nothing a later step reads changes, so the bits
//! are those of a backward that computed the gradient and dropped it.
//! [`pbp_nn::Network::backward`] still returns it.
//!
//! ## Ordering contract
//!
//! For a fixed stage, the cell's methods must be called in the schedule's
//! per-stage order: `forward` for microbatch `i` before `forward` for
//! `i+1`, `backward_input`/`backward_weight`/`update` in the exact
//! [`Action`](crate::Action) stream order, and `push_next_version` once
//! after each microbatch's backward actions. *Across* stages any
//! interleaving that respects data dependencies yields the same bits:
//! forwards read only queued versions, chosen by their microbatch index,
//! and backwards mutate only this stage's weights, so stage `s` running
//! microbatch `i+2` while stage `s+1` still works on `i` — the real
//! pipeline's overlap — cannot change any value. The only structural
//! constraint is that a forward may not outrun its version: it runs once
//! the version it reads is queued ([`StageCell::version_ready`]), and no
//! more than the plan's [`in_flight_cap`](crate::MicrobatchSchedule::in_flight_cap)
//! microbatches are in flight (forwarded but not yet backwarded) at a
//! stage.

use pbp_nn::{LaneStack, ParamStep, Stage};
use pbp_optim::{Hyperparams, Mitigation, StageOptimizer};
use pbp_snapshot::{SnapshotError, Snapshottable, StateReader, StateWriter};
use pbp_tensor::Tensor;
use std::collections::VecDeque;

use crate::schedule::{is_own_update_window, Action, MicrobatchSchedule};

/// One pipeline stage's schedule-execution state: optimizer and forward
/// weight-version FIFO.
pub struct StageCell {
    opt: StageOptimizer,
    /// Forward weight-version lag in microbatches (Eq. 5 `D_s` for PB).
    version_lag: usize,
    /// Microbatches per update (`M`).
    per_update: usize,
    /// FIFO of forward weight versions, one per update, oldest first:
    /// `⌈D/M⌉ + 1` entries between microbatches. Version `n` holds the
    /// weights after `n − ⌈D/M⌉` updates — the first `⌈D/M⌉ + 1` are the
    /// initial weights, as in a freshly filled pipeline.
    versions: VecDeque<Vec<Tensor>>,
    /// The version number of `versions`' front: updates retired so far.
    front: usize,
    /// Microbatches forwarded / fully backwarded at this stage.
    forwarded: usize,
    completed: usize,
    weight_stashing: bool,
    /// The next forward version, written by `update` — begun by a backward
    /// the step was lent to — into the spent front buffer, and waiting for
    /// this microbatch's `push_next_version`.
    next: Option<Vec<Tensor>>,
    /// SpecTrain's backward weights, re-predicted into this buffer before
    /// each backward; empty when no backward prediction is configured.
    backward_version: Vec<Tensor>,
    /// Whether the stage's input gradient has a reader: every stage's but
    /// the network's first, whose input is the sample (see the module
    /// docs).
    input_grad: bool,
}

/// The window's optimizer step as [`StageCell::backward_input_for`] lends
/// it to the stage: each parameter it is offered is swept into its slot of
/// the version buffer the coming `update` finishes.
struct LentStep<'a> {
    opt: &'a mut StageOptimizer,
    next: &'a mut [Tensor],
}

impl ParamStep for LentStep<'_> {
    fn step_outer(
        &mut self,
        index: usize,
        w: &mut Tensor,
        delta: &[f32],
        x: &[f32],
        gx: &mut [f32],
    ) {
        self.opt
            .step_outer_into(index, w, delta, x, &mut self.next[index], gx);
    }
}

/// Runs `pass` on `stage` under `version`'s weights: exchanges the live
/// parameter tensors with the version's, in [`Stage::params`] order, for
/// the pass. No weight is copied, and afterwards both sides hold exactly
/// what they held before.
fn under(stage: &mut Stage, version: &mut [Tensor], pass: impl FnOnce(&mut Stage)) {
    let swap = |stage: &mut Stage, version: &mut [Tensor]| {
        let params = stage.params_mut();
        assert_eq!(params.len(), version.len(), "version layout mismatch");
        params
            .into_iter()
            .zip(version)
            .for_each(|(p, v)| std::mem::swap(p, v));
    };
    swap(stage, version);
    pass(stage);
    swap(stage, version);
}

impl StageCell {
    /// Builds the cell for stage `s` of a pipeline with
    /// `pipeline_stages` stages under `plan`, deriving the version lag
    /// and optimizer delay from the schedule. `delay_override` forces
    /// both instead; no engine passes it any more
    /// ([`MicrobatchSchedule::UniformDelay`] expresses the same thing) and
    /// the parameter stays only because the benchmark harness calls this
    /// signature. The queue starts with `⌈lag/M⌉ + 1` copies of the
    /// stage's initial weights, exactly like a freshly filled pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        stage: &Stage,
        s: usize,
        pipeline_stages: usize,
        plan: &MicrobatchSchedule,
        mitigation: Mitigation,
        weight_stashing: bool,
        hp: Hyperparams,
        delay_override: Option<usize>,
    ) -> Self {
        let lag = delay_override.unwrap_or_else(|| plan.stage_version_lag(s, pipeline_stages));
        let delay = delay_override.unwrap_or_else(|| plan.stage_delay(s, pipeline_stages));
        let stage_cfg = mitigation.stage_config(delay, s);
        let opt = StageOptimizer::new(&stage.params(), stage_cfg, hp);
        let per_update = plan.microbatches_per_update();
        let snapshot = stage.snapshot();
        let backward_version = match opt.config().bwd_horizon != 0.0 {
            true => snapshot.clone(),
            false => Vec::new(),
        };
        let versions = (0..=lag.div_ceil(per_update))
            .map(|_| snapshot.clone())
            .collect();
        StageCell {
            opt,
            version_lag: lag,
            per_update,
            versions,
            front: 0,
            forwarded: 0,
            completed: 0,
            weight_stashing,
            next: None,
            backward_version,
            input_grad: s != 0,
        }
    }

    /// Forward weight-version lag in microbatches.
    pub fn version_lag(&self) -> usize {
        self.version_lag
    }

    /// The stage's gradient delay in updates (`⌈D_s/M⌉` under the plan).
    pub fn delay(&self) -> usize {
        self.opt.config().delay
    }

    /// Entries currently in the forward version queue.
    pub fn fwd_queue_len(&self) -> usize {
        self.versions.len()
    }

    /// The queue slot of the version microbatch `i`'s forward reads: the
    /// weights after `max(0, ⌊(i − D)/M⌋)` updates, version
    /// `⌊(i − D)/M⌋ + ⌈D/M⌉`.
    fn slot(&self, i: usize) -> usize {
        let m = self.per_update;
        let pad = m * self.version_lag.div_ceil(m) - self.version_lag;
        (i + pad) / m - self.front
    }

    /// Whether the version the next forward reads has been pushed.
    pub fn version_ready(&self) -> bool {
        self.slot(self.forwarded) < self.versions.len()
    }

    /// Sets the optimizer's hyperparameters (called at each update
    /// window's first microbatch).
    pub fn set_hyperparams(&mut self, hp: Hyperparams) {
        self.opt.set_hyperparams(hp);
    }

    /// Runs the stage's forward pass under the scheduled weight version,
    /// swapped in from its queue slot — skipped when it is bit-identical to
    /// the live weights (no lag, no forward prediction: fill&drain at full
    /// speed). The version stays queued for the window's other forwards
    /// and, under weight stashing, this microbatch's backward.
    ///
    /// # Panics
    ///
    /// Panics if the forward outran its version ([`StageCell::version_ready`]).
    pub fn forward(&mut self, stage: &mut Stage, stack: &mut LaneStack) {
        let slot = self.slot(self.forwarded);
        let live = self.version_lag == 0 && self.opt.config().fwd_horizon == 0.0;
        let version = self.versions.get_mut(slot).expect("forward version pushed");
        if live {
            stage.forward(stack);
        } else {
            under(stage, version, |stage| stage.forward(stack));
        }
        self.forwarded += 1;
    }

    /// Whether the backward pass runs under the live weights: no weight
    /// stashing, no SpecTrain backward re-prediction.
    fn backward_runs_live(&self) -> bool {
        !self.weight_stashing && self.opt.config().bwd_horizon == 0.0
    }

    /// Runs the stage's input-gradient backward pass, zeroing the
    /// accumulated gradients first when this is the update window's
    /// first microbatch. Under weight stashing it runs under the queued
    /// version its forward read; under SpecTrain under the re-predicted
    /// weights. At the network's first stage it leaves no input gradient
    /// on `gstack` (see the module docs).
    pub fn backward_input(&mut self, stage: &mut Stage, gstack: &mut LaneStack, zero_grads: bool) {
        if zero_grads {
            stage.zero_grads();
        }
        let input_grad = self.input_grad;
        if self.weight_stashing {
            let slot = self.slot(self.completed);
            under(stage, &mut self.versions[slot], |stage| {
                stage.backward_input(gstack, input_grad)
            });
        } else if self.opt.config().bwd_horizon != 0.0 {
            let horizon = self.opt.config().bwd_horizon;
            let bw = &mut self.backward_version;
            self.opt.predict_into(&stage.params(), horizon, bw);
            under(stage, bw, |stage| stage.backward_input(gstack, input_grad));
        } else {
            stage.backward_input(gstack, input_grad);
        }
    }

    /// [`StageCell::backward_input`] for a microbatch whose actions at the
    /// stage are `actions`. When they make the microbatch its own update
    /// window and the backward runs under the live weights, the pass also
    /// takes the window's update of every weight a layer can step beside
    /// its input gradient, into the version buffer `update` then finishes
    /// (see the module docs); the bits are the split path's either way.
    pub fn backward_input_for(
        &mut self,
        stage: &mut Stage,
        gstack: &mut LaneStack,
        zero_grads: bool,
        actions: &[Action],
    ) {
        let lends = zero_grads
            && self.backward_runs_live()
            && is_own_update_window(actions)
            && self.will_update(stage);
        if !lends {
            return self.backward_input(stage, gstack, zero_grads);
        }
        stage.zero_grads();
        let mut next = self.retire_front();
        let mut step = LentStep {
            opt: &mut self.opt,
            next: &mut next,
        };
        stage.backward_input_stepping(gstack, &mut step, self.input_grad);
        self.next = Some(next);
    }

    /// Retires one pending weight-gradient half (2BP). Weight-gradient
    /// halves read no weights, only values stashed at `backward_input`
    /// time, so no override dance is needed.
    pub fn backward_weight(&self, stage: &mut Stage) {
        stage.backward_weight();
    }

    /// True if an `update` call would apply an optimizer step (the stage
    /// has parameters carrying gradients).
    pub fn will_update(&self, stage: &Stage) -> bool {
        !stage.grads().is_empty()
    }

    /// Retires the oldest queued version and hands out a spent buffer for
    /// the closing update to rewrite. At an update boundary every forward
    /// that reads the oldest version, and every backward that ran under it,
    /// has run: its readers are the window's microbatches `D` back, and the
    /// window's last is the microbatch closing now. The buffer handed out
    /// is the newest spent one — read by the latest forward (under weight
    /// stashing, backward) and likely still in cache — which swaps places
    /// with the oldest first. With several microbatches in flight,
    /// rewriting the oldest instead cost the ledger's `cnn.threaded` ≈ 6 %
    /// of its throughput on a two-vCPU host.
    fn retire_front(&mut self) -> Vec<Tensor> {
        let next_reader = match self.weight_stashing {
            true => self.completed + 1,
            false => self.forwarded,
        };
        self.versions.swap(0, self.slot(next_reader) - 1);
        self.front += 1;
        self.versions
            .pop_front()
            .expect("the queue holds a version per pending update")
    }

    /// Applies the optimizer update and, in the same sweep over the
    /// weights, writes the forward version it implies into the retired
    /// front buffer for [`StageCell::push_next_version`] to enqueue — the
    /// one a [`StageCell::backward_input_for`] that stepped some weights
    /// already began, sweeping only the rest. Returns whether a step fired
    /// (parameterless stages never update).
    /// `split_backward` no longer selects anything — by the update
    /// boundary a split schedule's layers hold the same accumulated
    /// gradients a fused one's do — and stays only because the benchmark
    /// harness calls this signature.
    pub fn update(&mut self, stage: &mut Stage, _split_backward: bool) -> bool {
        let (mut params, grads) = stage.params_and_grads();
        if grads.is_empty() {
            return false;
        }
        let mut next = match self.next.take() {
            Some(next) => next,
            None => self.retire_front(),
        };
        self.opt.step_into(&mut params, &grads, &mut next);
        self.next = Some(next);
        true
    }

    /// Closes this microbatch at the stage: enqueues the version its
    /// update wrote, if it closed an update window. A stage that takes no
    /// step moves its front version to the back unchanged: its weights
    /// never change. Within a window nothing is pushed: the forward `D`
    /// microbatches on reads the version the last update wrote, bit for
    /// bit what re-predicting from the unchanged weights would give
    /// ([`StageOptimizer::step_into`]'s contract) while the learning rate
    /// holds. The stage argument is unused and stays because the
    /// benchmark harness passes it.
    pub fn push_next_version(&mut self, _stage: &Stage) {
        let closes = (self.completed + 1).is_multiple_of(self.per_update);
        let next = match self.next.take() {
            Some(next) => Some(next),
            None if closes => Some(self.retire_front()),
            None => None,
        };
        self.versions.extend(next);
        self.completed += 1;
    }

    /// Serializes the cell's evolving state: optimizer, version queue and
    /// an empty weight stash (the layout keeps the stash's place; a
    /// drained stage stashes nothing). The lag and configuration are
    /// rebuilt from the schedule.
    pub fn write_state(&self, w: &mut StateWriter) {
        self.opt.write_state(w);
        crate::state::write_version_queue(w, &self.versions);
        crate::state::write_version_queue(w, &VecDeque::new());
    }

    /// Restores state written by [`StageCell::write_state`] into a cell
    /// built for the same stage, `completed` microbatches into the run.
    /// Refuses, as [`SnapshotError::Mismatch`], a queue whose length is not
    /// the schedule's `⌈lag/M⌉ + 1`, a version whose tensor count or shapes
    /// differ from the stage's parameters, and a stashed version: snapshots
    /// are of drained stages.
    pub fn read_state(
        &mut self,
        r: &mut StateReader<'_>,
        tag: &str,
        s: usize,
        completed: usize,
    ) -> Result<(), SnapshotError> {
        let mismatch =
            |what: String| Err(SnapshotError::Mismatch(format!("{tag} stage {s} {what}")));
        self.opt.read_state(r)?;
        let queue = crate::state::read_version_queue(r)?;
        let want = self.versions.len();
        if queue.len() != want {
            return mismatch(format!(
                "forward queue holds {} versions, schedule requires {want}",
                queue.len()
            ));
        }
        let shapes = |version: &[Tensor]| -> Vec<Vec<usize>> {
            version.iter().map(|t| t.shape().to_vec()).collect()
        };
        let layout = shapes(&self.versions[0]);
        if let Some(bad) = queue.iter().find(|version| shapes(version) != layout) {
            return mismatch(format!(
                "forward version has shapes {:?}, parameters are {layout:?}",
                shapes(bad)
            ));
        }
        let stash = crate::state::read_version_queue(r)?;
        if !stash.is_empty() {
            return mismatch(format!(
                "stashes {} versions in a drained snapshot",
                stash.len()
            ));
        }
        self.versions = queue;
        self.front = completed / self.per_update;
        (self.forwarded, self.completed) = (completed, completed);
        self.next = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_nn::loss::softmax_cross_entropy;
    use pbp_nn::models::mlp;
    use pbp_nn::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PLAN: MicrobatchSchedule = MicrobatchSchedule::PipelinedBackprop;

    fn net() -> Network {
        mlp(&[4, 6, 5, 3], &mut StdRng::seed_from_u64(7))
    }

    fn cells(net: &Network, weight_stashing: bool) -> Vec<StageCell> {
        cells_with(net, Mitigation::lwpv_scd(), weight_stashing)
    }

    fn cells_with(net: &Network, mitigation: Mitigation, weight_stashing: bool) -> Vec<StageCell> {
        let (stages, hp) = (net.pipeline_stage_count(), Hyperparams::new(0.05, 0.9));
        (0..net.num_stages())
            .map(|s| {
                StageCell::new(
                    net.stage(s),
                    s,
                    stages,
                    &PLAN,
                    mitigation,
                    weight_stashing,
                    hp,
                    None,
                )
            })
            .collect()
    }

    /// One microbatch through every cell, forward then backward — the
    /// sequential sweep. Returns the loss.
    fn microbatch(net: &mut Network, cells: &mut [StageCell], i: usize) -> f32 {
        microbatch_by(net, cells, i, false)
    }

    /// [`microbatch`], its backward through `backward_input_for` with the
    /// plan's actions when `lend`, else through the split
    /// `backward_input`. Asserts that a lending backward began the next
    /// version exactly when the cell's configuration lets it.
    fn microbatch_by(net: &mut Network, cells: &mut [StageCell], i: usize, lend: bool) -> f32 {
        let mut stack = vec![Tensor::from_fn(&[1, 4], |j| {
            ((i * 4 + j) as f32 * 0.3).sin()
        })];
        for (s, cell) in cells.iter_mut().enumerate() {
            cell.forward(net.stage_mut(s), &mut stack);
        }
        let (loss, grad) = softmax_cross_entropy(&stack.pop().expect("logits"), &[i % 3]);
        let mut gstack = vec![grad];
        for (s, cell) in cells.iter_mut().enumerate().rev() {
            if lend {
                let actions = PLAN.stage_actions(i);
                cell.backward_input_for(net.stage_mut(s), &mut gstack, true, &actions);
                let lends = cell.backward_runs_live() && cell.will_update(net.stage(s));
                assert_eq!(cell.next.is_some(), lends);
            } else {
                cell.backward_input(net.stage_mut(s), &mut gstack, true);
            }
            cell.backward_weight(net.stage_mut(s));
            if cell.will_update(net.stage(s)) {
                cell.update(net.stage_mut(s), false);
            }
            cell.push_next_version(net.stage(s));
        }
        loss
    }

    /// Where the newest queued version's tensors live.
    fn newest_version(cell: &StageCell) -> Vec<*const f32> {
        let newest = cell.versions.back().expect("lag + 1 versions");
        newest.iter().map(|t| t.as_slice().as_ptr()).collect()
    }

    /// The network's first stage runs its weight half only: its backward,
    /// split or lent the update, leaves the gradient stack empty, while
    /// every other stage passes on its input's gradient — for a first layer
    /// that is a `Linear` and for one that is a convolution.
    #[test]
    fn only_the_first_stage_leaves_no_input_gradient() {
        let cnn = pbp_nn::models::vgg_cnn(3, 4, 2, 6, 8, 3, &mut StdRng::seed_from_u64(8));
        for (mut net, input) in [(net(), vec![1, 4]), (cnn, vec![1, 3, 6, 6])] {
            for lend in [false, true] {
                let mut cells = cells(&net, false);
                let mut stack = vec![Tensor::from_fn(&input, |j| (j as f32 * 0.7).sin())];
                let mut inputs = Vec::new();
                for (s, cell) in cells.iter_mut().enumerate() {
                    inputs.push(stack[0].shape().to_vec());
                    cell.forward(net.stage_mut(s), &mut stack);
                }
                let (_, grad) = softmax_cross_entropy(&stack.pop().expect("logits"), &[1]);
                let mut gstack = vec![grad];
                for (s, cell) in cells.iter_mut().enumerate().rev() {
                    let stage = net.stage_mut(s);
                    match lend {
                        true => {
                            let actions = PLAN.stage_actions(0);
                            cell.backward_input_for(stage, &mut gstack, true, &actions);
                        }
                        false => cell.backward_input(stage, &mut gstack, true),
                    }
                    let passed: Vec<&[usize]> = gstack.iter().map(|g| g.shape()).collect();
                    let want: Vec<&[usize]> = match s {
                        0 => vec![],
                        _ => vec![&inputs[s]],
                    };
                    assert_eq!(passed, want, "stage {s} lend={lend}");
                    cell.backward_weight(net.stage_mut(s));
                    if cell.will_update(net.stage(s)) {
                        cell.update(net.stage_mut(s), false);
                    }
                    cell.push_next_version(net.stage(s));
                }
            }
        }
    }

    #[test]
    fn steady_state_recycles_version_buffers() {
        for weight_stashing in [false, true] {
            let mut net = net();
            let mut cells = cells(&net, weight_stashing);
            let mut pushed: Vec<Vec<Vec<*const f32>>> = Vec::new();
            for i in 0..24 {
                microbatch(&mut net, &mut cells, i);
                pushed.push(cells.iter().map(newest_version).collect());
                for cell in &cells {
                    assert_eq!(cell.fwd_queue_len(), cell.version_lag() + 1);
                    assert!(cell.next.is_none());
                }
            }
            // The version a microbatch pushes is written into the buffer
            // its forward read — the one pushed `lag + 1` microbatches
            // earlier: the queue's allocations circulate, none is new.
            for (s, cell) in cells.iter().enumerate() {
                let period = cell.version_lag() + 1;
                if net.stage(s).params().is_empty() {
                    continue;
                }
                for i in period..pushed.len() {
                    assert_eq!(
                        pushed[i][s],
                        pushed[i - period][s],
                        "stage {s} microbatch {i} stashing={weight_stashing}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_lent_step_is_the_split_path_bit_for_bit() {
        let mitigations = [
            Mitigation::None,
            Mitigation::scd(),
            Mitigation::lwpv_scd(),
            Mitigation::lwpw_scd(),
            Mitigation::SpecTrain,
            Mitigation::GradShrink { factor: 0.5 },
        ];
        for mitigation in mitigations {
            for weight_stashing in [false, true] {
                let (mut net_a, mut net_b) = (net(), net());
                let mut cells_a = cells_with(&net_a, mitigation, weight_stashing);
                let mut cells_b = cells_with(&net_b, mitigation, weight_stashing);
                for i in 0..20 {
                    let lent = microbatch_by(&mut net_a, &mut cells_a, i, true);
                    let split = microbatch_by(&mut net_b, &mut cells_b, i, false);
                    assert_eq!(
                        lent.to_bits(),
                        split.to_bits(),
                        "{mitigation:?} microbatch {i}"
                    );
                }
                for s in 0..net_a.num_stages() {
                    let (a, b) = (net_a.stage(s), net_b.stage(s));
                    for (a, b) in a.params().iter().zip(b.params()) {
                        assert_eq!(a.as_slice(), b.as_slice(), "{mitigation:?} stage {s}");
                    }
                    let (a, b) = (cells_a[s].opt.velocity(), cells_b[s].opt.velocity());
                    for (a, b) in a.iter().zip(b) {
                        assert_eq!(a.as_slice(), b.as_slice(), "{mitigation:?} stage {s}");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_mid_run_resumes_bit_identically() {
        for weight_stashing in [false, true] {
            let mut net_a = net();
            let mut cells_a = cells(&net_a, weight_stashing);
            for i in 0..9 {
                microbatch(&mut net_a, &mut cells_a, i);
            }
            let mut w = StateWriter::new();
            cells_a.iter().for_each(|cell| cell.write_state(&mut w));
            let bytes = w.into_bytes();

            // The restored side starts from the same weights but other
            // buffers: fresh cells, then the stored state.
            let mut net_b = net();
            for s in 0..net_b.num_stages() {
                net_b.stage_mut(s).load(&net_a.stage(s).snapshot());
            }
            let mut cells_b = cells(&net_b, weight_stashing);
            let mut r = StateReader::new(&bytes);
            for (s, cell) in cells_b.iter_mut().enumerate() {
                cell.read_state(&mut r, "test", s, 9)
                    .expect("matching layout");
            }
            r.finish().expect("whole state consumed");

            for i in 9..20 {
                let loss_a = microbatch(&mut net_a, &mut cells_a, i);
                let loss_b = microbatch(&mut net_b, &mut cells_b, i);
                assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "microbatch {i}");
            }
            for s in 0..net_a.num_stages() {
                for (a, b) in net_a.stage(s).params().iter().zip(net_b.stage(s).params()) {
                    assert_eq!(a.as_slice(), b.as_slice(), "stage {s}");
                }
            }
        }
    }

    /// A snapshot state whose version layout the stage cannot run, or that
    /// stashes a version although snapshots are of drained stages, is a
    /// typed mismatch on restore — not a panic at the next forward, nor a
    /// backward under weights no forward of the resumed run read.
    #[test]
    fn a_state_the_stage_cannot_run_is_a_mismatch() {
        let net = net();
        let layout = net.stage(0).snapshot();
        let state = |version: Vec<Tensor>, stash: VecDeque<Vec<Tensor>>| {
            let fresh = cells(&net, false);
            let mut w = StateWriter::new();
            fresh[0].opt.write_state(&mut w);
            let queue = (0..fresh[0].fwd_queue_len()).map(|_| version.clone());
            crate::state::write_version_queue(&mut w, &queue.collect());
            crate::state::write_version_queue(&mut w, &stash);
            w.into_bytes()
        };
        let one_short = layout[..layout.len() - 1].to_vec();
        let mut shape_off = layout.clone();
        shape_off[0] = Tensor::zeros(&[shape_off[0].len() + 1]);
        let stashed = VecDeque::from([layout.clone()]);
        let cases = [
            ("one tensor short", state(one_short, VecDeque::new())),
            ("one shape off", state(shape_off, VecDeque::new())),
            ("one stashed version", state(layout.clone(), stashed)),
        ];
        for (what, bytes) in cases {
            let mut cell = cells(&net, true).swap_remove(0);
            let got = cell.read_state(&mut StateReader::new(&bytes), "test", 0, 0);
            assert!(
                matches!(got, Err(SnapshotError::Mismatch(_))),
                "{what}: {got:?}"
            );
        }
        // The well-formed state itself restores.
        let mut cell = cells(&net, true).swap_remove(0);
        let bytes = state(layout, VecDeque::new());
        let got = cell.read_state(&mut StateReader::new(&bytes), "test", 0, 0);
        assert!(got.is_ok(), "{got:?}");
    }
}
