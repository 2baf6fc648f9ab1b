//! The sequential schedule-execution engine.
//!
//! [`ScheduledTrainer`] is the world of one: the [`RankLoop`] every
//! threaded worker and `pbp-dist` rank steps, here over a [`StageGroup`]
//! of *all* of the network's stages with the caller as its feed and no
//! link at either end, so each microbatch is one forward step (every
//! stage, then the loss) and one backward step (every stage). It runs every
//! [`MicrobatchSchedule`]: pure pipelined backpropagation
//! ([`ScheduledConfig::pb`]), fill-and-drain SGD
//! ([`ScheduledConfig::fill_drain`]), 1F1B gradient accumulation, 2BP
//! backward splitting and the uniform-delay plan.
//!
//! ## Emulation model
//!
//! As in the paper's own GPU emulation (Appendix G.2), a sequential
//! per-microbatch sweep reproduces the pipeline's weight dynamics
//! exactly. In real PB (Figure 2, bottom), sample `i`'s forward pass
//! reaches stage `s` when that stage's weights have received `i − D_s`
//! updates, with `D_s = 2(S−1−s)` (Eq. 5); its gradient arrives back
//! after `i` updates and is applied immediately. Because updates at each
//! stage happen in sample order, holding per stage a FIFO of its last
//! `⌈L_s/M⌉ + 1` weight versions (`L_s` the schedule's version lag, `M`
//! microbatches per update) is enough: the forward pass of microbatch `i`
//! at stage `s` loads the version after `max(0, ⌊(i − L_s)/M⌋)` updates,
//! the backward pass uses the current weights (or the forward's queued
//! version / the re-predicted one under weight stashing / SpecTrain),
//! updates fire at the schedule's cadence, and each update enqueues the
//! fresh version — predicted, when LWP is configured (Eqs. 18-19).
//! Fill-and-drain is the lag-0 instance:
//! forward and backward always see the same weights and the result is
//! mathematically identical to mini-batch SGDM, the only cost being
//! utilization (Eq. 1). Schedules that split backward defer each
//! microbatch's weight-gradient half as pending work inside the layers
//! ([`Layer::backward_input`](pbp_nn::Layer::backward_input)) and retire
//! it at the update boundary ([`Layer::backward_weight`](pbp_nn::Layer::backward_weight)),
//! where the summed gradients meet the same optimizer sweep every other
//! schedule's do.

use crate::engine::TrainEngine;
use crate::group::StageGroup;
use crate::metrics::EngineMetrics;
use crate::rank::{Message, RankLoop, Upstream};
use crate::schedule::MicrobatchSchedule;
use crate::threaded::ChannelLink;
use pbp_data::Dataset;
use pbp_nn::Network;
use pbp_optim::{LrSchedule, Mitigation};
use pbp_tensor::Tensor;

/// What a run executes: the schedule plus the delay-mitigation and
/// weight-stashing settings. One value configures every substrate — the
/// sequential [`ScheduledTrainer`], each stage group of a distributed
/// rank, and (inside [`ThreadedConfig`](crate::ThreadedConfig)) each
/// worker of the threaded runtime.
#[derive(Debug, Clone)]
pub struct ScheduledConfig {
    /// The microbatch schedule to execute.
    pub plan: MicrobatchSchedule,
    /// Delay-mitigation method (Section 3), configured with each stage's
    /// update-staleness under the plan.
    pub mitigation: Mitigation,
    /// Weight stashing: backward uses the exact weights of the forward
    /// pass.
    pub weight_stashing: bool,
    /// Learning-rate/momentum schedule, in units of samples seen. Should
    /// already be scaled for the plan's update size (Eq. 9).
    pub schedule: LrSchedule,
}

impl ScheduledConfig {
    /// Plain execution of `plan` (no mitigation, no stashing).
    pub fn new(plan: MicrobatchSchedule, schedule: LrSchedule) -> Self {
        ScheduledConfig {
            plan,
            mitigation: Mitigation::None,
            weight_stashing: false,
            schedule,
        }
    }

    /// Fine-grained pipelined backpropagation at update size one: stage
    /// `s` runs `D_s = 2(S−1−s)` updates stale (Eq. 5). `schedule` should
    /// already be scaled for update size one (Eq. 9).
    pub fn pb(schedule: LrSchedule) -> Self {
        ScheduledConfig::new(MicrobatchSchedule::PipelinedBackprop, schedule)
    }

    /// Fill-and-drain pipeline SGDM with update size `update_size`
    /// (Section 2, Figure 2 top/middle): per-worker batch size one, as in
    /// the paper's GProp validation (Figure 16).
    ///
    /// # Panics
    ///
    /// Panics if `update_size == 0`.
    pub fn fill_drain(update_size: usize, schedule: LrSchedule) -> Self {
        assert!(update_size > 0, "update size must be positive");
        ScheduledConfig::new(MicrobatchSchedule::FillDrain { update_size }, schedule)
    }

    /// 1F1B with `microbatches_per_update` gradient accumulation.
    pub fn one_f_one_b(microbatches_per_update: usize, schedule: LrSchedule) -> Self {
        ScheduledConfig::new(
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update,
            },
            schedule,
        )
    }

    /// 2BP: 1F1B dataflow with the backward pass split in two and the
    /// weight-gradient halves deferred to the update boundary.
    pub fn two_bp(microbatches_per_update: usize, schedule: LrSchedule) -> Self {
        ScheduledConfig::new(
            MicrobatchSchedule::TwoBP {
                microbatches_per_update,
            },
            schedule,
        )
    }

    /// Sets the mitigation method.
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Enables weight stashing.
    pub fn with_weight_stashing(mut self) -> Self {
        self.weight_stashing = true;
        self
    }

    /// The label the built engine reports: the plan's name, the mitigation
    /// suffix (if any) and the stashing marker.
    pub fn label(&self) -> String {
        let mut label = self.plan.label();
        let mit = self.mitigation.label();
        match mit.strip_prefix("PB") {
            Some(suffix) => label.push_str(suffix),
            None => {
                label.push('+');
                label.push_str(&mit);
            }
        }
        if self.weight_stashing {
            label.push_str("+WS");
        }
        label
    }
}

/// The sequential engine: one [`RankLoop`] over all stages (see the
/// module docs). Fields are crate-visible so the threaded runtime can
/// split the state into its workers' ranks and join it back.
pub struct ScheduledTrainer {
    pub(crate) net: Network,
    /// The whole-network rank; its `train_ns` is the wall-clock time
    /// spent inside training calls.
    pub(crate) rank: RankLoop,
    pub(crate) config: ScheduledConfig,
}

impl std::fmt::Debug for ScheduledTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ScheduledTrainer({}, {} stages, samples_seen={})",
            self.config.label(),
            self.net.pipeline_stage_count(),
            self.rank.group.completed()
        )
    }
}

impl ScheduledTrainer {
    /// Creates the engine for a network under the configured schedule,
    /// setting up per-stage delays, optimizers and weight-version queues.
    pub fn new(net: Network, config: ScheduledConfig) -> Self {
        let rank = RankLoop::new(StageGroup::new(&net, 0..net.num_stages(), &config));
        ScheduledTrainer { net, rank, config }
    }

    /// The per-stage gradient delays (in updates) in effect.
    pub fn delays(&self) -> Vec<usize> {
        self.rank.group.cells().iter().map(|c| c.delay()).collect()
    }

    /// Borrows the network (for evaluation etc.). Evaluation uses the
    /// current (most recent) weights, as the paper does.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Consumes the trainer, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Number of microbatches trained on so far.
    pub fn samples_seen(&self) -> usize {
        self.rank.group.completed()
    }

    /// Trains on one microbatch (`x` without batch dimension): two steps
    /// of the rank, held to one microbatch in flight — forward through
    /// every stage and the loss stage, then the plan's backward actions
    /// through every stage. Returns the loss.
    pub fn train_sample(&mut self, x: &Tensor, label: usize) -> f32 {
        let fwd_limit = self.rank.group.completed() + 1;
        let mut feed = |mb: usize| Message::sample(mb, x, label);
        for _ in 0..2 {
            // No link at either end; the type only names what one would be.
            let up = Upstream::<ChannelLink>::Feed(&mut feed);
            let step = self.rank.step(self.net.stages_mut(), up, None, fwd_limit);
            step.expect("a world of one has no link to fail");
        }
        self.rank.last_loss()
    }

    /// Trains one epoch in the deterministic order for `(seed, epoch)`;
    /// returns the mean loss.
    pub fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        TrainEngine::train_epoch(self, data, seed, epoch)
    }

    /// The engine's metrics, its occupancy measured over `workers`
    /// workers: one here, the worker count when the threaded runtime ran
    /// the same state.
    pub(crate) fn metrics_over(&self, workers: usize) -> EngineMetrics {
        let (stages, train_ns) = (self.rank.group.counters().to_vec(), self.rank.train_ns);
        let busy: u128 = stages.iter().map(|stage| stage.busy_ns).sum();
        EngineMetrics {
            engine: self.config.label(),
            samples: self.rank.group.completed(),
            train_ns,
            occupancy: (train_ns > 0).then(|| busy as f64 / (workers as f64 * train_ns as f64)),
            stages,
        }
    }
}

impl TrainEngine for ScheduledTrainer {
    fn label(&self) -> String {
        self.config.label()
    }

    /// All pipeline state (weight version queues, stashes, partially
    /// accumulated updates) carries across slices. Steps the rank with two
    /// microbatches in flight, so a pair of own-window microbatches retires
    /// as one two-microbatch [`Step::Backward`](crate::Step::Backward)
    /// wherever the group [pairs](StageGroup::pairs) them; an odd tail
    /// retires alone.
    /// The call ends drained.
    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        let base = self.rank.group.completed();
        let end = base + indices.len();
        let mut feed = |mb: usize| {
            let (x, label) = data.sample(indices[mb - base]);
            Message::sample(mb, x, label)
        };
        let mut total = 0.0f64;
        while self.rank.group.completed() < end {
            let fwd_limit = end.min(self.rank.group.completed() + 2);
            let up = Upstream::<ChannelLink>::Feed(&mut feed);
            let step = self.rank.step(self.net.stages_mut(), up, None, fwd_limit);
            let step = step.expect("a world of one has no link to fail");
            if step.is_some_and(|step| !step.retires().is_empty()) {
                // One loss at a time, in order: the f64 sum a sample-by-sample
                // loop adds up.
                for &loss in self.rank.last_losses() {
                    total += loss as f64;
                }
            }
        }
        self.rank.group.flush_trace();
        (total, indices.len())
    }

    fn samples_per_update(&self) -> usize {
        self.config.plan.microbatches_per_update()
    }

    fn align_stop(&self, pos: usize, proposed: usize, epoch_len: usize) -> usize {
        // Stop only where the in-flight update completes: mid-window the
        // layers hold accumulated (and, under 2BP, deferred) gradients
        // that snapshots deliberately do not serialize. The epoch end is
        // always allowed (the update then stays pending, and
        // `snapshot_ready` gates there).
        let m = self.config.plan.microbatches_per_update();
        let pending = self.rank.group.completed() % m;
        let rem = (pending + (proposed - pos)) % m;
        let aligned = if rem == 0 {
            proposed
        } else {
            proposed + m - rem
        };
        aligned.min(epoch_len)
    }

    fn snapshot_ready(&self) -> bool {
        self.rank
            .group
            .completed()
            .is_multiple_of(self.config.plan.microbatches_per_update())
    }

    fn set_tracer(&mut self, tracer: pbp_trace::Tracer) {
        self.rank.group.set_tracer(&tracer, "");
    }

    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder) {
        pbp_nn::snapshot::write_network(&self.net, snap);
        crate::state::write_engine_section(snap, "sched", |w| {
            self.rank.group.write_state(w);
            w.put_u128(self.rank.train_ns);
        });
    }

    fn read_state(
        &mut self,
        archive: &pbp_snapshot::SnapshotArchive,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        pbp_nn::snapshot::read_network(&mut self.net, archive)?;
        let mut r = crate::state::engine_reader(archive, "sched")?;
        self.rank.group.read_state(&mut r, "sched")?;
        self.rank.train_ns = r.take_u128()?;
        if !self.snapshot_ready() {
            // Snapshots are only written at update boundaries: a partial
            // window would also require the accumulated layer gradients,
            // which are deliberately not serialized.
            return Err(pbp_snapshot::SnapshotError::Corrupt(format!(
                "snapshot taken mid-update ({} microbatches into windows of {})",
                self.rank.group.completed(),
                self.config.plan.microbatches_per_update()
            )));
        }
        r.finish()
    }

    fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    fn samples_seen(&self) -> usize {
        self.rank.group.completed()
    }

    fn metrics(&self) -> EngineMetrics {
        self.metrics_over(1)
    }

    fn into_network(self: Box<Self>) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delayed::{DelayedConfig, DelayedTrainer};
    use pbp_data::spirals;
    use pbp_nn::models::{mlp, simple_cnn};
    use pbp_optim::{Hyperparams, LwpForm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> LrSchedule {
        LrSchedule::constant(pbp_optim::scale_hyperparams(
            Hyperparams::new(0.1, 0.9),
            8,
            1,
        ))
    }

    #[test]
    fn one_f_one_b_delays_contract_with_accumulation() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[2, 8, 8, 3], &mut rng); // D_s = 6, 4, 2
        let t = ScheduledTrainer::new(net, ScheduledConfig::one_f_one_b(4, schedule()));
        assert_eq!(t.delays(), vec![2, 1, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[2, 8, 8, 3], &mut rng);
        let t = ScheduledTrainer::new(net, ScheduledConfig::one_f_one_b(1, schedule()));
        assert_eq!(t.delays(), vec![6, 4, 2]);
    }

    #[test]
    fn two_bp_matches_one_f_one_b_bitwise() {
        // The only difference between the plans is *when* the
        // weight-gradient halves run; the weights they produce must be
        // bit-identical.
        let mut rng = StdRng::seed_from_u64(1);
        let net_a = mlp(&[2, 12, 8, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let net_b = mlp(&[2, 12, 8, 3], &mut rng);
        let data = spirals(3, 24, 0.05, 2);
        let mut fused = ScheduledTrainer::new(net_a, ScheduledConfig::one_f_one_b(4, schedule()));
        let mut split = ScheduledTrainer::new(net_b, ScheduledConfig::two_bp(4, schedule()));
        for epoch in 0..2 {
            fused.train_epoch(&data, 7, epoch);
            split.train_epoch(&data, 7, epoch);
        }
        let na = fused.into_network();
        let nb = split.into_network();
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                for (a, b) in p.as_slice().iter().zip(q.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "stage {s} diverged");
                }
            }
        }
    }

    #[test]
    fn scheduled_engines_train_blobs() {
        for config in [
            ScheduledConfig::one_f_one_b(4, schedule()),
            ScheduledConfig::two_bp(4, schedule()),
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let net = mlp(&[2, 16, 16, 3], &mut rng);
            let data = pbp_data::blobs(3, 40, 0.4, 4);
            let (train, val) = data.split(0.2);
            let label = config.label();
            let mut t = ScheduledTrainer::new(net, config);
            let report = t.run(&train, &val, 10, 5);
            assert!(
                report.final_val_acc() > 0.8,
                "{label} accuracy {}",
                report.final_val_acc()
            );
        }
    }

    #[test]
    fn delay_histograms_match_the_contracted_staleness() {
        // The measured histogram of 1F1B(M), and of its 2BP split, must
        // put every update at the bounded staleness ⌈D_s/M⌉ predicted by
        // the schedule.
        let data = spirals(3, 16, 0.05, 7);
        let expected = [2usize, 1, 1];
        for config in [
            ScheduledConfig::one_f_one_b(4, schedule()),
            ScheduledConfig::two_bp(4, schedule()),
        ] {
            let label = config.label();
            let mut rng = StdRng::seed_from_u64(6);
            let net = mlp(&[2, 8, 8, 3], &mut rng); // S = 4, D_s = 6, 4, 2
            let mut t = ScheduledTrainer::new(net, config);
            t.train_epoch(&data, 8, 0);
            let metrics = TrainEngine::metrics(&t);
            for (s, stage) in metrics.stages.iter().enumerate() {
                let keys: Vec<usize> = stage.delay_hist.keys().copied().collect();
                assert_eq!(keys, vec![expected[s]], "{label}: stage {s} histogram");
                assert_eq!(stage.updates, (16 * 3 / 4) as u64, "{label}: stage {s}");
            }
        }
    }

    #[test]
    fn align_stop_rounds_to_update_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = mlp(&[2, 6, 3], &mut rng);
        let t = ScheduledTrainer::new(net, ScheduledConfig::one_f_one_b(4, schedule()));
        assert_eq!(t.align_stop(0, 3, 100), 4);
        assert_eq!(t.align_stop(0, 4, 100), 4);
        assert_eq!(t.align_stop(0, 99, 100), 100);
        assert!(t.snapshot_ready());
    }

    #[test]
    fn labels_compose_plan_and_mitigation() {
        assert_eq!(
            ScheduledConfig::one_f_one_b(4, schedule()).label(),
            "1F1B (M=4)"
        );
        assert_eq!(
            ScheduledConfig::two_bp(8, schedule())
                .with_mitigation(pbp_optim::Mitigation::scd())
                .with_weight_stashing()
                .label(),
            "2BP (M=8)+SCD+WS"
        );
    }

    // ---- Pipelined backpropagation (re-homed from the PB wrapper).

    #[test]
    fn pb_delays_match_eq5() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[2, 8, 8, 3], &mut rng); // 3 layer stages + loss = 4
        let trainer = ScheduledTrainer::new(net, ScheduledConfig::pb(schedule()));
        assert_eq!(trainer.delays(), vec![6, 4, 2]);
    }

    fn assert_bit_identical(na: &Network, nb: &Network) {
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                assert_eq!(p.as_slice(), q.as_slice(), "stage {s} diverged");
            }
        }
    }

    #[test]
    fn zero_delay_is_bit_identical_to_sequential_sgdm() {
        let mut rng = StdRng::seed_from_u64(1);
        let net_a = mlp(&[2, 16, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let net_b = mlp(&[2, 16, 3], &mut rng);
        let data = spirals(3, 30, 0.05, 2);

        let cfg = ScheduledConfig::new(MicrobatchSchedule::UniformDelay { delay: 0 }, schedule());
        let mut pb = ScheduledTrainer::new(net_a, cfg);
        let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(1, schedule()));
        for epoch in 0..2 {
            pb.train_epoch(&data, 9, epoch);
            sgd.train_epoch(&data, 9, epoch);
        }
        assert_bit_identical(&pb.into_network(), &sgd.into_network());
    }

    fn blobs_accuracy(
        config: ScheduledConfig,
        net_seed: u64,
        data_seed: u64,
        epochs: usize,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(net_seed);
        let net = mlp(&[2, 16, 16, 3], &mut rng);
        let data = pbp_data::blobs(3, 30, 0.4, data_seed);
        let (train, val) = data.split(0.2);
        let mut pb = ScheduledTrainer::new(net, config);
        pb.run(&train, &val, epochs, data_seed + 1).final_val_acc()
    }

    #[test]
    fn pb_trains_blobs_despite_delay() {
        let acc = blobs_accuracy(ScheduledConfig::pb(schedule()), 3, 4, 10);
        assert!(acc > 0.8, "PB accuracy {acc}");
    }

    #[test]
    fn mitigated_pb_trains_stably() {
        // Not a strict dominance claim (single seed), but every mitigation
        // should train stably and reach reasonable accuracy.
        for (mitigation, floor) in [
            (Mitigation::lwpv_scd(), 0.8),
            (Mitigation::SpecTrain, 0.6),
            (Mitigation::Sc { scale: 2.0 }, 0.5),
            (
                Mitigation::Lwp {
                    form: LwpForm::Velocity,
                    scale: 2.0,
                },
                0.5,
            ),
            (
                Mitigation::Lwp {
                    form: LwpForm::WeightDiff,
                    scale: 1.0,
                },
                0.5,
            ),
            (Mitigation::lwpw_scd(), 0.5),
            (Mitigation::GradShrink { factor: 0.95 }, 0.5),
        ] {
            let config = ScheduledConfig::pb(schedule()).with_mitigation(mitigation);
            let acc = blobs_accuracy(config, 20, 21, 10);
            assert!(acc > floor, "{}: accuracy {acc}", mitigation.label());
        }
    }

    #[test]
    fn weight_stashing_keeps_queue_invariants() {
        let data = spirals(3, 12, 0.05, 8);
        // One queued version per update: `⌈D_s/M⌉ + 1`, stashing or not.
        for cfg in [
            ScheduledConfig::pb(schedule()),
            ScheduledConfig::one_f_one_b(4, schedule()),
        ] {
            let net = mlp(&[2, 8, 3], &mut StdRng::seed_from_u64(7));
            let mut engine = ScheduledTrainer::new(net, cfg.with_weight_stashing());
            engine.train_epoch(&data, 1, 0);
            for (s, cell) in engine.rank.group.cells().iter().enumerate() {
                assert_eq!(cell.fwd_queue_len(), cell.delay() + 1, "stage {s}");
            }
        }
    }

    #[test]
    fn stashing_composes_with_mitigation() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = mlp(&[2, 12, 3], &mut rng);
        let data = pbp_data::blobs(3, 18, 0.4, 24);
        let cfg = ScheduledConfig::pb(schedule())
            .with_mitigation(Mitigation::lwpv_scd())
            .with_weight_stashing();
        let mut pb = ScheduledTrainer::new(net, cfg);
        for epoch in 0..3 {
            pb.train_epoch(&data, 25, epoch);
        }
        let net = pb.into_network();
        for s in 0..net.num_stages() {
            assert!(net.stage(s).params().iter().all(|p| p.all_finite()));
        }
    }

    #[test]
    fn run_labels_mention_stashing() {
        let mut rng = StdRng::seed_from_u64(26);
        let net = mlp(&[2, 6, 3], &mut rng);
        let data = pbp_data::blobs(3, 9, 0.4, 27);
        let (train, val) = data.split(0.34);
        let cfg = ScheduledConfig::pb(schedule()).with_weight_stashing();
        let mut pb = ScheduledTrainer::new(net, cfg);
        let report = pb.run(&train, &val, 1, 28);
        assert_eq!(report.label, "PB+WS");
    }

    // ---- Fill-and-drain (re-homed from the fill&drain wrapper).

    fn batch_schedule() -> LrSchedule {
        LrSchedule::constant(Hyperparams::new(0.05, 0.9))
    }

    #[test]
    fn fill_drain_is_bit_identical_to_batch_sgdm() {
        // Same seeds, same data order: fill&drain (sequential samples,
        // mean-scaled grads) must match batch-parallel SGDM exactly — every
        // layer accumulates batched gradients as completed per-sample
        // subtotals, the same association per-sample training builds.
        let mut rng = StdRng::seed_from_u64(0);
        let net_a = mlp(&[2, 16, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(0);
        let net_b = mlp(&[2, 16, 3], &mut rng);
        let data = spirals(3, 32, 0.05, 1);
        let mut fd = ScheduledTrainer::new(net_a, ScheduledConfig::fill_drain(8, batch_schedule()));
        let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(8, batch_schedule()));
        for epoch in 0..3 {
            fd.train_epoch(&data, 4, epoch);
            sgd.train_epoch(&data, 4, epoch);
        }
        assert_bit_identical(&fd.into_network(), &sgd.into_network());
    }

    #[test]
    fn fill_drain_is_bit_identical_to_batch_sgdm_with_groupnorm() {
        // GroupNorm is per-sample, so per-sample and batched processing
        // agree bit-for-bit (conv/linear/norm all accumulate batch grads
        // as per-sample subtotals); this is the Figure 16 GProp-validation
        // property, and it guards the kernel layer's batch association.
        let mut rng = StdRng::seed_from_u64(2);
        let net_a = simple_cnn(1, 4, 2, 3, &mut rng);
        let mut rng = StdRng::seed_from_u64(2);
        let net_b = simple_cnn(1, 4, 2, 3, &mut rng);
        let gen = pbp_data::SyntheticImages::new(
            pbp_data::DatasetSpec {
                num_classes: 3,
                channels: 1,
                size: 8,
                noise: 0.2,
                max_shift: 1,
                contrast_jitter: 0.1,
            },
            5,
        );
        let data = gen.generate(24, 0);
        let mut fd = ScheduledTrainer::new(net_a, ScheduledConfig::fill_drain(4, batch_schedule()));
        let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(4, batch_schedule()));
        for epoch in 0..2 {
            fd.train_epoch(&data, 4, epoch);
            sgd.train_epoch(&data, 4, epoch);
        }
        assert_bit_identical(&fd.into_network(), &sgd.into_network());
    }

    #[test]
    fn fill_drain_occupancy_is_measured() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = mlp(&[2, 8, 3], &mut rng); // 2 layer stages + loss = 3
        let data = spirals(3, 32, 0.05, 1);
        let mut fd = ScheduledTrainer::new(net, ScheduledConfig::fill_drain(8, batch_schedule()));
        assert_eq!(
            TrainEngine::metrics(&fd).occupancy,
            None,
            "nothing timed yet"
        );
        fd.train_epoch(&data, 1, 0);
        let metrics = TrainEngine::metrics(&fd);
        let busy: u128 = metrics.stages.iter().map(|stage| stage.busy_ns).sum();
        let occupancy = metrics.occupancy.expect("a timed run");
        // One worker: the stages' busy share of the engine's own time.
        assert_eq!(occupancy, busy as f64 / metrics.train_ns as f64);
        assert!(occupancy > 0.0 && occupancy <= 1.0, "{occupancy}");
    }
}
