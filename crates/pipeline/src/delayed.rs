//! The Appendix G.2 delayed-gradient simulator: a uniform, configurable
//! gradient delay across all layers at arbitrary batch size, with
//! consistent or inconsistent weights.
//!
//! This is the tool behind Figure 10 (inconsistent weights vs stale
//! gradients), Figure 13 (prediction-horizon sweep on a network) and
//! Figure 14 (momentum sweep): "the modified optimizer has a buffer of old
//! parameter values; to apply a delay D, the model is loaded with
//! parameters from D time steps ago, a forward and backward pass is
//! performed [and] the resulting gradients are then used to update a master
//! copy of the weights. Weight inconsistency is simulated by … doing the
//! forward pass then loading the model with the master weights before doing
//! the backwards pass."

use crate::engine::TrainEngine;
use crate::metrics::{EngineMetrics, MetricsRecorder};
use crate::schedule::{Action, MicrobatchSchedule};
use pbp_data::Dataset;
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::Network;
use pbp_optim::{LrSchedule, Mitigation, StageOptimizer};
use pbp_tensor::Tensor;
use std::collections::VecDeque;
use std::time::Instant;

/// Configuration for delayed-gradient training.
#[derive(Debug, Clone)]
pub struct DelayedConfig {
    /// Uniform gradient delay in update steps.
    pub delay: usize,
    /// Batch size per update.
    pub batch_size: usize,
    /// `true`: the backward pass reuses the delayed forward weights
    /// ("Consistent Delay" in Figure 10). `false`: the backward pass uses
    /// the current master weights ("Forward Delay Only" — weight
    /// inconsistency).
    pub consistent: bool,
    /// Mitigation method (applied with the uniform delay at every stage).
    pub mitigation: Mitigation,
    /// Learning-rate schedule in samples seen.
    pub schedule: LrSchedule,
}

impl DelayedConfig {
    /// Plain delayed training with consistent weights.
    pub fn consistent(delay: usize, batch_size: usize, schedule: LrSchedule) -> Self {
        DelayedConfig {
            delay,
            batch_size,
            consistent: true,
            mitigation: Mitigation::None,
            schedule,
        }
    }

    /// Plain delayed training with inconsistent weights.
    pub fn inconsistent(delay: usize, batch_size: usize, schedule: LrSchedule) -> Self {
        DelayedConfig {
            consistent: false,
            ..DelayedConfig::consistent(delay, batch_size, schedule)
        }
    }

    /// Sets the mitigation method.
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }
}

/// Delayed-gradient trainer (uniform delay, arbitrary batch size).
///
/// Executes the [`MicrobatchSchedule::UniformDelay`] action stream at
/// whole-network granularity: one `Forward`/`BackwardInput`/
/// `BackwardWeight`/`Update` cycle per batch, with the forward pass under
/// the weight version from `delay` updates ago.
pub struct DelayedTrainer {
    net: Network,
    plan: MicrobatchSchedule,
    opts: Vec<StageOptimizer>,
    /// FIFO of whole-network forward weight versions; front is what the
    /// next update's forward pass sees.
    history: VecDeque<Vec<Vec<Tensor>>>,
    config: DelayedConfig,
    samples_seen: usize,
    metrics: MetricsRecorder,
}

impl std::fmt::Debug for DelayedTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DelayedTrainer(D={}, batch={}, consistent={}, {})",
            self.config.delay,
            self.config.batch_size,
            self.config.consistent,
            self.config.mitigation.label()
        )
    }
}

impl DelayedTrainer {
    /// Creates the trainer.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(net: Network, config: DelayedConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        let hp = config.schedule.at(0);
        let opts: Vec<StageOptimizer> = (0..net.num_stages())
            .map(|s| {
                // Uniform delay; stage_index 0 so SpecTrain-style horizons
                // degenerate to plain LWP with T = D here.
                let cfg = config.mitigation.stage_config(config.delay, 0);
                StageOptimizer::new(&net.stage(s).params(), cfg, hp)
            })
            .collect();
        let snapshot = net.snapshot();
        let history: VecDeque<Vec<Vec<Tensor>>> =
            (0..=config.delay).map(|_| snapshot.clone()).collect();
        let metrics = MetricsRecorder::new(net.num_stages());
        DelayedTrainer {
            net,
            plan: MicrobatchSchedule::UniformDelay {
                delay: config.delay,
            },
            opts,
            history,
            config,
            samples_seen: 0,
            metrics,
        }
    }

    /// Borrows the network.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Consumes the trainer, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Trains on one batch; returns the loss.
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let start = Instant::now();
        let hp = self.config.schedule.at(self.samples_seen);
        for opt in &mut self.opts {
            opt.set_hyperparams(hp);
        }
        // One batch is one microbatch of the UniformDelay plan, executed at
        // whole-network granularity.
        let update_index = self.samples_seen / self.config.batch_size;
        let master = self.net.snapshot();
        let mut loss = 0.0f32;
        let mut grad: Option<Tensor> = None;
        for action in self.plan.stage_actions(update_index) {
            match action {
                Action::Forward(_) => {
                    let fwd = self.history.pop_front().expect("history pre-filled");
                    // Forward with the delayed (possibly predicted) weights.
                    self.net.load(&fwd);
                    self.net.zero_grads();
                    let logits = self.net.forward(x);
                    let (l, g) = softmax_cross_entropy(&logits, labels);
                    loss = l;
                    grad = Some(g);
                }
                Action::BackwardInput(_) => {
                    if !self.config.consistent {
                        // Weight inconsistency: backward under the master
                        // weights.
                        self.net.load(&master);
                    }
                    self.net
                        .backward_input(grad.as_ref().expect("forward precedes backward"));
                }
                Action::BackwardWeight(_) => {
                    self.net.backward_weight();
                }
                Action::Update => {
                    // Update the master copy.
                    self.net.load(&master);
                    for s in 0..self.net.num_stages() {
                        let step_start = Instant::now();
                        let stage = self.net.stage_mut(s);
                        let (mut params, grads) = stage.params_and_grads();
                        if grads.is_empty() {
                            continue;
                        }
                        self.opts[s].step(&mut params, &grads);
                        self.metrics.record_update(
                            s,
                            self.config.delay,
                            step_start.elapsed().as_nanos(),
                        );
                    }
                    // Enqueue the next forward version (with prediction if
                    // configured).
                    let mut next = Vec::with_capacity(self.net.num_stages());
                    for s in 0..self.net.num_stages() {
                        let params = self.net.stage(s).params();
                        let v = self.opts[s]
                            .forward_weights(&params)
                            .unwrap_or_else(|| params.into_iter().cloned().collect());
                        next.push(v);
                    }
                    self.history.push_back(next);
                }
            }
        }
        self.samples_seen += labels.len();
        self.metrics.add_train_ns(start.elapsed().as_nanos());
        loss
    }

    /// Trains one epoch; returns the mean batch loss.
    pub fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        TrainEngine::train_epoch(self, data, seed, epoch)
    }

    /// Trains a contiguous slice of an epoch order; returns the loss sum
    /// and the number of batches covered. Slice boundaries must land on
    /// batch multiples (see `align_stop`) to match an unsliced epoch.
    pub fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in indices.chunks(self.config.batch_size) {
            let (x, labels) = data.batch(chunk);
            total += self.train_batch(&x, &labels) as f64;
            batches += 1;
        }
        (total, batches)
    }
}

impl TrainEngine for DelayedTrainer {
    fn label(&self) -> String {
        format!(
            "{} D={} ({})",
            self.config.mitigation.label(),
            self.config.delay,
            if self.config.consistent {
                "consistent"
            } else {
                "inconsistent"
            }
        )
    }

    fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        DelayedTrainer::train_batch(self, x, labels)
    }

    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        DelayedTrainer::train_range(self, data, indices)
    }

    fn samples_per_update(&self) -> usize {
        self.config.batch_size
    }

    fn align_stop(&self, _pos: usize, proposed: usize, epoch_len: usize) -> usize {
        let b = self.config.batch_size;
        (proposed.div_ceil(b) * b).min(epoch_len)
    }

    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder) {
        use pbp_snapshot::Snapshottable;
        pbp_nn::snapshot::write_network(&self.net, snap);
        crate::state::write_engine_section(snap, "delayed", |w| {
            w.put_usize(self.samples_seen);
            w.put_u32(self.opts.len() as u32);
            for opt in &self.opts {
                opt.write_state(w);
            }
            crate::state::write_network_history(w, &self.history);
            self.metrics.write_state(w);
        });
    }

    fn read_state(
        &mut self,
        archive: &pbp_snapshot::SnapshotArchive,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        use pbp_snapshot::Snapshottable;
        pbp_nn::snapshot::read_network(&mut self.net, archive)?;
        let mut r = crate::state::engine_reader(archive, "delayed")?;
        self.samples_seen = r.take_usize()?;
        let n = r.take_u32()? as usize;
        if n != self.opts.len() {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "delayed state for {n} stages, engine has {}",
                self.opts.len()
            )));
        }
        for opt in &mut self.opts {
            opt.read_state(&mut r)?;
        }
        self.history = crate::state::read_network_history(&mut r)?;
        if self.history.len() != self.config.delay + 1 {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "delayed history holds {} versions, delay requires {}",
                self.history.len(),
                self.config.delay + 1
            )));
        }
        self.metrics.read_state(&mut r)?;
        r.finish()
    }

    fn network_mut(&mut self) -> &mut Network {
        DelayedTrainer::network_mut(self)
    }

    fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    fn metrics(&self) -> EngineMetrics {
        self.metrics
            .snapshot(TrainEngine::label(self), self.samples_seen, None)
    }

    fn into_network(self: Box<Self>) -> Network {
        DelayedTrainer::into_network(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::SgdmTrainer;
    use pbp_data::spirals;
    use pbp_nn::models::mlp;
    use pbp_optim::Hyperparams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> LrSchedule {
        LrSchedule::constant(Hyperparams::new(0.05, 0.9))
    }

    #[test]
    fn zero_delay_matches_sgdm_bitwise() {
        let mut rng = StdRng::seed_from_u64(0);
        let net_a = mlp(&[2, 12, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(0);
        let net_b = mlp(&[2, 12, 3], &mut rng);
        let data = spirals(3, 24, 0.05, 1);
        let mut delayed = DelayedTrainer::new(net_a, DelayedConfig::consistent(0, 4, schedule()));
        let mut sgd = SgdmTrainer::new(net_b, schedule(), 4);
        for epoch in 0..3 {
            delayed.train_epoch(&data, 2, epoch);
            sgd.train_epoch(&data, 2, epoch);
        }
        let na = delayed.into_network();
        let nb = sgd.into_network();
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                assert_eq!(p.as_slice(), q.as_slice(), "stage {s}");
            }
        }
    }

    #[test]
    fn consistent_and_inconsistent_agree_at_zero_delay() {
        let mut rng = StdRng::seed_from_u64(1);
        let net_a = mlp(&[2, 12, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let net_b = mlp(&[2, 12, 3], &mut rng);
        let data = spirals(3, 24, 0.05, 2);
        let mut a = DelayedTrainer::new(net_a, DelayedConfig::consistent(0, 4, schedule()));
        let mut b = DelayedTrainer::new(net_b, DelayedConfig::inconsistent(0, 4, schedule()));
        a.train_epoch(&data, 3, 0);
        b.train_epoch(&data, 3, 0);
        let na = a.into_network();
        let nb = b.into_network();
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                assert_eq!(p.as_slice(), q.as_slice(), "stage {s}");
            }
        }
    }

    #[test]
    fn delayed_training_still_learns() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = mlp(&[2, 16, 3], &mut rng);
        let data = pbp_data::blobs(3, 40, 0.4, 5);
        let (train, val) = data.split(0.2);
        let mut trainer = DelayedTrainer::new(net, DelayedConfig::consistent(4, 4, schedule()));
        let report = trainer.run(&train, &val, 15, 6);
        assert!(report.final_val_acc() > 0.8, "{}", report.final_val_acc());
    }

    #[test]
    fn large_delay_hurts_more_than_small_delay() {
        // Figure 10's qualitative content on a cheap task: compare final
        // training loss at delay 0 vs a large delay with the same budget.
        let run = |delay: usize| -> f64 {
            let mut rng = StdRng::seed_from_u64(7);
            let net = mlp(&[2, 24, 3], &mut rng);
            let data = spirals(3, 90, 0.05, 8);
            let mut t = DelayedTrainer::new(
                net,
                DelayedConfig::consistent(
                    delay,
                    4,
                    LrSchedule::constant(Hyperparams::new(0.1, 0.9)),
                ),
            );
            let mut loss = 0.0;
            for epoch in 0..10 {
                loss = t.train_epoch(&data, 9, epoch);
            }
            loss
        };
        let fast = run(0);
        let slow = run(16);
        assert!(
            slow > fast,
            "delay should slow optimization: D=0 loss {fast}, D=16 loss {slow}"
        );
    }

    #[test]
    fn mitigation_helps_under_delay() {
        let run = |mitigation: Mitigation| -> f64 {
            let mut rng = StdRng::seed_from_u64(10);
            let net = mlp(&[2, 24, 3], &mut rng);
            let data = spirals(3, 90, 0.05, 11);
            let sched = LrSchedule::constant(Hyperparams::new(0.08, 0.95));
            let mut t = DelayedTrainer::new(
                net,
                DelayedConfig::consistent(8, 4, sched).with_mitigation(mitigation),
            );
            let mut loss = 0.0;
            for epoch in 0..10 {
                loss = t.train_epoch(&data, 12, epoch);
            }
            loss
        };
        let plain = run(Mitigation::None);
        let combo = run(Mitigation::lwpv_scd());
        assert!(
            combo < plain,
            "combined mitigation should reduce loss: plain {plain}, combo {combo}"
        );
    }
}
