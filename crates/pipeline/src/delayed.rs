//! The Appendix G.2 simulator: whole-network training under a gradient
//! delay, at arbitrary batch size.
//!
//! "The modified optimizer has a buffer of old parameter values; to apply
//! a delay D, the model is loaded with parameters from D time steps ago, a
//! forward and backward pass is performed [and] the resulting gradients
//! are then used to update a master copy of the weights. Weight
//! inconsistency is simulated by … doing the forward pass then loading the
//! model with the master weights before doing the backwards pass. … This
//! setup can also be used to simulate ASGD training by making D a random
//! variable which models the distribution of GPU communications with the
//! master node."
//!
//! One machine, so one trainer: [`DelayedConfig`] names the rows the paper
//! runs on it. `D = 0` is plain mini-batch SGDM (the `SGDM` baseline every
//! table is measured against, and the reference the stage executor is
//! checked against bit for bit); a fixed `D` with consistent or
//! inconsistent weights is Figure 10, with a mitigation Figures 13 and 14;
//! a sampled `D` is ASGD; Adam in place of SGDM is the Discussion's
//! delay-tolerance ablation.

use crate::engine::TrainEngine;
use crate::metrics::{EngineMetrics, StageCounters};
use pbp_data::Dataset;
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::Network;
use pbp_optim::{AdamState, Hyperparams, LrSchedule, Mitigation, StageOptimizer};
use pbp_snapshot::{SnapshotArchive, SnapshotBuilder, SnapshotError, Snapshottable};
use pbp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// Distribution of the per-update gradient delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDistribution {
    /// Every update has the same delay.
    Constant(usize),
    /// Uniform over `0..=max`.
    Uniform {
        /// Maximum delay (inclusive).
        max: usize,
    },
    /// Geometric-ish: each extra step of delay occurs with probability `p`,
    /// truncated at `max` — models a straggler-tailed cluster.
    Geometric {
        /// Continuation probability per step, in `[0, 1)`.
        p: f64,
        /// Truncation bound.
        max: usize,
    },
}

impl DelayDistribution {
    /// Largest delay this distribution can produce.
    pub fn max_delay(&self) -> usize {
        match *self {
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Uniform { max } => max,
            DelayDistribution::Geometric { max, .. } => max,
        }
    }

    /// Draws one delay.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Uniform { max } => rng.gen_range(0..=max),
            DelayDistribution::Geometric { p, max } => {
                let mut d = 0usize;
                while d < max && rng.gen::<f64>() < p {
                    d += 1;
                }
                d
            }
        }
    }

    /// Expected delay (exact for constant/uniform, truncated-geometric
    /// closed form otherwise).
    pub fn mean(&self) -> f64 {
        match *self {
            DelayDistribution::Constant(d) => d as f64,
            DelayDistribution::Uniform { max } => max as f64 / 2.0,
            DelayDistribution::Geometric { p, max } => {
                // E[min(G, max)] with G geometric(p continuation).
                let mut e = 0.0;
                let mut tail = 1.0;
                for _ in 0..max {
                    tail *= p;
                    e += tail;
                }
                e
            }
        }
    }
}

/// The rule that applies a gradient to the master copy, named as the
/// experiment it stands for in reports.
#[derive(Debug, Clone, Copy, PartialEq)]
enum UpdateRule {
    /// Plain SGDM with no delay: the paper's `SGDM` rows.
    Sgdm,
    /// SGDM under a fixed delay `D`, every stage configured by
    /// `Mitigation::stage_config(D, 0)` (stage index 0, so SpecTrain-style
    /// horizons degenerate to plain LWP with `T = D`).
    FixedDelay(Mitigation),
    /// Plain SGDM under a sampled delay.
    Asgd,
    /// Adam under a fixed delay.
    Adam,
}

/// One row of the simulator: where the delay comes from, what the
/// backward pass sees, and how the gradient is applied. Built only
/// through the named constructors, so the reachable combinations are the
/// paper's.
#[derive(Debug, Clone)]
pub struct DelayedConfig {
    delay: DelayDistribution,
    delay_seed: u64,
    batch_size: usize,
    consistent: bool,
    rule: UpdateRule,
    schedule: LrSchedule,
}

impl DelayedConfig {
    /// Plain mini-batch SGDM — the simulator at `D = 0`. `schedule` should
    /// already be expressed for this batch size (use
    /// [`pbp_optim::scale_hyperparams`] when deriving from a reference).
    pub fn sgdm(batch_size: usize, schedule: LrSchedule) -> Self {
        DelayedConfig {
            delay: DelayDistribution::Constant(0),
            delay_seed: 0,
            batch_size,
            consistent: true,
            rule: UpdateRule::Sgdm,
            schedule,
        }
    }

    /// A fixed delay with consistent weights: the backward pass reuses the
    /// delayed forward weights ("Consistent Delay" in Figure 10).
    pub fn consistent(delay: usize, batch_size: usize, schedule: LrSchedule) -> Self {
        DelayedConfig {
            delay: DelayDistribution::Constant(delay),
            rule: UpdateRule::FixedDelay(Mitigation::None),
            ..DelayedConfig::sgdm(batch_size, schedule)
        }
    }

    /// A fixed delay with inconsistent weights: the backward pass runs
    /// under the current master weights ("Forward Delay Only").
    pub fn inconsistent(delay: usize, batch_size: usize, schedule: LrSchedule) -> Self {
        DelayedConfig {
            consistent: false,
            ..DelayedConfig::consistent(delay, batch_size, schedule)
        }
    }

    /// ASGD: each update's delay is drawn from `distribution` by an RNG
    /// seeded with `delay_seed`; the whole forward/backward runs on the
    /// stale worker copy, as in parameter-server ASGD.
    pub fn asgd(
        distribution: DelayDistribution,
        batch_size: usize,
        schedule: LrSchedule,
        delay_seed: u64,
    ) -> Self {
        DelayedConfig {
            delay: distribution,
            delay_seed,
            rule: UpdateRule::Asgd,
            ..DelayedConfig::sgdm(batch_size, schedule)
        }
    }

    /// Adam at learning rate `lr` under a fixed, consistent delay.
    pub fn adam(delay: usize, batch_size: usize, lr: f32) -> Self {
        DelayedConfig {
            rule: UpdateRule::Adam,
            ..DelayedConfig::consistent(
                delay,
                batch_size,
                LrSchedule::constant(Hyperparams::new(lr, 0.0)),
            )
        }
    }

    /// Sets the mitigation method of a [`DelayedConfig::consistent`] or
    /// [`DelayedConfig::inconsistent`] row.
    ///
    /// # Panics
    ///
    /// Panics on any other row: the mitigations are formulated for SGDM
    /// under a known delay.
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        assert!(
            matches!(self.rule, UpdateRule::FixedDelay(_)),
            "mitigations apply to fixed-delay SGDM, not to {}",
            self.label()
        );
        self.rule = UpdateRule::FixedDelay(mitigation);
        self
    }

    /// Display label of the row (the engine's and its reports').
    pub fn label(&self) -> String {
        match self.rule {
            UpdateRule::Sgdm => "SGDM".to_string(),
            UpdateRule::FixedDelay(mitigation) => format!(
                "{} D={} ({})",
                mitigation.label(),
                self.delay.max_delay(),
                if self.consistent {
                    "consistent"
                } else {
                    "inconsistent"
                }
            ),
            UpdateRule::Asgd => format!("ASGD {:?}", self.delay),
            UpdateRule::Adam => format!("Adam D={}", self.delay.max_delay()),
        }
    }
}

/// Per-stage update state of the configured rule.
enum StageUpdate {
    Sgdm(StageOptimizer),
    Adam(AdamState),
}

/// The whole-network trainer over a [`DelayedConfig`].
///
/// Per batch: draw a delay `d`, run forward and loss under the weight
/// version `d` updates old, run backward under the same version (or under
/// the master weights when inconsistent), apply the gradient to the master
/// copy and record the next forward version — the updated weights, or the
/// mitigation's prediction from them. The loss gradient is averaged over
/// the batch, so per-stage gradients are batch means.
pub struct DelayedTrainer {
    net: Network,
    update: Vec<StageUpdate>,
    /// The last `D_max + 1` forward weight versions, newest at the back;
    /// empty when `D_max = 0`, where the only version is the network's own
    /// weights.
    ring: VecDeque<Vec<Vec<Tensor>>>,
    delay_rng: StdRng,
    config: DelayedConfig,
    samples_seen: usize,
    counters: Vec<StageCounters>,
    train_ns: u128,
}

impl std::fmt::Debug for DelayedTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DelayedTrainer({}, batch={}, samples_seen={})",
            self.config.label(),
            self.config.batch_size,
            self.samples_seen
        )
    }
}

impl DelayedTrainer {
    /// Creates the trainer.
    ///
    /// # Panics
    ///
    /// Panics if the configured batch size is 0.
    pub fn new(net: Network, config: DelayedConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        let max_delay = config.delay.max_delay();
        let hp = config.schedule.at(0);
        let update = (0..net.num_stages())
            .map(|s| {
                let params = net.stage(s).params();
                let mitigation = match config.rule {
                    UpdateRule::Adam => return StageUpdate::Adam(AdamState::new(&params)),
                    UpdateRule::FixedDelay(mitigation) => mitigation,
                    UpdateRule::Sgdm | UpdateRule::Asgd => Mitigation::None,
                };
                let cfg = mitigation.stage_config(max_delay, 0);
                StageUpdate::Sgdm(StageOptimizer::new(&params, cfg, hp))
            })
            .collect();
        let ring = if max_delay == 0 {
            VecDeque::new()
        } else {
            let version = net.snapshot();
            (0..=max_delay).map(|_| version.clone()).collect()
        };
        DelayedTrainer {
            counters: vec![StageCounters::default(); net.num_stages()],
            net,
            update,
            ring,
            delay_rng: StdRng::seed_from_u64(config.delay_seed),
            config,
            samples_seen: 0,
            train_ns: 0,
        }
    }

    /// Consumes the trainer, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }
}

impl TrainEngine for DelayedTrainer {
    fn label(&self) -> String {
        self.config.label()
    }

    fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let start = Instant::now();
        let hp = self.config.schedule.at(self.samples_seen);
        let delay = self.config.delay.sample(&mut self.delay_rng);
        // With D_max = 0 the forward version *is* the master copy: no
        // ring, nothing to swap in or out, plain mini-batch SGDM.
        let master = (!self.ring.is_empty()).then(|| {
            let master = self.net.snapshot();
            self.net.load(&self.ring[self.ring.len() - 1 - delay]);
            master
        });
        self.net.zero_grads();
        let logits = self.net.forward(x);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        // The master copy returns before the backward pass to simulate
        // weight inconsistency, after it otherwise.
        if let (false, Some(master)) = (self.config.consistent, &master) {
            self.net.load(master);
        }
        self.net.backward(&grad);
        if let (true, Some(master)) = (self.config.consistent, &master) {
            self.net.load(master);
        }
        for (s, update) in self.update.iter_mut().enumerate() {
            let step_start = Instant::now();
            let (mut params, grads) = self.net.stage_mut(s).params_and_grads();
            if grads.is_empty() {
                continue;
            }
            match update {
                StageUpdate::Sgdm(opt) => {
                    opt.set_hyperparams(hp);
                    opt.step(&mut params, &grads);
                }
                StageUpdate::Adam(adam) => adam.step(&mut params, &grads, hp.lr),
            }
            self.counters[s].record_update(delay, step_start.elapsed().as_nanos());
        }
        if !self.ring.is_empty() {
            // The next forward version: the prediction if one is
            // configured, the updated weights otherwise.
            let next = (self.update.iter().enumerate())
                .map(|(s, update)| {
                    let params = self.net.stage(s).params();
                    match update {
                        StageUpdate::Sgdm(opt) => opt.forward_weights(&params),
                        StageUpdate::Adam(_) => None,
                    }
                    .unwrap_or_else(|| params.into_iter().cloned().collect())
                })
                .collect();
            self.ring.pop_front();
            self.ring.push_back(next);
        }
        self.samples_seen += labels.len();
        self.train_ns += start.elapsed().as_nanos();
        loss
    }

    /// Returns the loss sum and the number of batches covered. Slice
    /// boundaries must land on batch multiples (see `align_stop`) for the
    /// chunking to match an unsliced epoch; the delay RNG advances one
    /// draw per batch, so a resumed run continues the same delay sequence.
    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in indices.chunks(self.config.batch_size) {
            let (x, labels) = data.batch(chunk);
            total += self.train_batch(&x, &labels) as f64;
            batches += 1;
        }
        (total, batches)
    }

    fn samples_per_update(&self) -> usize {
        self.config.batch_size
    }

    fn align_stop(&self, _pos: usize, proposed: usize, epoch_len: usize) -> usize {
        // Batches start at in-epoch offsets that are batch multiples; the
        // epoch's trailing partial batch is reached only by running to
        // the end.
        let b = self.config.batch_size;
        (proposed.div_ceil(b) * b).min(epoch_len)
    }

    fn write_state(&self, snap: &mut SnapshotBuilder) {
        pbp_nn::snapshot::write_network(&self.net, snap);
        crate::state::write_engine_section(snap, "delayed", |w| {
            w.put_str(&self.config.label());
            w.put_usize(self.config.batch_size);
            w.put_usize(self.samples_seen);
            w.put_u32(self.update.len() as u32);
            for (update, counters) in self.update.iter().zip(&self.counters) {
                match update {
                    StageUpdate::Sgdm(opt) => opt.write_state(w),
                    StageUpdate::Adam(adam) => adam.write_state(w),
                }
                counters.write_state(w);
            }
            crate::state::write_network_history(w, &self.ring);
            for word in self.delay_rng.state() {
                w.put_u64(word);
            }
            w.put_u128(self.train_ns);
        });
    }

    fn read_state(&mut self, archive: &SnapshotArchive) -> Result<(), SnapshotError> {
        let mut r = crate::state::engine_reader(archive, "delayed")?;
        // The label spells out the delay source, consistency, rule and
        // mitigation: state written under another row is not ours, and is
        // refused before anything is loaded.
        let (label, batch) = (r.take_str()?, r.take_usize()?);
        let (own_label, own_batch) = (self.config.label(), self.config.batch_size);
        if (&label, batch) != (&own_label, own_batch) {
            return Err(SnapshotError::Mismatch(format!(
                "delayed state of {label:?} at batch {batch}, \
                 engine is {own_label:?} at batch {own_batch}"
            )));
        }
        pbp_nn::snapshot::read_network(&mut self.net, archive)?;
        self.samples_seen = r.take_usize()?;
        let n = r.take_u32()? as usize;
        if n != self.update.len() {
            return Err(SnapshotError::Mismatch(format!(
                "delayed state for {n} stages, engine has {}",
                self.update.len()
            )));
        }
        for (update, counters) in self.update.iter_mut().zip(&mut self.counters) {
            match update {
                StageUpdate::Sgdm(opt) => opt.read_state(&mut r)?,
                StageUpdate::Adam(adam) => adam.read_state(&mut r)?,
            }
            counters.read_state(&mut r)?;
        }
        let ring = crate::state::read_network_history(&mut r)?;
        if ring.len() != self.ring.len() {
            return Err(SnapshotError::Mismatch(format!(
                "delayed state holds {} weight versions, engine keeps {}",
                ring.len(),
                self.ring.len()
            )));
        }
        self.ring = ring;
        let mut words = [0u64; 4];
        for word in &mut words {
            *word = r.take_u64()?;
        }
        if words == [0; 4] {
            return Err(SnapshotError::Corrupt("all-zero delay RNG state".into()));
        }
        self.delay_rng = StdRng::from_state(words);
        self.train_ns = r.take_u128()?;
        r.finish()
    }

    fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            engine: self.config.label(),
            samples: self.samples_seen,
            train_ns: self.train_ns,
            occupancy: None,
            stages: self.counters.clone(),
        }
    }

    fn into_network(self: Box<Self>) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::evaluate;
    use pbp_data::{blobs, spirals};
    use pbp_nn::models::mlp;

    fn schedule() -> LrSchedule {
        LrSchedule::constant(Hyperparams::new(0.05, 0.9))
    }

    #[test]
    fn sgdm_trainer_learns_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[2, 32, 3], &mut rng);
        let data = blobs(3, 60, 0.4, 1);
        let (train, val) = data.split(0.2);
        let schedule = LrSchedule::constant(Hyperparams::new(0.1, 0.9));
        let mut trainer = DelayedTrainer::new(net, DelayedConfig::sgdm(8, schedule));
        for epoch in 0..15 {
            trainer.train_epoch(&train, 7, epoch);
        }
        let (_, acc) = evaluate(trainer.network_mut(), &val, 16);
        assert!(acc > 0.9, "final accuracy {acc}");
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
        let data = blobs(3, 40, 0.4, 5);
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

    #[test]
    fn distribution_samples_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let dist = DelayDistribution::Uniform { max: 7 };
        for _ in 0..200 {
            assert!(dist.sample(&mut rng) <= 7);
        }
        let geo = DelayDistribution::Geometric { p: 0.5, max: 4 };
        for _ in 0..200 {
            assert!(geo.sample(&mut rng) <= 4);
        }
        assert_eq!(DelayDistribution::Constant(3).sample(&mut rng), 3);
    }

    #[test]
    fn geometric_mean_matches_samples() {
        let dist = DelayDistribution::Geometric { p: 0.5, max: 10 };
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let emp: f64 = (0..n).map(|_| dist.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((emp - dist.mean()).abs() < 0.05, "{emp} vs {}", dist.mean());
    }

    #[test]
    fn random_delay_training_still_learns() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = mlp(&[2, 16, 3], &mut rng);
        let data = blobs(3, 40, 0.4, 6);
        let (train, val) = data.split(0.25);
        let config = DelayedConfig::asgd(DelayDistribution::Uniform { max: 6 }, 4, schedule(), 11);
        let mut asgd = DelayedTrainer::new(net, config);
        let report = asgd.run(&train, &val, 12, 7);
        assert!(report.final_val_acc() > 0.8, "{}", report.final_val_acc());
    }

    #[test]
    #[should_panic(expected = "mitigations apply to fixed-delay SGDM")]
    fn sampled_delays_take_no_mitigation() {
        let _ = DelayedConfig::asgd(DelayDistribution::Uniform { max: 2 }, 4, schedule(), 0)
            .with_mitigation(Mitigation::scd());
    }
}
