//! Asynchronous-SGD simulation: gradient delay as a *random variable*.
//!
//! Appendix G.2 notes the delayed-gradient setup "can also be used to
//! simulate ASGD training by making D a random variable which models the
//! distribution of GPU communications with the master node". This trainer
//! does exactly that: each update's gradient is computed from a snapshot
//! whose age is drawn from a configurable distribution, and applied to the
//! master weights (consistent weights — the whole forward/backward runs on
//! the stale worker copy, as in parameter-server ASGD).

use crate::engine::TrainEngine;
use crate::metrics::{EngineMetrics, MetricsRecorder};
use pbp_data::Dataset;
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::Network;
use pbp_optim::{LrSchedule, SgdmState};
use pbp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// Distribution of the per-update gradient delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDistribution {
    /// Every update has the same delay (degenerates to
    /// [`crate::DelayedTrainer`] semantics).
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

/// ASGD trainer with randomly delayed gradients.
pub struct AsgdTrainer {
    net: Network,
    state: Vec<SgdmState>,
    /// Ring of past master snapshots; `history[0]` is the current state,
    /// `history[k]` is `k` updates old.
    history: VecDeque<Vec<Vec<Tensor>>>,
    distribution: DelayDistribution,
    schedule: LrSchedule,
    batch_size: usize,
    delay_rng: StdRng,
    samples_seen: usize,
    metrics: MetricsRecorder,
}

impl std::fmt::Debug for AsgdTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AsgdTrainer({:?}, batch={}, samples_seen={})",
            self.distribution, self.batch_size, self.samples_seen
        )
    }
}

impl AsgdTrainer {
    /// Creates the trainer.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(
        net: Network,
        distribution: DelayDistribution,
        batch_size: usize,
        schedule: LrSchedule,
        delay_seed: u64,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let state = (0..net.num_stages())
            .map(|s| SgdmState::new(&net.stage(s).params()))
            .collect();
        let snapshot = net.snapshot();
        let history: VecDeque<Vec<Vec<Tensor>>> = (0..=distribution.max_delay())
            .map(|_| snapshot.clone())
            .collect();
        let metrics = MetricsRecorder::new(net.num_stages());
        AsgdTrainer {
            net,
            state,
            history,
            distribution,
            schedule,
            batch_size,
            delay_rng: StdRng::seed_from_u64(delay_seed),
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

    /// Trains on one batch with a freshly sampled delay; returns the loss.
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let start = Instant::now();
        let hp = self.schedule.at(self.samples_seen);
        let delay = self.distribution.sample(&mut self.delay_rng);
        let master = self.net.snapshot();
        // Worker computes the whole forward+backward on a stale copy.
        let stale = &self.history[delay.min(self.history.len() - 1)];
        self.net.load(stale);
        self.net.zero_grads();
        let logits = self.net.forward(x);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.net.backward(&grad);
        // Master applies the (stale) gradient.
        self.net.load(&master);
        for s in 0..self.net.num_stages() {
            let step_start = Instant::now();
            let stage = self.net.stage_mut(s);
            let (mut params, grads) = stage.params_and_grads();
            if grads.is_empty() {
                continue;
            }
            self.state[s].step(&mut params, &grads, hp);
            self.metrics
                .record_update(s, delay, step_start.elapsed().as_nanos());
        }
        self.history.push_front(self.net.snapshot());
        self.history.pop_back();
        self.samples_seen += labels.len();
        self.metrics.add_train_ns(start.elapsed().as_nanos());
        loss
    }

    /// Trains one epoch; returns the mean batch loss.
    pub fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        TrainEngine::train_epoch(self, data, seed, epoch)
    }

    /// Trains a contiguous slice of an epoch order; returns the loss sum
    /// and the number of batches covered. The delay RNG advances exactly
    /// one draw per batch, so resuming from a snapshot continues the same
    /// delay sequence.
    pub fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in indices.chunks(self.batch_size) {
            let (x, labels) = data.batch(chunk);
            total += self.train_batch(&x, &labels) as f64;
            batches += 1;
        }
        (total, batches)
    }
}

impl TrainEngine for AsgdTrainer {
    fn label(&self) -> String {
        format!("ASGD {:?}", self.distribution)
    }

    fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        AsgdTrainer::train_batch(self, x, labels)
    }

    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        AsgdTrainer::train_range(self, data, indices)
    }

    fn samples_per_update(&self) -> usize {
        self.batch_size
    }

    fn align_stop(&self, _pos: usize, proposed: usize, epoch_len: usize) -> usize {
        let b = self.batch_size;
        (proposed.div_ceil(b) * b).min(epoch_len)
    }

    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder) {
        use pbp_snapshot::Snapshottable;
        pbp_nn::snapshot::write_network(&self.net, snap);
        crate::state::write_engine_section(snap, "asgd", |w| {
            w.put_usize(self.samples_seen);
            w.put_u32(self.state.len() as u32);
            for s in &self.state {
                s.write_state(w);
            }
            crate::state::write_network_history(w, &self.history);
            for word in self.delay_rng.state() {
                w.put_u64(word);
            }
            self.metrics.write_state(w);
        });
    }

    fn read_state(
        &mut self,
        archive: &pbp_snapshot::SnapshotArchive,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        use pbp_snapshot::Snapshottable;
        pbp_nn::snapshot::read_network(&mut self.net, archive)?;
        let mut r = crate::state::engine_reader(archive, "asgd")?;
        self.samples_seen = r.take_usize()?;
        let n = r.take_u32()? as usize;
        if n != self.state.len() {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "asgd state for {n} stages, engine has {}",
                self.state.len()
            )));
        }
        for s in &mut self.state {
            s.read_state(&mut r)?;
        }
        self.history = crate::state::read_network_history(&mut r)?;
        if self.history.len() != self.distribution.max_delay() + 1 {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "asgd history holds {} versions, distribution requires {}",
                self.history.len(),
                self.distribution.max_delay() + 1
            )));
        }
        let mut words = [0u64; 4];
        for word in &mut words {
            *word = r.take_u64()?;
        }
        if words == [0; 4] {
            return Err(pbp_snapshot::SnapshotError::Corrupt(
                "all-zero delay RNG state".into(),
            ));
        }
        self.delay_rng = StdRng::from_state(words);
        self.metrics.read_state(&mut r)?;
        r.finish()
    }

    fn network_mut(&mut self) -> &mut Network {
        AsgdTrainer::network_mut(self)
    }

    fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    fn metrics(&self) -> EngineMetrics {
        self.metrics
            .snapshot(TrainEngine::label(self), self.samples_seen, None)
    }

    fn into_network(self: Box<Self>) -> Network {
        AsgdTrainer::into_network(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::SgdmTrainer;
    use pbp_data::blobs;
    use pbp_nn::models::mlp;
    use pbp_optim::Hyperparams;

    fn schedule() -> LrSchedule {
        LrSchedule::constant(Hyperparams::new(0.05, 0.9))
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
    fn constant_zero_delay_matches_sgdm() {
        let mut rng = StdRng::seed_from_u64(2);
        let net_a = mlp(&[2, 10, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(2);
        let net_b = mlp(&[2, 10, 3], &mut rng);
        let data = blobs(3, 18, 0.4, 3);
        let mut asgd = AsgdTrainer::new(net_a, DelayDistribution::Constant(0), 3, schedule(), 9);
        let mut sgd = SgdmTrainer::new(net_b, schedule(), 3);
        asgd.train_epoch(&data, 4, 0);
        sgd.train_epoch(&data, 4, 0);
        let na = asgd.into_network();
        let nb = sgd.into_network();
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                assert_eq!(p.as_slice(), q.as_slice(), "stage {s}");
            }
        }
    }

    #[test]
    fn random_delay_training_still_learns() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = mlp(&[2, 16, 3], &mut rng);
        let data = blobs(3, 40, 0.4, 6);
        let (train, val) = data.split(0.25);
        let mut asgd = AsgdTrainer::new(
            net,
            DelayDistribution::Uniform { max: 6 },
            4,
            schedule(),
            11,
        );
        let report = asgd.run(&train, &val, 12, 7);
        assert!(report.final_val_acc() > 0.8, "{}", report.final_val_acc());
    }
}
