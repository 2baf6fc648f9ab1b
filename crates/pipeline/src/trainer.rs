//! Shared training-loop utilities and the mini-batch SGDM reference
//! trainer.

use crate::engine::TrainEngine;
use crate::metrics::{EngineMetrics, MetricsRecorder};
use pbp_data::Dataset;
use pbp_nn::loss::{correct_count, softmax_cross_entropy, softmax_cross_entropy_losses};
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, SgdmState};
use pbp_tensor::Tensor;
use std::time::Instant;

/// Evaluates classification loss and accuracy over a dataset, in eval mode
/// (dropout off, batch-norm running statistics). The mode in force before
/// the call is restored afterwards.
///
/// # Batch-size invariance
///
/// `batch` only sets how many samples share one forward pass — it cannot
/// change the reported metrics. The forward kernels are bit-identical
/// however a product is dispatched (see `pbp_tensor::ops::gemm`), and eval
/// mode makes every layer act row-wise, so each sample's logits are the
/// same bits at any batch size; metrics are then accumulated per sample
/// (`f64` loss terms summed in dataset order, integer correct counts)
/// rather than per batch. Large batches are purely a throughput win:
/// linear layers run one `batch`-row GEMM, and conv layers in eval mode
/// lower the whole batch into one wide im2col GEMM
/// (`pbp_tensor::ops::conv2d_batched`) — wider GEMMs tile and parallelize
/// better without re-associating any accumulation chain. `batched_eval.rs`
/// enforces the invariance.
pub fn evaluate(net: &mut Network, data: &Dataset, batch: usize) -> (f64, f64) {
    assert!(batch > 0, "batch must be positive");
    let was_training = net.is_training();
    net.set_training(false);
    net.clear_stash();
    let mut total_loss = 0.0f64;
    let mut total_correct = 0usize;
    let mut seen = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let hi = (i + batch).min(data.len());
        let indices: Vec<usize> = (i..hi).collect();
        let (x, labels) = data.batch(&indices);
        let logits = net.forward(&x);
        for loss in softmax_cross_entropy_losses(&logits, &labels) {
            total_loss += loss;
        }
        total_correct += correct_count(&logits, &labels);
        seen += labels.len();
        net.clear_stash();
        i = hi;
    }
    net.set_training(was_training);
    if seen == 0 {
        (0.0, 0.0)
    } else {
        (total_loss / seen as f64, total_correct as f64 / seen as f64)
    }
}

/// Metrics recorded at the end of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation loss.
    pub val_loss: f64,
    /// Validation accuracy in `[0, 1]`.
    pub val_acc: f64,
}

/// A labelled training curve (one method's run).
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Method label, matching the paper's table rows (e.g. `PB+SCD`).
    pub label: String,
    /// Per-epoch records.
    pub records: Vec<EpochRecord>,
}

impl TrainReport {
    /// Creates an empty report.
    pub fn new(label: impl Into<String>) -> Self {
        TrainReport {
            label: label.into(),
            records: Vec::new(),
        }
    }

    /// Final validation accuracy (0 if no epochs recorded).
    pub fn final_val_acc(&self) -> f64 {
        self.records.last().map_or(0.0, |r| r.val_acc)
    }

    /// Best validation accuracy over all epochs.
    pub fn best_val_acc(&self) -> f64 {
        self.records.iter().map(|r| r.val_acc).fold(0.0, f64::max)
    }
}

/// Plain mini-batch SGDM — the paper's `SGDM` baseline rows.
///
/// Processes whole batches through the network at once (batch parallelism)
/// and applies one momentum update per batch. The loss gradient is averaged
/// over the batch, so per-stage gradients are batch means.
pub struct SgdmTrainer {
    net: Network,
    state: Vec<SgdmState>,
    schedule: LrSchedule,
    batch_size: usize,
    samples_seen: usize,
    metrics: MetricsRecorder,
}

impl std::fmt::Debug for SgdmTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SgdmTrainer(batch={}, samples_seen={})",
            self.batch_size, self.samples_seen
        )
    }
}

impl SgdmTrainer {
    /// Creates the trainer. `schedule` should already be expressed for this
    /// batch size (use [`pbp_optim::scale_hyperparams`] when deriving from
    /// a reference).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(net: Network, schedule: LrSchedule, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let state = (0..net.num_stages())
            .map(|s| SgdmState::new(&net.stage(s).params()))
            .collect();
        let metrics = MetricsRecorder::new(net.num_stages());
        SgdmTrainer {
            net,
            state,
            schedule,
            batch_size,
            samples_seen: 0,
            metrics,
        }
    }

    /// Borrows the network (e.g. for evaluation).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Consumes the trainer, returning the network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Number of training samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Trains one epoch over `data` in the deterministic order derived from
    /// `seed` and `epoch`; returns the mean training loss.
    pub fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        TrainEngine::train_epoch(self, data, seed, epoch)
    }

    /// Trains a contiguous slice of an epoch order; returns the loss sum
    /// and the number of batches it covered. Slice boundaries must land
    /// on batch multiples (see `align_stop`) for the chunking to match an
    /// unsliced epoch.
    pub fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in indices.chunks(self.batch_size) {
            total += self.train_batch_indices(data, chunk) as f64;
            batches += 1;
        }
        (total, batches)
    }

    /// Trains on one batch given by dataset indices; returns the loss.
    pub fn train_batch_indices(&mut self, data: &Dataset, indices: &[usize]) -> f32 {
        let (x, labels) = data.batch(indices);
        self.train_batch(&x, &labels)
    }

    /// Trains on one explicit batch; returns the loss.
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let start = Instant::now();
        let hp: Hyperparams = self.schedule.at(self.samples_seen);
        self.net.zero_grads();
        let logits = self.net.forward(x);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.net.backward(&grad);
        for s in 0..self.net.num_stages() {
            let step_start = Instant::now();
            let stage = self.net.stage_mut(s);
            let (mut params, grads) = stage.params_and_grads();
            let has_params = !grads.is_empty();
            self.state[s].step(&mut params, &grads, hp);
            if has_params {
                self.metrics
                    .record_update(s, 0, step_start.elapsed().as_nanos());
            }
        }
        self.samples_seen += labels.len();
        self.metrics.add_train_ns(start.elapsed().as_nanos());
        loss
    }
}

impl TrainEngine for SgdmTrainer {
    fn label(&self) -> String {
        "SGDM".to_string()
    }

    fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        SgdmTrainer::train_batch(self, x, labels)
    }

    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        SgdmTrainer::train_range(self, data, indices)
    }

    fn samples_per_update(&self) -> usize {
        self.batch_size
    }

    fn align_stop(&self, _pos: usize, proposed: usize, epoch_len: usize) -> usize {
        // Batches start at in-epoch offsets that are batch multiples; the
        // epoch's trailing partial batch is reached only by running to
        // the end.
        (proposed.div_ceil(self.batch_size) * self.batch_size).min(epoch_len)
    }

    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder) {
        use pbp_snapshot::Snapshottable;
        pbp_nn::snapshot::write_network(&self.net, snap);
        crate::state::write_engine_section(snap, "sgdm", |w| {
            w.put_usize(self.samples_seen);
            w.put_u32(self.state.len() as u32);
            for s in &self.state {
                s.write_state(w);
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
        let mut r = crate::state::engine_reader(archive, "sgdm")?;
        self.samples_seen = r.take_usize()?;
        let n = r.take_u32()? as usize;
        if n != self.state.len() {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "sgdm state for {n} stages, engine has {}",
                self.state.len()
            )));
        }
        for s in &mut self.state {
            s.read_state(&mut r)?;
        }
        self.metrics.read_state(&mut r)?;
        r.finish()
    }

    fn network_mut(&mut self) -> &mut Network {
        SgdmTrainer::network_mut(self)
    }

    fn samples_seen(&self) -> usize {
        SgdmTrainer::samples_seen(self)
    }

    fn metrics(&self) -> EngineMetrics {
        self.metrics
            .snapshot(TrainEngine::label(self), self.samples_seen, None)
    }

    fn into_network(self: Box<Self>) -> Network {
        SgdmTrainer::into_network(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_data::spirals;
    use pbp_nn::models::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sgdm_trainer_learns_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[2, 32, 3], &mut rng);
        let data = pbp_data::blobs(3, 60, 0.4, 1);
        let (train, val) = data.split(0.2);
        let schedule = LrSchedule::constant(Hyperparams::new(0.1, 0.9));
        let mut trainer = SgdmTrainer::new(net, schedule, 8);
        for epoch in 0..15 {
            trainer.train_epoch(&train, 7, epoch);
        }
        let (_, acc) = evaluate(trainer.network_mut(), &val, 16);
        assert!(acc > 0.9, "final accuracy {acc}");
    }

    #[test]
    fn evaluate_runs_in_eval_mode_and_restores_training() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = mlp(&[2, 8, 2], &mut rng);
        let data = spirals(2, 20, 0.1, 2);
        let (loss, acc) = evaluate(&mut net, &data, 8);
        assert!(loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn report_tracks_best_and_final() {
        let mut report = TrainReport::new("SGDM");
        for (e, acc) in [(0, 0.5), (1, 0.9), (2, 0.8)] {
            report.records.push(EpochRecord {
                epoch: e,
                train_loss: 1.0,
                val_loss: 1.0,
                val_acc: acc,
            });
        }
        assert_eq!(report.final_val_acc(), 0.8);
        assert_eq!(report.best_val_acc(), 0.9);
    }
}
