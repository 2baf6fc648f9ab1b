//! Shared training-loop utilities: evaluation and the per-epoch report.

use pbp_data::Dataset;
use pbp_nn::loss::{correct_count, softmax_cross_entropy_losses};
use pbp_nn::Network;

/// Evaluates classification loss and accuracy over a dataset, in eval mode
/// (dropout off). The mode in force before the call is restored afterwards.
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
/// linear layers run one `batch`-row GEMM (wider GEMMs tile and
/// parallelize better without re-associating any accumulation chain) and
/// conv layers run the direct kernel a training step runs over each image
/// in turn, its tap table and scratch set up once per batch.
/// `batched_eval.rs` enforces the invariance.
///
/// An eval-mode forward computes the output and nothing else
/// (`pbp_nn::Layer::set_training`): no layer stashes, normalization and
/// ReLU rewrite the activation in place, so the batches leave nothing
/// behind. The one `clear_stash`, at entry, drops what earlier
/// training-mode forwards left in flight.
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

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_data::spirals;
    use pbp_nn::models::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
