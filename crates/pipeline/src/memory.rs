//! Analytic memory model for batch vs pipeline parallelism (Appendix A).
//!
//! The paper argues both schemes need `O(L·W)` activation memory in total
//! but distribute it very differently: in batch parallelism every worker
//! stores activations for (roughly) every layer, while in pipeline
//! parallelism stage `s` only stores its own layer's activations — but for
//! every sample in flight between its forward and backward passes, i.e.
//! for `2(S − s)` pipeline steps at the front of the pipeline down to ~1
//! at the back. Weights, conversely, exist once in the pipeline and `W`
//! times under data parallelism.
//!
//! An activation slot here is what a layer really keeps per in-flight
//! sample: a training conv layer stashes the one input activation it
//! consumed (it used to stash the `k²`-fold im2col expansion of it), a
//! normalization layer its normalized output, a linear layer its input row.

/// Analytic per-worker memory accounting for an `L`-layer network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Number of layers (== pipeline stages in the fine-grained setting).
    pub layers: usize,
    /// Number of workers.
    pub workers: usize,
}

impl MemoryModel {
    /// Fine-grained pipeline: one layer per worker.
    pub fn fine_grained(stages: usize) -> Self {
        MemoryModel {
            layers: stages,
            workers: stages,
        }
    }

    /// Total activation slots under batch parallelism: `L · W`.
    pub fn batch_parallel_activations_total(&self) -> usize {
        self.layers * self.workers
    }

    /// Activation slots pipeline stage `s` holds: its layer's activations
    /// for every in-flight sample, `≈ 2(W − s)` (the paper's "first worker
    /// must store its activations for 2W steps, the second for 2(W−1)…").
    ///
    /// # Panics
    ///
    /// Panics if `s >= workers`.
    pub fn pipeline_activations_at_stage(&self, s: usize) -> usize {
        assert!(s < self.workers, "stage out of range");
        2 * (self.workers - s)
    }

    /// Total activation slots under pipeline parallelism:
    /// `Σ_s 2(W − s) · (L/W layers per stage) ≈ L·W + L`.
    pub fn pipeline_activations_total(&self) -> usize {
        let per_stage_layers = self.layers as f64 / self.workers as f64;
        (0..self.workers)
            .map(|s| (self.pipeline_activations_at_stage(s) as f64 * per_stage_layers) as usize)
            .sum()
    }

    /// Weight copies under data parallelism (`W`, one replica per worker)
    /// vs pipeline parallelism (1 — each stage owns its own shard).
    pub fn weight_copies(&self, pipeline: bool) -> usize {
        if pipeline {
            1
        } else {
            self.workers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_both_order_lw() {
        // Appendix A: "The total activation memory comes out to be
        // approximately the same, O(LW)".
        let m = MemoryModel::fine_grained(32);
        let batch = m.batch_parallel_activations_total();
        let pipe = m.pipeline_activations_total();
        let ratio = pipe as f64 / batch as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "both should be Θ(LW): batch {batch}, pipeline {pipe}"
        );
    }

    #[test]
    fn pipeline_memory_is_skewed_toward_early_stages() {
        let m = MemoryModel::fine_grained(16);
        let first = m.pipeline_activations_at_stage(0);
        let last = m.pipeline_activations_at_stage(15);
        assert_eq!(first, 32);
        assert_eq!(last, 2);
        assert!(first > 10 * last, "per-worker needs are very uneven");
    }

    #[test]
    fn pipeline_needs_one_weight_copy() {
        let m = MemoryModel::fine_grained(8);
        assert_eq!(m.weight_copies(true), 1);
        assert_eq!(m.weight_copies(false), 8);
    }
}
