//! # pbp-data
//!
//! Deterministic synthetic datasets standing in for CIFAR-10 and ImageNet
//! in the reproduction of *"Pipelined Backpropagation at Scale"* (Kosson et
//! al., MLSYS 2021).
//!
//! The paper's experiments measure how pipelined backpropagation's gradient
//! delay degrades final accuracy relative to SGDM, and how Spike
//! Compensation / Linear Weight Prediction recover it. That mechanism —
//! parameter drift over the delay window interacting with the curvature of
//! the loss surface — is exercised by any non-trivial image-classification
//! task, so real CIFAR/ImageNet data (gigabytes, impractical here) is
//! replaced by seeded class-conditional generative processes:
//!
//! * [`SyntheticImages`] — each class has a random smooth prototype image;
//!   samples are affine-jittered, contrast-scaled, noisy renderings of
//!   their class prototype. Difficulty is controlled by noise, jitter and
//!   the number of classes.
//! * [`spirals`] — the classic two-dimensional K-spiral task for cheap
//!   optimizer experiments.
//!
//! All generation is deterministic given a seed, so each training method in
//! a comparison sees byte-identical data.

mod images;
mod spiral;

pub use images::{DatasetSpec, SyntheticImages};
pub use spiral::{blobs, spirals};

use pbp_tensor::Tensor;
use std::sync::Arc;

/// A labelled classification dataset kept fully in memory. A clone shares
/// the samples, so a worker thread can own its view of a dataset for the
/// cost of a reference count.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Sample tensors (each `[C, H, W]` or `[features]`).
    samples: Arc<Vec<Tensor>>,
    /// Class label per sample.
    labels: Arc<Vec<usize>>,
    /// Number of classes.
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from parallel sample/label vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length or a label is out of range.
    pub fn new(samples: Vec<Tensor>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            samples.len(),
            labels.len(),
            "samples/labels length mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Dataset {
            samples: Arc::new(samples),
            labels: Arc::new(labels),
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Borrows sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> (&Tensor, usize) {
        (&self.samples[i], self.labels[i])
    }

    /// Returns a batched tensor `[n, ...sample shape]` for the given
    /// indices, plus the labels.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        assert!(!indices.is_empty(), "batch must be non-empty");
        let sample_shape = self.samples[indices[0]].shape().to_vec();
        let sample_len = self.samples[indices[0]].len();
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&sample_shape);
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.samples[i].as_slice());
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(data, &shape).expect("consistent sample shapes"),
            labels,
        )
    }

    /// A deterministic shuffled index order for epoch `epoch`.
    pub fn epoch_order(&self, seed: u64, epoch: usize) -> Vec<usize> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        order.shuffle(&mut rng);
        order
    }

    /// Splits into (train, validation) datasets, validation taking
    /// `val_fraction` of the samples (deterministic tail split; generation
    /// is already i.i.d.).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < val_fraction < 1.0`.
    pub fn split(self, val_fraction: f64) -> (Dataset, Dataset) {
        assert!(
            val_fraction > 0.0 && val_fraction < 1.0,
            "val fraction must be in (0, 1)"
        );
        let val_len = ((self.len() as f64) * val_fraction).round() as usize;
        let train_len = self.len() - val_len;
        let mut samples = Arc::unwrap_or_clone(self.samples);
        let mut labels = Arc::unwrap_or_clone(self.labels);
        let val_samples = samples.split_off(train_len);
        let val_labels = labels.split_off(train_len);
        let classes = self.num_classes;
        (
            Dataset::new(samples, labels, classes),
            Dataset::new(val_samples, val_labels, classes),
        )
    }
}

/// Position of a deterministic training stream.
///
/// [`Dataset::epoch_order`] is a pure function of `(seed, epoch)`, so the
/// entire data-stream RNG state reduces to this cursor: the seed, the
/// epoch, and how many samples of the epoch's order have been consumed.
/// Snapshots store the cursor; resuming recomputes the order and skips
/// `pos` samples, landing on the exact next sample the interrupted run
/// would have drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCursor {
    /// Run-level shuffle seed.
    pub seed: u64,
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Samples of this epoch already consumed.
    pub pos: usize,
}

impl StreamCursor {
    /// Cursor at the start of training.
    pub fn start(seed: u64) -> Self {
        StreamCursor {
            seed,
            epoch: 0,
            pos: 0,
        }
    }

    /// The shuffled index order for the cursor's epoch.
    pub fn order(&self, data: &Dataset) -> Vec<usize> {
        data.epoch_order(self.seed, self.epoch)
    }
}

impl pbp_snapshot::Snapshottable for StreamCursor {
    fn write_state(&self, w: &mut pbp_snapshot::StateWriter) {
        w.put_u64(self.seed);
        w.put_usize(self.epoch);
        w.put_usize(self.pos);
    }

    fn read_state(
        &mut self,
        r: &mut pbp_snapshot::StateReader<'_>,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        self.seed = r.take_u64()?;
        self.epoch = r.take_usize()?;
        self.pos = r.take_usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let samples = (0..10).map(|i| Tensor::full(&[2], i as f32)).collect();
        let labels = (0..10).map(|i| i % 2).collect();
        Dataset::new(samples, labels, 2)
    }

    #[test]
    fn batch_stacks_samples() {
        let d = tiny();
        let (x, y) = d.batch(&[1, 3]);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(x.as_slice(), &[1.0, 1.0, 3.0, 3.0]);
        assert_eq!(y, vec![1, 1]);
    }

    #[test]
    fn epoch_order_is_deterministic_and_a_permutation() {
        let d = tiny();
        let a = d.epoch_order(7, 0);
        let b = d.epoch_order(7, 0);
        assert_eq!(a, b);
        let c = d.epoch_order(7, 1);
        assert_ne!(a, c, "different epochs should shuffle differently");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn a_clone_shares_the_samples() {
        let d = tiny();
        let view = d.clone();
        assert!(std::ptr::eq(d.sample(3).0, view.sample(3).0));
    }

    #[test]
    fn split_partitions_samples() {
        let d = tiny();
        let (train, val) = d.split(0.2);
        assert_eq!(train.len(), 8);
        assert_eq!(val.len(), 2);
        assert_eq!(train.num_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        Dataset::new(vec![Tensor::zeros(&[1])], vec![5], 2);
    }

    #[test]
    fn stream_cursor_round_trips_and_resumes_the_order() {
        use pbp_snapshot::Snapshottable;
        let d = tiny();
        let cursor = StreamCursor {
            seed: 42,
            epoch: 3,
            pos: 6,
        };
        let mut w = pbp_snapshot::StateWriter::new();
        cursor.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = StreamCursor::start(0);
        let mut r = pbp_snapshot::StateReader::new(&bytes);
        restored.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, cursor);
        // The remaining stream is exactly the uninterrupted order's tail.
        let full = d.epoch_order(42, 3);
        assert_eq!(restored.order(&d)[restored.pos..], full[6..]);
    }
}
