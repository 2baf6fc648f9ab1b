//! Hyperparameters, the paper's batch-size scaling rules and learning-rate
//! schedules.

/// A (learning rate, momentum) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperparams {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient m.
    pub momentum: f32,
}

impl Hyperparams {
    /// Creates a hyperparameter pair.
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0` and `0 ≤ momentum < 1`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        Hyperparams { lr, momentum }
    }
}

/// Scales reference hyperparameters to a new update size (Eq. 9):
///
/// ```text
/// m = m_r^(N / N_r)
/// η = (1 − m)·N / ((1 − m_r)·N_r) · η_r
/// ```
///
/// The momentum is scaled so its decay *per sample* is unchanged and the
/// learning rate so each sample's total contribution to the weights is
/// unchanged — allowing update-size-one pipelined backpropagation to reuse
/// hyperparameters published for large-batch SGDM without tuning (the
/// scaling of Chiley et al., 2019).
///
/// # Example
///
/// ```
/// use pbp_optim::{scale_hyperparams, Hyperparams};
///
/// // He et al.'s CIFAR recipe (η = 0.1, m = 0.9 at batch 128) scaled to
/// // update size one for pipelined backpropagation:
/// let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, 1);
/// assert!(hp.momentum > 0.999);           // per-sample decay preserved
/// assert!(hp.lr < 1e-4);                  // per-sample contribution preserved
/// ```
///
/// # Panics
///
/// Panics if batch sizes are zero or the reference hyperparameters are out
/// of range.
pub fn scale_hyperparams(
    reference: Hyperparams,
    ref_batch: usize,
    new_batch: usize,
) -> Hyperparams {
    assert!(
        ref_batch > 0 && new_batch > 0,
        "batch sizes must be positive"
    );
    let ratio = new_batch as f64 / ref_batch as f64;
    let m_r = reference.momentum as f64;
    let m = m_r.powf(ratio);
    let lr = (1.0 - m) * new_batch as f64 / ((1.0 - m_r) * ref_batch as f64) * reference.lr as f64;
    Hyperparams::new(lr as f32, m as f32)
}

/// A piecewise-constant learning-rate schedule with optional linear warmup,
/// in units of *samples seen* so schedules are identical across update
/// sizes.
#[derive(Debug, Clone)]
pub struct LrSchedule {
    base: Hyperparams,
    /// `(samples_seen, multiplier)` milestones, ascending.
    milestones: Vec<(usize, f32)>,
    warmup_samples: usize,
}

impl LrSchedule {
    /// Constant schedule at `base`.
    pub fn constant(base: Hyperparams) -> Self {
        LrSchedule {
            base,
            milestones: Vec::new(),
            warmup_samples: 0,
        }
    }

    /// Step schedule: learning rate is multiplied by `multiplier` once
    /// `samples_seen` reaches each milestone.
    ///
    /// # Panics
    ///
    /// Panics if milestones are not strictly ascending.
    pub fn steps(base: Hyperparams, milestones: Vec<(usize, f32)>) -> Self {
        assert!(
            milestones.windows(2).all(|w| w[0].0 < w[1].0),
            "milestones must be strictly ascending"
        );
        LrSchedule {
            base,
            milestones,
            warmup_samples: 0,
        }
    }

    /// Adds a linear warmup over the first `samples` samples.
    pub fn with_warmup(mut self, samples: usize) -> Self {
        self.warmup_samples = samples;
        self
    }

    /// Hyperparameters after `samples_seen` training samples.
    pub fn at(&self, samples_seen: usize) -> Hyperparams {
        let mut lr = self.base.lr;
        for &(milestone, mult) in &self.milestones {
            if samples_seen >= milestone {
                lr = self.base.lr * mult;
            }
        }
        if self.warmup_samples > 0 && samples_seen < self.warmup_samples {
            lr *= (samples_seen + 1) as f32 / self.warmup_samples as f32;
        }
        Hyperparams {
            lr,
            momentum: self.base.momentum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_reference_at_same_batch() {
        let r = Hyperparams::new(0.1, 0.9);
        let s = scale_hyperparams(r, 128, 128);
        assert!((s.lr - 0.1).abs() < 1e-6);
        assert!((s.momentum - 0.9).abs() < 1e-6);
    }

    #[test]
    fn scaling_to_batch_one_matches_formula() {
        // Reference from He et al. (2016a): lr=0.1, m=0.9, N=128 (CIFAR).
        let r = Hyperparams::new(0.1, 0.9);
        let s = scale_hyperparams(r, 128, 1);
        let m_expected = 0.9f64.powf(1.0 / 128.0);
        assert!((s.momentum as f64 - m_expected).abs() < 1e-6);
        let lr_expected = (1.0 - m_expected) / ((1.0 - 0.9) * 128.0) * 0.1;
        assert!((s.lr as f64 - lr_expected).abs() < 1e-7);
        // The per-sample contribution η/(1−m) is preserved.
        let contrib_ref = 0.1 / ((1.0 - 0.9) * 128.0);
        let contrib_new = s.lr as f64 / (1.0 - s.momentum as f64);
        assert!((contrib_ref - contrib_new).abs() < 1e-6);
    }

    #[test]
    fn momentum_halflife_in_samples_is_preserved() {
        let r = Hyperparams::new(0.1, 0.9);
        let s = scale_hyperparams(r, 32, 1);
        // Decay over 32 samples: m_new^32 == m_ref^1.
        let decayed = (s.momentum as f64).powi(32);
        assert!((decayed - 0.9).abs() < 1e-5);
    }

    #[test]
    fn step_schedule_applies_milestones() {
        let sched = LrSchedule::steps(Hyperparams::new(1.0, 0.9), vec![(100, 0.1), (200, 0.01)]);
        assert_eq!(sched.at(0).lr, 1.0);
        assert_eq!(sched.at(99).lr, 1.0);
        assert!((sched.at(100).lr - 0.1).abs() < 1e-7);
        assert!((sched.at(250).lr - 0.01).abs() < 1e-7);
    }

    #[test]
    fn warmup_ramps_linearly() {
        let sched = LrSchedule::constant(Hyperparams::new(1.0, 0.9)).with_warmup(10);
        assert!((sched.at(0).lr - 0.1).abs() < 1e-6);
        assert!((sched.at(4).lr - 0.5).abs() < 1e-6);
        assert_eq!(sched.at(10).lr, 1.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn rejects_momentum_one() {
        Hyperparams::new(0.1, 1.0);
    }
}
