//! Pointwise activation layers: ReLU and (inverted) dropout.

use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    /// FIFO of masks (1.0 where input > 0) for in-flight samples; eval
    /// mode rectifies the popped tensor in place and keeps no mask.
    stash: Stash<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

/// The ReLU mask value of `v`; the output is `v` times it, so `-0.0`,
/// negatives and NaN come out as that product leaves them.
pub(crate) fn relu_mask(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else {
        0.0
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".to_string()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let mut x = stack.pop().expect("relu: empty stack");
        if !self.stash.training() {
            x.map_in_place(|v| v * relu_mask(v));
            stack.push(x);
            return;
        }
        // The output is the popped tensor rectified in place, `x · mask`.
        let mask = x.map(relu_mask);
        x.mul_assign(&mask).expect("same shape");
        self.stash.push_back(mask);
        stack.push(x);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let mut g = grad_stack.pop().expect("relu: empty grad stack");
        let mask = self.stash.pop_front().expect("relu: no stashed mask");
        g.mul_assign(&mask).expect("same shape");
        grad_stack.push(g);
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }
}

/// Inverted dropout: at train time zeroes activations with probability `p`
/// and scales survivors by `1/(1-p)`; at eval time it is the identity.
///
/// The RNG is owned and seeded so training runs are reproducible.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: SmallRng,
    /// FIFO of masks for in-flight samples (`None` at `p = 0`, where the
    /// backward is the identity); eval mode passes the input through.
    stash: Stash<Option<Tensor>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: SmallRng::seed_from_u64(seed),
            stash: Stash::default(),
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        format!("dropout(p={})", self.p)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("dropout: empty stack");
        if !self.stash.training() || self.p == 0.0 {
            self.stash.push_back(None);
            stack.push(x);
            return;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask = Tensor::from_fn(x.shape(), |_| {
            if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            }
        });
        let y = x.mul(&mask).expect("same shape");
        self.stash.push_back(Some(mask));
        stack.push(y);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("dropout: empty grad stack");
        match self.stash.pop_front().expect("dropout: no stashed mask") {
            Some(mask) => grad_stack.push(g.mul(&mask).expect("same shape")),
            None => grad_stack.push(g),
        }
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }

    // Mask state is per-sample and lives in the stash (empty at snapshot
    // points); the mask *generator* position is the durable state.
    fn state_bytes(&self) -> Option<Vec<u8>> {
        let mut w = pbp_snapshot::StateWriter::new();
        for word in self.rng.state() {
            w.put_u64(word);
        }
        Some(w.into_bytes())
    }

    fn load_state_bytes(&mut self, bytes: &[u8]) -> Result<(), pbp_snapshot::SnapshotError> {
        let mut r = pbp_snapshot::StateReader::new(bytes);
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.take_u64()?;
        }
        r.finish()?;
        if state.iter().all(|&word| word == 0) {
            return Err(pbp_snapshot::SnapshotError::Corrupt(
                "all-zero dropout rng state".into(),
            ));
        }
        self.rng = SmallRng::from_state(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives_and_routes_grads() {
        let mut relu = Relu::new();
        let mut s = vec![Tensor::from_slice(&[-1.0, 2.0, -3.0, 4.0])];
        relu.forward(&mut s);
        assert_eq!(s[0].as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let mut g = vec![Tensor::from_slice(&[1.0, 1.0, 1.0, 1.0])];
        relu.backward(&mut g);
        assert_eq!(g[0].as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_grad_at_zero_is_zero() {
        let mut relu = Relu::new();
        let mut s = vec![Tensor::from_slice(&[0.0])];
        relu.forward(&mut s);
        let mut g = vec![Tensor::from_slice(&[5.0])];
        relu.backward(&mut g);
        assert_eq!(g[0].as_slice(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "dropout: no stashed mask")]
    fn dropout_eval_mode_is_identity_and_stashes_nothing() {
        let mut d = Dropout::new(0.5, 1);
        d.set_training(false);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut s = vec![x.clone()];
        d.forward(&mut s);
        assert_eq!(s[0].as_slice(), x.as_slice());
        let mut g = vec![Tensor::ones(&[3])];
        d.backward(&mut g);
    }

    #[test]
    fn dropout_preserves_expected_value_roughly() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[10_000]);
        let mut s = vec![x];
        d.forward(&mut s);
        let mean = s[0].mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let mut s = vec![Tensor::ones(&[64])];
        d.forward(&mut s);
        let y = s.pop().unwrap();
        let mut g = vec![Tensor::ones(&[64])];
        d.backward(&mut g);
        // Gradient must be zero exactly where the output was zeroed.
        for (yv, gv) in y.as_slice().iter().zip(g[0].as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0, 0);
    }
}
