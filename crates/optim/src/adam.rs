//! Adam optimizer (Kingma & Ba, 2015).
//!
//! The paper's Discussion suggests "optimizers such as ADAM may also
//! increase delay tolerance"; this state type supports the corresponding
//! ablation experiment. Spike compensation and weight prediction are
//! formulated for SGDM and are not applied here — Adam is a *baseline*
//! under delay, not a mitigation target.

use pbp_snapshot::{SnapshotError, Snapshottable, StateReader, StateWriter};
use pbp_tensor::{GradView, Tensor};

/// Adam state (first/second moment estimates with bias correction).
#[derive(Debug, Clone)]
pub struct AdamState {
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
}

impl AdamState {
    /// Creates zeroed Adam state with the standard β₁ = 0.9, β₂ = 0.999.
    pub fn new(params: &[&Tensor]) -> Self {
        AdamState::with_betas(params, 0.9, 0.999)
    }

    /// Creates state with explicit momentum coefficients.
    ///
    /// # Panics
    ///
    /// Panics unless both betas are in `[0, 1)`.
    pub fn with_betas(params: &[&Tensor], beta1: f32, beta2: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0,1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0,1)");
        AdamState {
            m: params.iter().map(|p| Tensor::zeros(p.shape())).collect(),
            v: params.iter().map(|p| Tensor::zeros(p.shape())).collect(),
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Number of updates applied so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One Adam update with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor lists disagree with the state layout.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[GradView<'_>], lr: f32) {
        assert_eq!(params.len(), self.m.len(), "param layout mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad layout mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            let ps = p.as_mut_slice();
            // Adam is off the pipeline's update path: a factored gradient
            // is simply materialised.
            let g = g.dense();
            let gs = g.as_slice();
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            for i in 0..ps.len() {
                ms[i] = self.beta1 * ms[i] + (1.0 - self.beta1) * gs[i];
                vs[i] = self.beta2 * vs[i] + (1.0 - self.beta2) * gs[i] * gs[i];
                let mhat = ms[i] / bc1;
                let vhat = vs[i] / bc2;
                ps[i] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

impl Snapshottable for AdamState {
    // β₁/β₂/ε are construction-time configuration; only the moment
    // estimates and the step counter evolve, so only they travel.
    fn write_state(&self, w: &mut StateWriter) {
        w.put_tensor_list(&self.m);
        w.put_tensor_list(&self.v);
        w.put_u64(self.t);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let mut m: Vec<&mut Tensor> = self.m.iter_mut().collect();
        r.take_tensors_into(&mut m, "adam first moment")?;
        let mut v: Vec<&mut Tensor> = self.v.iter_mut().collect();
        r.take_tensors_into(&mut v, "adam second moment")?;
        self.t = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_moves_by_roughly_lr() {
        // With bias correction, the first Adam step is ≈ lr·sign(g).
        let mut w = Tensor::from_slice(&[0.0, 0.0]);
        let g = Tensor::from_slice(&[3.0, -0.01]);
        let mut adam = AdamState::new(&[&w]);
        adam.step(&mut [&mut w], &[(&g).into()], 0.1);
        assert!((w.as_slice()[0] + 0.1).abs() < 1e-3, "{}", w.as_slice()[0]);
        assert!((w.as_slice()[1] - 0.1).abs() < 1e-3, "{}", w.as_slice()[1]);
    }

    #[test]
    fn converges_on_a_quadratic() {
        // Minimize 0.5·(w − 3)².
        let mut w = Tensor::from_slice(&[0.0]);
        let mut adam = AdamState::new(&[&w]);
        for _ in 0..2000 {
            let g = Tensor::from_slice(&[w.as_slice()[0] - 3.0]);
            adam.step(&mut [&mut w], &[(&g).into()], 0.05);
        }
        assert!((w.as_slice()[0] - 3.0).abs() < 0.05, "{}", w.as_slice()[0]);
    }

    #[test]
    fn step_counter_advances() {
        let w = Tensor::from_slice(&[1.0]);
        let mut adam = AdamState::new(&[&w]);
        assert_eq!(adam.steps(), 0);
        let mut w = w;
        let g = Tensor::from_slice(&[1.0]);
        adam.step(&mut [&mut w], &[(&g).into()], 0.01);
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    #[should_panic(expected = "beta1")]
    fn rejects_bad_betas() {
        let w = Tensor::from_slice(&[1.0]);
        AdamState::with_betas(&[&w], 1.0, 0.999);
    }
}
