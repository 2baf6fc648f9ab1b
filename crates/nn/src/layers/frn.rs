//! Filter Response Normalization with a Thresholded Linear Unit
//! (Singh & Krishnan, 2019).
//!
//! Cited by the paper's Discussion as a batch-independence alternative to
//! group normalization that "may boost delay tolerance". FRN normalizes
//! each channel of each sample by its root mean square over the spatial
//! dimensions — no batch statistics, no mean subtraction — and replaces
//! ReLU with a learned-threshold TLU.

use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::{GradView, Tensor};

/// Filter Response Normalization: `y = γ·x/√(ν² + ε) + β` with
/// `ν² = mean_{H,W}(x²)` per (sample, channel).
#[derive(Debug)]
pub struct FilterResponseNorm {
    channels: usize,
    eps: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    /// FIFO of (input, per-(n,c) inverse rms) for in-flight samples.
    stash: Stash<(Tensor, Vec<f32>)>,
}

impl FilterResponseNorm {
    /// Creates an FRN layer with `γ = 1`, `β = 0`.
    pub fn new(channels: usize) -> Self {
        FilterResponseNorm {
            channels,
            eps: 1e-6,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            stash: Stash::default(),
        }
    }
}

impl Layer for FilterResponseNorm {
    fn name(&self) -> String {
        format!("frn(c={})", self.channels)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("frn: empty stack");
        assert_eq!(x.rank(), 4, "frn expects NCHW");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        assert_eq!(c, self.channels, "frn channel mismatch");
        let hw = h * w;
        let xs = x.as_slice();
        let mut y = Tensor::zeros(x.shape());
        let mut inv_rms = Vec::with_capacity(n * c);
        {
            let ys = y.as_mut_slice();
            let gam = self.gamma.as_slice();
            let bet = self.beta.as_slice();
            for ni in 0..n {
                for ch in 0..c {
                    let base = (ni * c + ch) * hw;
                    let nu2 = xs[base..base + hw]
                        .iter()
                        .map(|&v| (v as f64) * (v as f64))
                        .sum::<f64>()
                        / hw as f64;
                    let inv = 1.0 / (nu2 + self.eps as f64).sqrt();
                    inv_rms.push(inv as f32);
                    for p in 0..hw {
                        ys[base + p] = gam[ch] * (xs[base + p] as f64 * inv) as f32 + bet[ch];
                    }
                }
            }
        }
        self.stash.push_back((x, inv_rms));
        stack.push(y);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("frn: empty grad stack");
        let (x, inv_rms) = self.stash.pop_front().expect("frn: no stash");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let hw = h * w;
        let xs = x.as_slice();
        let gs = g.as_slice();
        let mut gx = Tensor::zeros(x.shape());
        {
            let gxs = gx.as_mut_slice();
            let gam = self.gamma.as_slice();
            let gg = self.grad_gamma.as_mut_slice();
            let gb = self.grad_beta.as_mut_slice();
            for ni in 0..n {
                for ch in 0..c {
                    let base = (ni * c + ch) * hw;
                    let inv = inv_rms[ni * c + ch] as f64;
                    // x̂ = x·inv;  y = γ·x̂ + β
                    // dγ += Σ g·x̂,  dβ += Σ g
                    // dx = γ·inv·(g − x̂·mean(g ⊙ x̂))
                    let mut sum_g = 0.0f64;
                    let mut sum_g_xhat = 0.0f64;
                    for p in 0..hw {
                        let xhat = xs[base + p] as f64 * inv;
                        sum_g += gs[base + p] as f64;
                        sum_g_xhat += gs[base + p] as f64 * xhat;
                    }
                    gg[ch] += sum_g_xhat as f32;
                    gb[ch] += sum_g as f32;
                    let mean_g_xhat = sum_g_xhat / hw as f64;
                    for p in 0..hw {
                        let xhat = xs[base + p] as f64 * inv;
                        gxs[base + p] =
                            (gam[ch] as f64 * inv * (gs[base + p] as f64 - xhat * mean_g_xhat))
                                as f32;
                    }
                }
            }
        }
        grad_stack.push(gx);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&self) -> Vec<GradView<'_>> {
        vec![(&self.grad_gamma).into(), (&self.grad_beta).into()]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        vec![
            (&mut self.gamma, (&self.grad_gamma).into()),
            (&mut self.beta, (&self.grad_beta).into()),
        ]
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.fill(0.0);
        self.grad_beta.fill(0.0);
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }
}

/// Thresholded Linear Unit: `y = max(x, τ)` with a learned per-channel
/// threshold τ — FRN's companion activation.
#[derive(Debug)]
pub struct Tlu {
    channels: usize,
    tau: Tensor,
    grad_tau: Tensor,
    stash: Stash<Tensor>,
}

impl Tlu {
    /// Creates a TLU with `τ = 0` (initially equivalent to ReLU).
    pub fn new(channels: usize) -> Self {
        Tlu {
            channels,
            tau: Tensor::zeros(&[channels]),
            grad_tau: Tensor::zeros(&[channels]),
            stash: Stash::default(),
        }
    }
}

impl Layer for Tlu {
    fn name(&self) -> String {
        format!("tlu(c={})", self.channels)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("tlu: empty stack");
        assert_eq!(x.rank(), 4, "tlu expects NCHW");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let hw = h * w;
        let xs = x.as_slice();
        let taus = self.tau.as_slice();
        let mut y = Tensor::zeros(x.shape());
        // Mask: 1 where x > τ (gradient flows to x), else 0 (flows to τ).
        let mut mask = Tensor::zeros(x.shape());
        {
            let ys = y.as_mut_slice();
            let ms = mask.as_mut_slice();
            for ni in 0..n {
                for ch in 0..c {
                    let base = (ni * c + ch) * hw;
                    let tau = taus[ch];
                    for p in 0..hw {
                        if xs[base + p] > tau {
                            ys[base + p] = xs[base + p];
                            ms[base + p] = 1.0;
                        } else {
                            ys[base + p] = tau;
                        }
                    }
                }
            }
        }
        self.stash.push_back(mask);
        stack.push(y);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("tlu: empty grad stack");
        let mask = self.stash.pop_front().expect("tlu: no stash");
        let [n, c, h, w] = [g.shape()[0], g.shape()[1], g.shape()[2], g.shape()[3]];
        let hw = h * w;
        let gs = g.as_slice();
        let ms = mask.as_slice();
        let mut gx = Tensor::zeros(g.shape());
        {
            let gxs = gx.as_mut_slice();
            let gt = self.grad_tau.as_mut_slice();
            for ni in 0..n {
                for ch in 0..c {
                    let base = (ni * c + ch) * hw;
                    for p in 0..hw {
                        if ms[base + p] > 0.5 {
                            gxs[base + p] = gs[base + p];
                        } else {
                            gt[ch] += gs[base + p];
                        }
                    }
                }
            }
        }
        grad_stack.push(gx);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.tau]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.tau]
    }

    fn grads(&self) -> Vec<GradView<'_>> {
        vec![(&self.grad_tau).into()]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        vec![(&mut self.tau, (&self.grad_tau).into())]
    }

    fn zero_grads(&mut self) {
        self.grad_tau.fill(0.0);
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frn_normalizes_rms_per_channel() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = pbp_tensor::normal(&[2, 3, 4, 4], 1.0, 2.0, &mut rng);
        let mut frn = FilterResponseNorm::new(3);
        let mut s = vec![x];
        frn.forward(&mut s);
        let y = s.pop().unwrap();
        for ni in 0..2 {
            for ch in 0..3 {
                let base = (ni * 3 + ch) * 16;
                let rms: f32 = (y.as_slice()[base..base + 16]
                    .iter()
                    .map(|v| v * v)
                    .sum::<f32>()
                    / 16.0)
                    .sqrt();
                assert!((rms - 1.0).abs() < 1e-3, "rms {rms}");
            }
        }
    }

    #[test]
    fn frn_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = pbp_tensor::normal(&[1, 2, 3, 3], 0.0, 1.0, &mut rng);
        let k = pbp_tensor::normal(&[1, 2, 3, 3], 0.0, 1.0, &mut rng);
        let mut frn = FilterResponseNorm::new(2);
        let run = |frn: &mut FilterResponseNorm, x: &Tensor| -> f32 {
            let mut s = vec![x.clone()];
            frn.forward(&mut s);
            let y = s.pop().unwrap();
            frn.clear_stash();
            y.as_slice()
                .iter()
                .zip(k.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let mut s = vec![x.clone()];
        frn.forward(&mut s);
        let _ = s.pop();
        let mut g = vec![k.clone()];
        frn.backward(&mut g);
        let gx = g.pop().unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 9, 17] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (run(&mut frn, &xp) - run(&mut frn, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 3e-2,
                "grad {idx}: {num} vs {}",
                gx.as_slice()[idx]
            );
        }
        // gamma/beta grads.
        let gg = frn.grads()[0].dense().into_owned();
        let gb = frn.grads()[1].dense().into_owned();
        for ch in 0..2 {
            let orig = frn.gamma.as_slice()[ch];
            frn.gamma.as_mut_slice()[ch] = orig + eps;
            let lp = run(&mut frn, &x);
            frn.gamma.as_mut_slice()[ch] = orig - eps;
            let lm = run(&mut frn, &x);
            frn.gamma.as_mut_slice()[ch] = orig;
            assert!(((lp - lm) / (2.0 * eps) - gg.as_slice()[ch]).abs() < 3e-2);
            let origb = frn.beta.as_slice()[ch];
            frn.beta.as_mut_slice()[ch] = origb + eps;
            let lp = run(&mut frn, &x);
            frn.beta.as_mut_slice()[ch] = origb - eps;
            let lm = run(&mut frn, &x);
            frn.beta.as_mut_slice()[ch] = origb;
            assert!(((lp - lm) / (2.0 * eps) - gb.as_slice()[ch]).abs() < 3e-2);
        }
    }

    #[test]
    fn tlu_with_zero_tau_acts_like_relu() {
        let mut tlu = Tlu::new(1);
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let mut s = vec![x];
        tlu.forward(&mut s);
        assert_eq!(s[0].as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn tlu_threshold_gradient_accumulates_where_clamped() {
        let mut tlu = Tlu::new(1);
        tlu.tau.as_mut_slice()[0] = 1.0;
        let x = Tensor::from_vec(vec![0.0, 2.0, 0.5, 3.0], &[1, 1, 2, 2]).unwrap();
        let mut s = vec![x];
        tlu.forward(&mut s);
        assert_eq!(s[0].as_slice(), &[1.0, 2.0, 1.0, 3.0]);
        let mut g = vec![Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 1, 2, 2]).unwrap()];
        tlu.backward(&mut g);
        // Two clamped positions: dτ = 2; pass-through positions get dx = 1.
        assert_eq!(tlu.grads()[0].dense().as_slice(), &[2.0]);
        assert_eq!(g[0].as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn tlu_finite_difference_on_tau() {
        let mut tlu = Tlu::new(1);
        tlu.tau.as_mut_slice()[0] = 0.5;
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.1, 3.0], &[1, 1, 2, 2]).unwrap();
        let run = |tlu: &mut Tlu, x: &Tensor| -> f32 {
            let mut s = vec![x.clone()];
            tlu.forward(&mut s);
            tlu.clear_stash();
            s.pop().unwrap().as_slice().iter().sum()
        };
        let mut s = vec![x.clone()];
        tlu.forward(&mut s);
        let mut g = vec![Tensor::ones(&[1, 1, 2, 2])];
        tlu.backward(&mut g);
        let gt = tlu.grads()[0].dense().as_slice()[0];
        let eps = 1e-3f32;
        tlu.tau.as_mut_slice()[0] = 0.5 + eps;
        let lp = run(&mut tlu, &x);
        tlu.tau.as_mut_slice()[0] = 0.5 - eps;
        let lm = run(&mut tlu, &x);
        let num = (lp - lm) / (2.0 * eps);
        assert!((num - gt).abs() < 1e-2, "{num} vs {gt}");
    }
}
