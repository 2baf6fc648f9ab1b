//! Online Normalization (Chiley et al., 2019).
//!
//! The paper's own prior work, cited in its Discussion as a batch-size-one
//! alternative to group normalization that "may boost delay tolerance".
//! Unlike GN, Online Normalization normalizes each channel with *streaming*
//! statistics accumulated across samples (exponential moving average with
//! decay `α_f`), and keeps its backward pass well-behaved with a *control
//! process*: the outgoing gradient is projected so that, under exponential
//! averaging with decay `α_b`, it stays orthogonal to the normalized
//! output and zero-mean — the two conditions a true normalizer's gradient
//! satisfies exactly.
//!
//! This implements Algorithm 1 of the ON paper per channel, plus the usual
//! affine (γ, β) output transform.
//!
//! Note: because the statistics are streaming, ON is *stateful across
//! samples* — exactly like its reference implementation — so unlike
//! GroupNorm its outputs depend on sample order. Evaluation freezes the
//! statistics — and, unlike every other layer (`Layer::set_training`),
//! still stashes: with the statistics and the control process frozen the
//! layer is a fixed affine-normalizing map whose backward is well defined,
//! and the gradient check runs against exactly that.

use crate::layer::{LaneStack, Layer};
use pbp_tensor::{GradView, Tensor};
use std::collections::VecDeque;

/// Online Normalization over `[N, C, H, W]` with per-channel streaming
/// statistics and a gradient control process.
#[derive(Debug)]
pub struct OnlineNorm {
    channels: usize,
    /// Forward statistics decay (the ON paper's `α_f`).
    alpha_f: f32,
    /// Backward control-process decay (`α_b`).
    alpha_b: f32,
    eps: f32,
    training: bool,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    /// Streaming per-channel mean.
    mu: Vec<f32>,
    /// Streaming per-channel variance.
    var: Vec<f32>,
    /// Control process: running estimate of `E[g ⊙ y]` per channel.
    ctrl_gy: Vec<f32>,
    /// Control process: running estimate of `E[g]` per channel.
    ctrl_g: Vec<f32>,
    /// FIFO of (normalized output ŷ, per-channel inverse std) stashes.
    stash: VecDeque<(Tensor, Vec<f32>)>,
}

impl OnlineNorm {
    /// Creates an ON layer with the reference decays `α_f = 0.999`,
    /// `α_b = 0.99`.
    pub fn new(channels: usize) -> Self {
        OnlineNorm::with_decays(channels, 0.999, 0.99)
    }

    /// Creates an ON layer with explicit decays.
    ///
    /// # Panics
    ///
    /// Panics unless both decays are in `[0, 1)`.
    pub fn with_decays(channels: usize, alpha_f: f32, alpha_b: f32) -> Self {
        assert!((0.0..1.0).contains(&alpha_f), "alpha_f must be in [0,1)");
        assert!((0.0..1.0).contains(&alpha_b), "alpha_b must be in [0,1)");
        OnlineNorm {
            channels,
            alpha_f,
            alpha_b,
            eps: 1e-5,
            training: true,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            mu: vec![0.0; channels],
            var: vec![1.0; channels],
            ctrl_gy: vec![0.0; channels],
            ctrl_g: vec![0.0; channels],
            stash: VecDeque::new(),
        }
    }
}

impl Layer for OnlineNorm {
    fn name(&self) -> String {
        format!("online_norm(c={})", self.channels)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("online_norm: empty stack");
        assert_eq!(x.rank(), 4, "online_norm expects NCHW");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        assert_eq!(c, self.channels, "online_norm channel mismatch");
        let hw = h * w;
        let xs = x.as_slice();
        let mut yhat = Tensor::zeros(x.shape());
        let mut out = Tensor::zeros(x.shape());
        let mut inv_stds = vec![0.0f32; c];
        {
            let yh = yhat.as_mut_slice();
            let os = out.as_mut_slice();
            let gam = self.gamma.as_slice();
            let bet = self.beta.as_slice();
            for ch in 0..c {
                // Normalize with the *incoming* streaming statistics.
                let inv = 1.0 / (self.var[ch] + self.eps).sqrt();
                inv_stds[ch] = inv;
                for ni in 0..n {
                    let base = (ni * c + ch) * hw;
                    for p in 0..hw {
                        let v = (xs[base + p] - self.mu[ch]) * inv;
                        yh[base + p] = v;
                        os[base + p] = gam[ch] * v + bet[ch];
                    }
                }
                if self.training {
                    // Streaming update from this sample's (batch's) own
                    // per-channel moments (ON paper Eq. 5-6 style).
                    let m = (n * hw) as f64;
                    let mut mean = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ch) * hw;
                        for p in 0..hw {
                            mean += xs[base + p] as f64;
                        }
                    }
                    mean /= m;
                    let mut var = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ch) * hw;
                        for p in 0..hw {
                            let d = xs[base + p] as f64 - mean;
                            var += d * d;
                        }
                    }
                    var /= m;
                    let af = self.alpha_f as f64;
                    let old_mu = self.mu[ch] as f64;
                    self.mu[ch] = (af * old_mu + (1.0 - af) * mean) as f32;
                    self.var[ch] = (af * self.var[ch] as f64
                        + (1.0 - af) * var
                        + af * (1.0 - af) * (mean - old_mu) * (mean - old_mu))
                        as f32;
                }
            }
        }
        self.stash.push_back((yhat, inv_stds));
        stack.push(out);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("online_norm: empty grad stack");
        let (yhat, inv_stds) = self.stash.pop_front().expect("online_norm: no stash");
        let [n, c, h, w] = [g.shape()[0], g.shape()[1], g.shape()[2], g.shape()[3]];
        let hw = h * w;
        let gs = g.as_slice();
        let yh = yhat.as_slice();
        let mut gx = Tensor::zeros(g.shape());
        {
            let gxs = gx.as_mut_slice();
            let gam = self.gamma.as_slice();
            let gg = self.grad_gamma.as_mut_slice();
            let gb = self.grad_beta.as_mut_slice();
            let m = (n * hw) as f64;
            for ch in 0..c {
                // Affine part.
                let mut sum_g = 0.0f64;
                let mut sum_gy = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ch) * hw;
                    for p in 0..hw {
                        sum_g += gs[base + p] as f64;
                        sum_gy += gs[base + p] as f64 * yh[base + p] as f64;
                    }
                }
                gg[ch] += sum_gy as f32;
                gb[ch] += sum_g as f32;
                // Control process (ON Algorithm 1): subtract the running
                // projections so the outgoing gradient is decorrelated from
                // ŷ and zero-mean under exponential averaging.
                let ab = self.alpha_b as f64;
                let mean_g = sum_g / m;
                let mean_gy = sum_gy / m;
                if self.training {
                    self.ctrl_gy[ch] = (ab * self.ctrl_gy[ch] as f64 + (1.0 - ab) * mean_gy) as f32;
                    self.ctrl_g[ch] = (ab * self.ctrl_g[ch] as f64 + (1.0 - ab) * mean_g) as f32;
                }
                let proj_y = self.ctrl_gy[ch];
                let proj_1 = self.ctrl_g[ch];
                let inv = inv_stds[ch];
                for ni in 0..n {
                    let base = (ni * c + ch) * hw;
                    for p in 0..hw {
                        let gp = gs[base + p] * gam[ch];
                        let controlled = gp - proj_y * gam[ch] * yh[base + p] - proj_1 * gam[ch];
                        gxs[base + p] = controlled * inv;
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
        self.training = training;
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }

    // Online normalization is stateful *across samples* (that is its
    // point — Section 4 of the paper pairs it with batch-size-1 PB), so
    // every streaming statistic and control variable must travel.
    fn state_bytes(&self) -> Option<Vec<u8>> {
        let mut w = pbp_snapshot::StateWriter::new();
        w.put_f32_slice(&self.mu);
        w.put_f32_slice(&self.var);
        w.put_f32_slice(&self.ctrl_gy);
        w.put_f32_slice(&self.ctrl_g);
        Some(w.into_bytes())
    }

    fn load_state_bytes(&mut self, bytes: &[u8]) -> Result<(), pbp_snapshot::SnapshotError> {
        let mut r = pbp_snapshot::StateReader::new(bytes);
        let mu = r.take_f32_vec()?;
        let var = r.take_f32_vec()?;
        let ctrl_gy = r.take_f32_vec()?;
        let ctrl_g = r.take_f32_vec()?;
        r.finish()?;
        for (name, v) in [
            ("mu", &mu),
            ("var", &var),
            ("ctrl_gy", &ctrl_gy),
            ("ctrl_g", &ctrl_g),
        ] {
            if v.len() != self.channels {
                return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                    "online-norm {name} state for {} channels, layer has {}",
                    v.len(),
                    self.channels
                )));
            }
        }
        self.mu = mu;
        self.var = var;
        self.ctrl_gy = ctrl_gy;
        self.ctrl_g = ctrl_g;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn streaming_statistics_converge_to_input_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut on = OnlineNorm::with_decays(2, 0.95, 0.99);
        for _ in 0..300 {
            let x = pbp_tensor::normal(&[1, 2, 4, 4], 3.0, 2.0, &mut rng);
            let mut s = vec![x];
            on.forward(&mut s);
            on.clear_stash();
        }
        for ch in 0..2 {
            assert!((on.mu[ch] - 3.0).abs() < 0.5, "mu {}", on.mu[ch]);
            assert!((on.var[ch] - 4.0).abs() < 1.5, "var {}", on.var[ch]);
        }
        // After convergence, outputs are near standard normal.
        let x = pbp_tensor::normal(&[1, 2, 16, 16], 3.0, 2.0, &mut rng);
        let mut s = vec![x];
        on.forward(&mut s);
        let y = s.pop().unwrap();
        assert!(y.mean().abs() < 0.3, "mean {}", y.mean());
        assert!((y.variance() - 1.0).abs() < 0.4, "var {}", y.variance());
    }

    #[test]
    fn eval_mode_freezes_statistics() {
        let mut on = OnlineNorm::new(1);
        on.set_training(false);
        let mu0 = on.mu[0];
        let x = Tensor::full(&[1, 1, 2, 2], 100.0);
        let mut s = vec![x];
        on.forward(&mut s);
        assert_eq!(on.mu[0], mu0, "eval must not move statistics");
    }

    #[test]
    fn control_process_removes_gradient_mean_over_time() {
        // Feed a constant gradient; the control process should learn to
        // subtract its mean, shrinking the outgoing gradient mean.
        let mut rng = StdRng::seed_from_u64(1);
        let mut on = OnlineNorm::with_decays(1, 0.99, 0.5);
        let mut first_mean = None;
        let mut last_mean = 0.0f64;
        for _ in 0..100 {
            let x = pbp_tensor::normal(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
            let mut s = vec![x];
            on.forward(&mut s);
            let mut g = vec![Tensor::ones(&[1, 1, 4, 4])];
            on.backward(&mut g);
            let gout = g.pop().unwrap();
            last_mean = gout.mean().abs();
            first_mean.get_or_insert(last_mean);
        }
        assert!(
            last_mean < first_mean.unwrap() * 0.2 + 1e-6,
            "gradient mean should shrink: {} → {last_mean}",
            first_mean.unwrap()
        );
    }

    #[test]
    fn trains_a_small_net_at_batch_size_one() {
        use crate::layers::{Conv2d, Flatten, GlobalAvgPool2d, Linear, Relu};
        use crate::loss::softmax_cross_entropy;
        use crate::{Network, Stage};
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(vec![
            Stage::new(
                "conv",
                vec![
                    Box::new(Conv2d::new(1, 6, 3, 1, 1, false, &mut rng)) as Box<dyn Layer>,
                    Box::new(OnlineNorm::new(6)),
                    Box::new(Relu::new()),
                ],
            ),
            Stage::single(Box::new(GlobalAvgPool2d::new())),
            Stage::new(
                "head",
                vec![
                    Box::new(Flatten::new()) as Box<dyn Layer>,
                    Box::new(Linear::new(6, 2, true, &mut rng)),
                ],
            ),
        ]);
        // Two distinguishable constant inputs.
        let a = Tensor::full(&[1, 1, 6, 6], 1.0);
        let b = Tensor::full(&[1, 1, 6, 6], -1.0);
        let mut last = 0.0;
        for i in 0..120 {
            let (x, label) = if i % 2 == 0 { (&a, 0usize) } else { (&b, 1) };
            net.zero_grads();
            let logits = net.forward(x);
            let (loss, grad) = softmax_cross_entropy(&logits, &[label]);
            net.backward(&grad);
            for s in 0..net.num_stages() {
                let stage = net.stage_mut(s);
                let grads: Vec<Tensor> = stage
                    .grads()
                    .iter()
                    .map(|g| g.dense().into_owned())
                    .collect();
                for (p, g) in stage.params_mut().into_iter().zip(&grads) {
                    pbp_tensor::ops::axpy(-0.05, g, p);
                }
            }
            last = loss as f64;
        }
        assert!(last < 0.3, "final loss {last}");
    }

    #[test]
    #[should_panic(expected = "alpha_f")]
    fn rejects_bad_decay() {
        OnlineNorm::with_decays(1, 1.0, 0.5);
    }
}
