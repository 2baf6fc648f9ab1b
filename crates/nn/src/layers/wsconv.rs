//! Weight-standardized convolution (Qiao et al., 2019).
//!
//! The paper's Discussion section lists Weight Standardization among the
//! batch-free normalization techniques that "may boost delay tolerance".
//! This layer standardizes the kernel of each output channel to zero mean
//! and unit variance before convolving, and back-propagates through the
//! standardization, so it composes with group normalization at batch size
//! one.

use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::ops::{
    conv2d_direct, conv2d_direct_backward_input, conv2d_direct_backward_weight_staged,
    conv2d_direct_staging, Conv2dSpec, StagedImages,
};
use pbp_tensor::{he_normal, GradView, Tensor};
use rand::Rng;

/// Per-sample stash: the input activation as the forward staged it, and
/// the standardized weight with its per-channel inverse stds as the
/// forward pass computed them.
/// Under pipelined backpropagation the raw weight has taken `D_s` updates
/// by the time the gradient returns, so the standardization Jacobian must
/// come from here and not from the layer's current weight.
type WsStash = (StagedImages, Tensor, Vec<f32>);

/// 2-D convolution whose effective kernel is standardized per output
/// channel: `ŵ_o = (w_o − μ_o) / (σ_o + ε)`.
#[derive(Debug)]
pub struct WsConv2d {
    spec: Conv2dSpec,
    weight: Tensor,
    grad_weight: Tensor,
    eps: f32,
    /// Both modes run the direct kernels over the standardized weight; in
    /// eval mode no backward will come and nothing is kept.
    stash: Stash<WsStash>,
    /// Input spatial size seen by the most recent forward pass; lets
    /// [`Layer::flops_per_sample`] report the spatially-resolved cost.
    last_hw: Option<(usize, usize)>,
}

impl WsConv2d {
    /// Creates a He-initialized weight-standardized convolution (no bias —
    /// standardization removes the mean anyway; pair with a normalization
    /// layer that has an affine part).
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding)
            .expect("valid conv2d geometry");
        WsConv2d {
            weight: he_normal(&spec.weight_shape(), spec.fan_in(), rng),
            grad_weight: Tensor::zeros(&spec.weight_shape()),
            eps: 1e-5,
            spec,
            stash: Stash::default(),
            last_hw: None,
        }
    }

    /// Standardizes the raw weight per output channel, returning
    /// `(ŵ, per-row inverse std)`.
    fn standardized(&self) -> (Tensor, Vec<f32>) {
        let rows = self.spec.out_channels;
        let fan_in = self.spec.fan_in();
        let w = self.weight.as_slice();
        let mut out = Tensor::zeros(self.weight.shape());
        let mut inv_stds = Vec::with_capacity(rows);
        {
            let os = out.as_mut_slice();
            for r in 0..rows {
                let seg = &w[r * fan_in..(r + 1) * fan_in];
                let mean = seg.iter().map(|&v| v as f64).sum::<f64>() / fan_in as f64;
                let var = seg
                    .iter()
                    .map(|&v| {
                        let d = v as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / fan_in as f64;
                let inv = 1.0 / (var.sqrt() + self.eps as f64);
                inv_stds.push(inv as f32);
                for (j, &v) in seg.iter().enumerate() {
                    os[r * fan_in + j] = ((v as f64 - mean) * inv) as f32;
                }
            }
        }
        (out, inv_stds)
    }
}

impl Layer for WsConv2d {
    fn name(&self) -> String {
        format!(
            "ws_conv{}x{}({}→{},s{})",
            self.spec.kernel,
            self.spec.kernel,
            self.spec.in_channels,
            self.spec.out_channels,
            self.spec.stride
        )
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("ws_conv: empty stack");
        self.last_hw = Some((x.shape()[2], x.shape()[3]));
        let (what, inv_stds) = self.standardized();
        let y = match self.stash.training() {
            true => {
                let (y, staged) =
                    conv2d_direct_staging(&x, &what, &self.spec).expect("ws_conv shapes");
                self.stash.push_back((staged, what, inv_stds));
                y
            }
            false => conv2d_direct(&x, &what, &self.spec).expect("ws_conv shapes"),
        };
        stack.push(y);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("ws_conv: empty grad stack");
        let (x, what, inv_stds) = self.stash.pop_front().expect("ws_conv: no stash");
        let [_, _, h, w] = x.input_shape();
        let gx = conv2d_direct_backward_input(&g, &what, (h, w), &self.spec)
            .expect("ws_conv grad shapes");
        let mut g_what = Tensor::zeros(&self.spec.weight_shape());
        conv2d_direct_backward_weight_staged(&g, &x, &mut g_what).expect("ws_conv grad shapes");
        // Back-propagate through ŵ = (w − μ)/(σ + ε), per output channel:
        // dw = inv·(dŵ − mean(dŵ) − ŵ·mean(dŵ ⊙ ŵ)·σ/(σ+ε)). For ε ≪ σ we
        // use the standard normalization backward (σ/(σ+ε) ≈ 1).
        let rows = self.spec.out_channels;
        let ncols = self.spec.fan_in();
        let gw_hat = g_what.as_slice();
        let ws = what.as_slice();
        let gwr = self.grad_weight.as_mut_slice();
        for r in 0..rows {
            let seg_g = &gw_hat[r * ncols..(r + 1) * ncols];
            let seg_w = &ws[r * ncols..(r + 1) * ncols];
            let mean_g = seg_g.iter().map(|&v| v as f64).sum::<f64>() / ncols as f64;
            let mean_gw = seg_g
                .iter()
                .zip(seg_w)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum::<f64>()
                / ncols as f64;
            let inv = inv_stds[r] as f64;
            for j in 0..ncols {
                gwr[r * ncols + j] +=
                    (inv * (seg_g[j] as f64 - mean_g - seg_w[j] as f64 * mean_gw)) as f32;
            }
        }
        grad_stack.push(gx);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight]
    }

    fn grads(&self) -> Vec<GradView<'_>> {
        vec![(&self.grad_weight).into()]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        vec![(&mut self.weight, (&self.grad_weight).into())]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill(0.0);
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }

    /// Parameter-based — it misses the output-pixel factor — until a
    /// first forward has set `last_hw`: an MFU read off a network that
    /// has not run yet undercounts its conv stages.
    fn flops_per_sample(&self) -> u64 {
        match self.last_hw {
            // Each standardized weight is reused across every output pixel.
            Some((h, w)) => {
                let pixels = (self.spec.out_size(h) * self.spec.out_size(w)) as u64;
                2 * self.weight.len() as u64 * pixels
            }
            // No forward seen yet: fall back to the parameter-based default.
            None => 2 * self.param_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn effective_kernel_is_standardized() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = WsConv2d::new(3, 4, 3, 1, 1, &mut rng);
        let (what, _) = conv.standardized();
        let fan_in = conv.spec.fan_in();
        for r in 0..4 {
            let seg = &what.as_slice()[r * fan_in..(r + 1) * fan_in];
            let mean: f32 = seg.iter().sum::<f32>() / fan_in as f32;
            let var: f32 = seg.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / fan_in as f32;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = WsConv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = pbp_tensor::normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let k = pbp_tensor::normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);

        let run = |layer: &mut WsConv2d, x: &Tensor| -> f32 {
            let mut s = vec![x.clone()];
            layer.forward(&mut s);
            let y = s.pop().unwrap();
            layer.clear_stash();
            y.as_slice()
                .iter()
                .zip(k.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };

        let mut s = vec![x.clone()];
        layer.forward(&mut s);
        let _ = s.pop();
        let mut g = vec![k.clone()];
        layer.backward(&mut g);
        let gx = g.pop().unwrap();
        let gw = layer.grads()[0].dense().into_owned();

        let eps = 1e-2f32;
        for idx in [0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (run(&mut layer, &xp) - run(&mut layer, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 3e-2,
                "input grad {idx}: {num} vs {}",
                gx.as_slice()[idx]
            );
        }
        for idx in [0usize, 7, 18, 29] {
            let orig = layer.weight.as_slice()[idx];
            layer.weight.as_mut_slice()[idx] = orig + eps;
            let lp = run(&mut layer, &x);
            layer.weight.as_mut_slice()[idx] = orig - eps;
            let lm = run(&mut layer, &x);
            layer.weight.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gw.as_slice()[idx]).abs() < 5e-2,
                "weight grad {idx}: {num} vs {}",
                gw.as_slice()[idx]
            );
        }
    }

    #[test]
    fn backward_uses_the_forward_time_standardization() {
        // The pipelined call pattern: the stage's raw weight is swapped or
        // updated between a sample's forward and its backward. The weight
        // gradient must be the one an untouched twin computes.
        let mut rng = StdRng::seed_from_u64(4);
        let mut twin = WsConv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = WsConv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = pbp_tensor::normal(&[1, 2, 5, 4], 0.0, 1.0, &mut rng);
        let g = pbp_tensor::normal(&[1, 3, 5, 4], 0.0, 1.0, &mut rng);
        twin.forward(&mut vec![x.clone()]);
        layer.forward(&mut vec![x]);
        layer.weight.map_in_place(|v| 0.5 * v * v - 0.3);
        let (mut a, mut b) = (vec![g.clone()], vec![g]);
        twin.backward(&mut a);
        layer.backward(&mut b);
        for (x, y) in a[0].as_slice().iter().zip(b[0].as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "input grads differ");
        }
        let (a, b) = (twin.grads()[0].dense(), layer.grads()[0].dense());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "weight grads differ");
        }
    }

    #[test]
    fn split_backward_is_bit_identical_to_fused() {
        // Two samples in flight, the 2BP call pattern: `backward_input`
        // twice, then both deferred weight halves.
        let mut rng = StdRng::seed_from_u64(6);
        let mut fused = WsConv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut rng = StdRng::seed_from_u64(6);
        let mut split = WsConv2d::new(2, 3, 3, 1, 1, &mut rng);
        let xs: Vec<Tensor> = (0..2)
            .map(|_| pbp_tensor::normal(&[1, 2, 5, 4], 0.0, 1.0, &mut rng))
            .collect();
        let gs: Vec<Tensor> = (0..2)
            .map(|_| pbp_tensor::normal(&[1, 3, 5, 4], 0.0, 1.0, &mut rng))
            .collect();
        for x in &xs {
            fused.forward(&mut vec![x.clone()]);
            split.forward(&mut vec![x.clone()]);
        }
        for g in &gs {
            let (mut a, mut b) = (vec![g.clone()], vec![g.clone()]);
            fused.backward(&mut a);
            split.backward_input(&mut b);
            for (x, y) in a[0].as_slice().iter().zip(b[0].as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "input grads differ");
            }
        }
        split.backward_weight();
        split.backward_weight();
        let (a, b) = (fused.grads()[0].dense(), split.grads()[0].dense());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "weight grads differ");
        }
    }

    #[test]
    fn forward_is_invariant_to_weight_scale_and_shift() {
        // Standardization makes the conv invariant to per-channel affine
        // changes of the raw weight — the property that stabilizes updates.
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = WsConv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = pbp_tensor::normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let mut s = vec![x.clone()];
        layer.forward(&mut s);
        let y1 = s.pop().unwrap();
        layer.clear_stash();
        layer.weight.map_in_place(|v| 3.0 * v + 0.7);
        let mut s = vec![x];
        layer.forward(&mut s);
        let y2 = s.pop().unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
