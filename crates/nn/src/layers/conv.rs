//! Convolutional layer.

use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::ops::{
    conv2d_direct, conv2d_direct_backward_input, conv2d_direct_backward_weight_staged,
    conv2d_direct_staging, Conv2dSpec, StagedImages,
};
use pbp_tensor::{he_normal, GradView, Tensor};
use rand::Rng;
use std::collections::VecDeque;

/// 2-D convolution layer (NCHW) with optional bias.
#[derive(Debug)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Tensor,
    bias: Option<Tensor>,
    grad_weight: Tensor,
    grad_bias: Option<Tensor>,
    /// Per-in-flight-sample stash: the input activation as the forward
    /// staged it for the kernel (zero-padded, phase-split) — one
    /// activation per sample, the unit the paper's Appendix A memory model
    /// counts — which the weight half reads without staging it again.
    /// Both modes run the direct kernels; in eval mode the forward stages
    /// in scratch, no backward will come and nothing is kept.
    stash: Stash<StagedImages>,
    /// `(g, x)` pairs deferred by [`Layer::backward_input`], retired in
    /// FIFO order by [`Layer::backward_weight`] (2BP split backward).
    wgrad_pending: VecDeque<(Tensor, StagedImages)>,
    /// Input spatial size, as the builder declared it
    /// ([`Conv2d::with_input_size`]) or the most recent forward pass saw
    /// it; lets [`Layer::flops_per_sample`] report the spatially-resolved
    /// cost.
    last_hw: Option<(usize, usize)>,
}

impl Conv2d {
    /// Creates a He-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if the spec geometry is degenerate (zero kernel/stride).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let spec = Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding)
            .expect("valid conv2d geometry");
        Conv2d {
            weight: he_normal(&spec.weight_shape(), spec.fan_in(), rng),
            bias: bias.then(|| Tensor::zeros(&[out_channels])),
            grad_weight: Tensor::zeros(&spec.weight_shape()),
            grad_bias: bias.then(|| Tensor::zeros(&[out_channels])),
            stash: Stash::default(),
            wgrad_pending: VecDeque::new(),
            last_hw: None,
            spec,
        }
    }

    /// Declares the `h × w` input this layer will see, so that
    /// [`Layer::flops_per_sample`] — and the partition that reads it — is
    /// the same before the first forward as after it.
    pub fn with_input_size(mut self, h: usize, w: usize) -> Self {
        self.last_hw = Some((h, w));
        self
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Input gradient of `g` under the current weights; of the stashed
    /// input only the spatial size is read.
    fn input_grad(&self, g: &Tensor, x: &StagedImages) -> Tensor {
        let [_, _, h, w] = x.input_shape();
        conv2d_direct_backward_input(g, &self.weight, (h, w), &self.spec).expect("conv2d shapes")
    }

    /// Adds the weight gradient of `(g, x)` straight into the layer's, and
    /// the bias gradient into its own — the weight half shared by the
    /// fused backward and [`Layer::backward_weight`]. Reads no current
    /// weights, so running it at the update boundary instead of backward
    /// time is exact. Dropping `x` hands its buffer to the next forward.
    fn accumulate_weight_grads(&mut self, g: &Tensor, x: StagedImages) {
        conv2d_direct_backward_weight_staged(g, &x, &mut self.grad_weight)
            .expect("conv2d grad shapes");
        if let Some(gb) = &mut self.grad_bias {
            let [n, oc, oh, ow] = [g.shape()[0], g.shape()[1], g.shape()[2], g.shape()[3]];
            let gs = g.as_slice();
            let gbs = gb.as_mut_slice();
            for ni in 0..n {
                for c in 0..oc {
                    let base = (ni * oc + c) * oh * ow;
                    let mut acc = 0.0f32;
                    for p in 0..oh * ow {
                        acc += gs[base + p];
                    }
                    gbs[c] += acc;
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv{}x{}({}→{},s{})",
            self.spec.kernel,
            self.spec.kernel,
            self.spec.in_channels,
            self.spec.out_channels,
            self.spec.stride
        )
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("conv2d: empty stack");
        self.last_hw = Some((x.shape()[2], x.shape()[3]));
        let mut y = match self.stash.training() {
            true => {
                let (y, staged) =
                    conv2d_direct_staging(&x, &self.weight, &self.spec).expect("conv2d shapes");
                self.stash.push_back(staged);
                y
            }
            false => conv2d_direct(&x, &self.weight, &self.spec).expect("conv2d shapes"),
        };
        if let Some(b) = &self.bias {
            let [n, oc, oh, ow] = [y.shape()[0], y.shape()[1], y.shape()[2], y.shape()[3]];
            let ys = y.as_mut_slice();
            let bs = b.as_slice();
            for ni in 0..n {
                for c in 0..oc {
                    let base = (ni * oc + c) * oh * ow;
                    for p in 0..oh * ow {
                        ys[base + p] += bs[c];
                    }
                }
            }
        }
        stack.push(y);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("conv2d: empty grad stack");
        let x = self.stash.pop_front().expect("conv2d: no stashed input");
        grad_stack.push(self.input_grad(&g, &x));
        self.accumulate_weight_grads(&g, x);
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("conv2d: empty grad stack");
        let x = self.stash.pop_front().expect("conv2d: no stashed input");
        // The input gradient reads the *current* weights, so it stays on
        // the critical path; the weight half depends only on (g, x) and is
        // deferred.
        grad_stack.push(self.input_grad(&g, &x));
        self.wgrad_pending.push_back((g, x));
    }

    /// Defers the weight half as `backward_input` does, and runs no input
    /// gradient: no conv kernel at all until `backward_weight`.
    fn backward_input_unread(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("conv2d: empty grad stack");
        let x = self.stash.pop_front().expect("conv2d: no stashed input");
        self.wgrad_pending.push_back((g, x));
    }

    fn backward_weight(&mut self) {
        let (g, x) = self
            .wgrad_pending
            .pop_front()
            .expect("conv2d: no deferred weight-gradient work");
        self.accumulate_weight_grads(&g, x);
    }

    fn params(&self) -> Vec<&Tensor> {
        match &self.bias {
            Some(b) => vec![&self.weight, b],
            None => vec![&self.weight],
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match &mut self.bias {
            Some(b) => vec![&mut self.weight, b],
            None => vec![&mut self.weight],
        }
    }

    fn grads(&self) -> Vec<GradView<'_>> {
        match &self.grad_bias {
            Some(gb) => vec![(&self.grad_weight).into(), gb.into()],
            None => vec![(&self.grad_weight).into()],
        }
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        match (&mut self.bias, &self.grad_bias) {
            (Some(b), Some(gb)) => vec![
                (&mut self.weight, (&self.grad_weight).into()),
                (b, gb.into()),
            ],
            _ => vec![(&mut self.weight, (&self.grad_weight).into())],
        }
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill(0.0);
        if let Some(gb) = &mut self.grad_bias {
            gb.fill(0.0);
        }
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        // Deferred weight-gradient work survives: under 2BP an update
        // window (and its pending `backward_weight` halves) can span an
        // evaluation pause, which flushes activation stashes.
        self.stash.clear();
    }

    /// Parameter-based — it misses the output-pixel factor — until the
    /// builder ([`Conv2d::with_input_size`]) or a first forward has set
    /// `last_hw`: an MFU or a stage cost read off such a network before it
    /// has run undercounts its conv stages.
    fn flops_per_sample(&self) -> u64 {
        match self.last_hw {
            // Each weight is reused across every output pixel; the bias
            // adds one FLOP per output element.
            Some((h, w)) => {
                let pixels = (self.spec.out_size(h) * self.spec.out_size(w)) as u64;
                let bias = self.bias.as_ref().map_or(0, |b| b.len() as u64) * pixels;
                2 * self.weight.len() as u64 * pixels + bias
            }
            // Size not known yet: fall back to the parameter-based default.
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
    fn conv_layer_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let x = pbp_tensor::normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);

        let run = |layer: &mut Conv2d, x: &Tensor| -> f32 {
            let mut s = vec![x.clone()];
            layer.forward(&mut s);
            let y = s.pop().unwrap();
            layer.clear_stash();
            y.as_slice().iter().sum()
        };

        let mut s = vec![x.clone()];
        layer.forward(&mut s);
        let y = s.pop().unwrap();
        let mut g = vec![Tensor::ones(y.shape())];
        layer.backward(&mut g);
        let gx = g.pop().unwrap();
        let gw = layer.grads()[0].dense().into_owned();
        let gb = layer.grads()[1].dense().into_owned();

        let eps = 1e-2f32;
        for idx in [0usize, 9, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (run(&mut layer, &xp) - run(&mut layer, &xm)) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 2e-2, "input grad {idx}");
        }
        for idx in [0usize, 13, 40] {
            let orig = layer.weight.as_slice()[idx];
            layer.weight.as_mut_slice()[idx] = orig + eps;
            let lp = run(&mut layer, &x);
            layer.weight.as_mut_slice()[idx] = orig - eps;
            let lm = run(&mut layer, &x);
            layer.weight.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 2e-2, "weight grad {idx}");
        }
        // Bias gradient: dL/db_c = number of output pixels per channel.
        let [_, _, oh, ow] = [1usize, 3, 4, 4];
        for c in 0..3 {
            assert!((gb.as_slice()[c] - (oh * ow) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn split_backward_is_bit_identical_to_fused() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut fused = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let mut rng = StdRng::seed_from_u64(6);
        let mut split = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let mut data_rng = StdRng::seed_from_u64(7);
        let xs: Vec<Tensor> = (0..2)
            .map(|_| pbp_tensor::normal(&[1, 2, 5, 5], 0.0, 1.0, &mut data_rng))
            .collect();
        let gs: Vec<Tensor> = (0..2)
            .map(|_| pbp_tensor::normal(&[1, 3, 5, 5], 0.0, 1.0, &mut data_rng))
            .collect();
        let mut fused_gx = Vec::new();
        let mut split_gx = Vec::new();
        for x in &xs {
            let mut s = vec![x.clone()];
            fused.forward(&mut s);
            let mut s = vec![x.clone()];
            split.forward(&mut s);
        }
        // Two samples in flight: backward_input twice, then retire both
        // deferred weight-gradient units — the 2BP call pattern.
        for g in &gs {
            let mut gs1 = vec![g.clone()];
            fused.backward(&mut gs1);
            fused_gx.push(gs1.pop().unwrap());
            let mut gs2 = vec![g.clone()];
            split.backward_input(&mut gs2);
            split_gx.push(gs2.pop().unwrap());
        }
        split.backward_weight();
        split.backward_weight();
        for (a, b) in fused_gx.iter().zip(&split_gx) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "input grads differ");
            }
        }
        for (a, b) in fused.grads().iter().zip(split.grads()) {
            for (x, y) in a.dense().as_slice().iter().zip(b.dense().as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "weight grads differ");
            }
        }
    }

    #[test]
    fn an_unread_input_gradient_defers_the_same_weight_half() {
        // The network's first layer under a pipeline engine: no input
        // gradient is pushed, and the deferred weight half accumulates
        // exactly what `backward_input` defers.
        let mut rng = StdRng::seed_from_u64(12);
        let mut read = Conv2d::new(3, 4, 3, 2, 1, true, &mut rng);
        let mut rng = StdRng::seed_from_u64(12);
        let mut unread = Conv2d::new(3, 4, 3, 2, 1, true, &mut rng);
        let x = pbp_tensor::normal(&[1, 3, 7, 7], 0.0, 1.0, &mut rng);
        for layer in [&mut read, &mut unread] {
            layer.forward(&mut vec![x.clone()]);
        }
        let g = pbp_tensor::normal(&[1, 4, 4, 4], 0.0, 1.0, &mut rng);
        let mut gs = vec![g.clone()];
        read.backward_input(&mut gs);
        assert_eq!(gs.len(), 1);
        let mut gs = vec![g];
        unread.backward_input_unread(&mut gs);
        assert!(gs.is_empty(), "no input gradient pushed");
        read.backward_weight();
        unread.backward_weight();
        for (a, b) in read.grads().iter().zip(unread.grads()) {
            for (x, y) in a.dense().as_slice().iter().zip(b.dense().as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "weight grads differ");
            }
        }
    }

    #[test]
    fn batch_of_n_step_is_bit_identical_to_n_batch_of_one_steps() {
        // The Fig. 16 invariant at the layer: one batch-of-N forward and
        // backward leaves the outputs, input gradients and accumulated
        // parameter gradients N batch-of-one passes leave (per-sample
        // weight-gradient subtotals either way).
        let (n, c, h, w) = (3usize, 3usize, 6usize, 5usize);
        let mut rng = StdRng::seed_from_u64(11);
        let mut batched = Conv2d::new(c, 4, 3, 2, 1, true, &mut rng);
        let mut rng = StdRng::seed_from_u64(11);
        let mut single = Conv2d::new(c, 4, 3, 2, 1, true, &mut rng);
        let x = pbp_tensor::normal(&[n, c, h, w], 0.0, 1.0, &mut rng);
        let mut s = vec![x.clone()];
        batched.forward(&mut s);
        let y = s.pop().unwrap();
        let g = pbp_tensor::normal(y.shape(), 0.0, 1.0, &mut rng);
        let mut gs = vec![g.clone()];
        batched.backward(&mut gs);
        let gx = gs.pop().unwrap();

        let rows = |t: &Tensor, i: usize| {
            let len = t.len() / n;
            let shape = [&[1], &t.shape()[1..]].concat();
            Tensor::from_vec(t.as_slice()[i * len..(i + 1) * len].to_vec(), &shape).unwrap()
        };
        let (mut ys, mut gxs) = (Vec::new(), Vec::new());
        for i in 0..n {
            let mut s = vec![rows(&x, i)];
            single.forward(&mut s);
            ys.extend_from_slice(s[0].as_slice());
        }
        for i in 0..n {
            let mut gs = vec![rows(&g, i)];
            single.backward(&mut gs);
            gxs.extend_from_slice(gs[0].as_slice());
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(y.as_slice()), bits(&ys), "outputs");
        assert_eq!(bits(gx.as_slice()), bits(&gxs), "input gradients");
        for (a, b) in batched.grads().iter().zip(single.grads()) {
            assert_eq!(
                bits(a.dense().as_slice()),
                bits(b.dense().as_slice()),
                "parameter gradients"
            );
        }
    }

    #[test]
    fn stash_is_fifo() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng);
        let x1 = Tensor::ones(&[1, 1, 3, 3]);
        let x2 = Tensor::zeros(&[1, 1, 3, 3]);
        let mut s = vec![x1];
        layer.forward(&mut s);
        let y1_shape = s.pop().unwrap().shape().to_vec();
        let mut s2 = vec![x2];
        layer.forward(&mut s2);
        // First backward consumes x1's stash: weight grad must be nonzero.
        let mut g = vec![Tensor::ones(&y1_shape)];
        layer.backward(&mut g);
        assert!(layer.grads()[0].dense().norm() > 0.0);
        layer.zero_grads();
        // Second backward consumes x2 (zeros): weight grad stays zero.
        let mut g2 = vec![Tensor::ones(&y1_shape)];
        layer.backward(&mut g2);
        assert_eq!(layer.grads()[0].dense().norm(), 0.0);
    }
}
