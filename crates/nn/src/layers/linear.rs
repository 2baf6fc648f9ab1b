//! Fully connected layer.

use crate::layer::{LaneStack, Layer, ParamStep, Stash};
use pbp_tensor::ops::{gemm_tn, matmul_tn_acc};
use pbp_tensor::{he_normal, GradView, Tensor};
use rand::Rng;
use std::collections::VecDeque;

/// Fully connected layer: `y = x·Wᵀ + b`.
///
/// Weight shape is `[out_features, in_features]`; inputs are
/// `[batch, in_features]`.
///
/// ## Weight gradient
///
/// At batch size one the weight gradient of an update is the outer
/// product `δ ⊗ x`, so the layer does not write it out: the first
/// single-row contribution since [`Layer::zero_grads`] is *held* as its
/// `(δ, x)` pair and handed to the optimizer as a [`GradView::Outer`]. A
/// further contribution in the same window (fill&drain, 1F1B, 2BP,
/// batched SGDM) first materialises the held pair with the overwrite GEMM
/// — the same `+0.0` fma chain the accumulating GEMM starts on a zeroed
/// buffer — and accumulates densely from there, so every window's
/// gradient is bit for bit what dense accumulation alone produces. Which
/// form is in use follows from the contributions the layer has seen, never
/// from an option.
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Option<Tensor>,
    /// Dense weight-gradient accumulator; all zeros unless `dense_dirty`.
    grad_weight: Tensor,
    /// Whether a contribution has been accumulated into `grad_weight`
    /// since the last [`Layer::zero_grads`].
    dense_dirty: bool,
    /// The window's only contribution so far, `(δ [1, out], x [1, in])`;
    /// implies `!dense_dirty`.
    held: Option<(Tensor, Tensor)>,
    grad_bias: Option<Tensor>,
    stash: Stash<Tensor>,
    /// `(g, x)` pairs deferred by [`Layer::backward_input`], retired in
    /// FIFO order by [`Layer::backward_weight`] (2BP split backward).
    wgrad_pending: VecDeque<(Tensor, Tensor)>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a He-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut impl Rng) -> Self {
        Linear {
            weight: he_normal(&[out_features, in_features], in_features, rng),
            bias: bias.then(|| Tensor::zeros(&[out_features])),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            dense_dirty: false,
            held: None,
            grad_bias: bias.then(|| Tensor::zeros(&[out_features])),
            stash: Stash::default(),
            wgrad_pending: VecDeque::new(),
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        format!("linear({}→{})", self.in_features, self.out_features)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("linear: empty stack");
        let x2 = if x.rank() == 2 {
            x
        } else {
            // Accept [N, C, H, W] or [features]; flatten to [N, features].
            let n = if x.rank() >= 2 { x.shape()[0] } else { 1 };
            let features = x.len() / n;
            x.into_shape(&[n, features]).expect("flattenable input")
        };
        let mut y = x2.matmul_transpose_b(&self.weight).expect("linear shapes");
        if let Some(b) = &self.bias {
            let (n, o) = (y.shape()[0], self.out_features);
            let ys = y.as_mut_slice();
            let bs = b.as_slice();
            for ni in 0..n {
                for oi in 0..o {
                    ys[ni * o + oi] += bs[oi];
                }
            }
        }
        self.stash.push_back(x2);
        stack.push(y);
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("linear: empty grad stack");
        let x = self.stash.pop_front().expect("linear: no stashed input");
        // The input gradient reads the *current* weights, so it stays on
        // the critical path; the weight half depends only on (g, x) and is
        // deferred.
        grad_stack.push(g.matmul(&self.weight).expect("linear grad shapes"));
        self.wgrad_pending.push_back((g, x));
    }

    /// At batch one, in windows with nothing accumulated yet, each window's
    /// weight gradient will be its held pair `δ ⊗ x`: `step` takes the
    /// weight's updates and every `gx = δ·W` — each from the weights the
    /// update before it wrote — in one pass over `W`, and the pairs are
    /// deferred for [`Layer::backward_weight`] in order. Otherwise (a
    /// batch, or a window already holding a contribution) the weight is
    /// left to the update, as `backward_input` leaves it.
    ///
    /// # Panics
    ///
    /// Panics if several microbatches are offered and they are not all
    /// single samples opening empty windows: a pipeline offers several only
    /// at the start of their windows.
    fn backward_input_stepping(
        &mut self,
        grads: &mut [LaneStack],
        first: usize,
        step: &mut dyn ParamStep,
    ) {
        let single = grads
            .iter()
            .all(|s| s.last().is_some_and(|g| g.shape()[0] == 1));
        let empty = self.held.is_none() && !self.dense_dirty && self.wgrad_pending.is_empty();
        if !(single && empty) {
            assert_eq!(
                grads.len(),
                1,
                "linear: a pair needs two fresh single-row windows"
            );
            return self.backward_input(&mut grads[0]);
        }
        for grad_stack in grads.iter_mut() {
            let g = grad_stack.pop().expect("linear: empty grad stack");
            let x = self.stash.pop_front().expect("linear: no stashed input");
            self.wgrad_pending.push_back((g, x));
        }
        // The pending pairs are exactly this call's, oldest first.
        let rows: Vec<(&[f32], &[f32])> = (self.wgrad_pending.iter())
            .map(|(g, x)| (g.as_slice(), x.as_slice()))
            .collect();
        let mut gx: Vec<Tensor> = (grads.iter())
            .map(|_| Tensor::zeros(&[1, self.in_features]))
            .collect();
        let mut out: Vec<&mut [f32]> = gx.iter_mut().map(Tensor::as_mut_slice).collect();
        step.step_outer(first, &mut self.weight, &rows, &mut out);
        for (grad_stack, gx) in grads.iter_mut().zip(gx) {
            grad_stack.push(gx);
        }
    }

    /// A `Linear` pairs by stepping: both updates of its weight come from
    /// one pass ([`Layer::backward_input_stepping`]).
    fn pairs_backward(&self) -> bool {
        true
    }

    /// Defers `(g, x)` as `backward_input` does and computes no `δ·W`:
    /// the weight is read once, by its update — the lent step's single
    /// pass without the input-gradient side output.
    fn backward_input_unread(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("linear: empty grad stack");
        let x = self.stash.pop_front().expect("linear: no stashed input");
        self.wgrad_pending.push_back((g, x));
    }

    /// Adds the oldest deferred backward's `gᵀ·x` to the weight gradient
    /// (held factored or accumulated densely, see the type docs) and its
    /// column sums to the bias gradient. Reads no current weights, so
    /// running it at the update boundary instead of backward time is exact.
    fn backward_weight(&mut self) {
        let (g, x) = self
            .wgrad_pending
            .pop_front()
            .expect("linear: no deferred weight-gradient work");
        if let Some(gb) = &mut self.grad_bias {
            let (n, o) = (g.shape()[0], self.out_features);
            let gs = g.as_slice();
            let gbs = gb.as_mut_slice();
            for ni in 0..n {
                for oi in 0..o {
                    gbs[oi] += gs[ni * o + oi];
                }
            }
        }
        if !self.dense_dirty && self.held.is_none() && g.shape()[0] == 1 {
            self.held = Some((g, x));
            return;
        }
        if let Some((g0, x0)) = self.held.take() {
            let (m, n) = (self.out_features, self.in_features);
            let gw = self.grad_weight.as_mut_slice();
            gemm_tn(g0.as_slice(), x0.as_slice(), gw, m, 1, n, false);
        }
        // grad_weight += gᵀ · x  ([out,N]ᵀ·[N,in] → [out,in]), accumulated
        // in place by the tiled transpose-A GEMM — no temporary.
        matmul_tn_acc(&g, &x, &mut self.grad_weight).expect("linear grad shapes");
        self.dense_dirty = true;
    }

    fn params(&self) -> Vec<&Tensor> {
        match &self.bias {
            Some(b) => vec![&self.weight, b],
            None => vec![&self.weight],
        }
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        // The weight gradient as the layer holds it: the held pair, else
        // the dense accumulator.
        let gw = match &self.held {
            Some((g, x)) => GradView::Outer {
                delta: g.as_slice(),
                x: x.as_slice(),
            },
            None => GradView::Dense(&self.grad_weight),
        };
        match (&mut self.bias, &self.grad_bias) {
            (Some(b), Some(gb)) => vec![(&mut self.weight, gw), (b, gb.into())],
            _ => vec![(&mut self.weight, gw)],
        }
    }

    fn zero_grads(&mut self) {
        // A window whose gradient stayed factored never touched the dense
        // accumulator: nothing weight-sized to clear.
        self.held = None;
        if std::mem::take(&mut self.dense_dirty) {
            self.grad_weight.fill(0.0);
        }
        if let Some(gb) = &mut self.grad_bias {
            gb.fill(0.0);
        }
    }

    fn flops_per_sample(&self) -> u64 {
        // x·Wᵀ is in·out multiply-adds (2 FLOPs each); the bias is one add
        // per output feature, not two per parameter as the default counts.
        let matmul = 2 * (self.in_features * self.out_features) as u64;
        matmul
            + if self.bias.is_some() {
                self.out_features as u64
            } else {
                0
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{full_backward, grad_views};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_diff_check(bias: bool) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(4, 3, bias, &mut rng);
        let x = pbp_tensor::normal(&[2, 4], 0.0, 1.0, &mut rng);
        // Loss = sum(y); grad wrt y is ones.
        let mut stack = vec![x.clone()];
        layer.forward(&mut stack);
        let y = stack.pop().unwrap();
        let mut gstack = vec![Tensor::ones(y.shape())];
        full_backward(&mut layer, &mut gstack);
        let gx = gstack.pop().unwrap();

        let eps = 1e-2f32;
        let run = |layer: &mut Linear, x: &Tensor| -> f32 {
            let mut s = vec![x.clone()];
            layer.forward(&mut s);
            let y = s.pop().unwrap();
            layer.clear_stash();
            y.as_slice().iter().sum()
        };
        // Input gradient.
        for idx in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (run(&mut layer, &xp) - run(&mut layer, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 1e-2,
                "input grad {idx}: {num} vs {}",
                gx.as_slice()[idx]
            );
        }
        // Weight gradient.
        let gw = grad_views(&mut layer)[0].dense().into_owned();
        for idx in [0usize, 7, 11] {
            let orig = layer.weight.as_slice()[idx];
            layer.weight.as_mut_slice()[idx] = orig + eps;
            let lp = run(&mut layer, &x);
            layer.weight.as_mut_slice()[idx] = orig - eps;
            let lm = run(&mut layer, &x);
            layer.weight.as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gw.as_slice()[idx]).abs() < 1e-2,
                "weight grad {idx}: {num} vs {}",
                gw.as_slice()[idx]
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences_with_bias() {
        finite_diff_check(true);
    }

    #[test]
    fn gradients_match_finite_differences_without_bias() {
        finite_diff_check(false);
    }

    #[test]
    fn fifo_stash_supports_two_in_flight_samples() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(2, 2, false, &mut rng);
        let x1 = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let x2 = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let mut s1 = vec![x1.clone()];
        layer.forward(&mut s1);
        let mut s2 = vec![x2.clone()];
        layer.forward(&mut s2);
        // Backward in FIFO order: first backward must use x1's stash.
        let mut g = vec![Tensor::ones(&[1, 2])];
        full_backward(&mut layer, &mut g);
        let gw_after_first = grad_views(&mut layer)[0].dense().into_owned();
        // dW from sample 1 alone: gᵀ·x1 puts mass only in column 0.
        assert!(gw_after_first.as_slice()[0] != 0.0);
        assert_eq!(gw_after_first.as_slice()[1], 0.0);
        let mut g2 = vec![Tensor::ones(&[1, 2])];
        full_backward(&mut layer, &mut g2);
    }

    #[test]
    fn split_backward_is_bit_identical_to_fused() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fused = Linear::new(5, 3, true, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let mut split = Linear::new(5, 3, true, &mut rng);
        // Two samples in flight. Fused: each backward_input straight
        // followed by its backward_weight. Split: backward_input twice,
        // then retire both deferred weight-gradient units — the 2BP call
        // pattern.
        let xs: Vec<Tensor> = (0..2)
            .map(|i| pbp_tensor::normal(&[1, 5], 0.0, 1.0, &mut StdRng::seed_from_u64(10 + i)))
            .collect();
        let gs: Vec<Tensor> = (0..2)
            .map(|i| pbp_tensor::normal(&[1, 3], 0.0, 1.0, &mut StdRng::seed_from_u64(20 + i)))
            .collect();
        let mut fused_gx = Vec::new();
        let mut split_gx = Vec::new();
        for x in &xs {
            let mut s = vec![x.clone()];
            fused.forward(&mut s);
            let mut s = vec![x.clone()];
            split.forward(&mut s);
        }
        for g in &gs {
            let mut gs1 = vec![g.clone()];
            full_backward(&mut fused, &mut gs1);
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
        for (a, b) in grad_views(&mut fused).iter().zip(grad_views(&mut split)) {
            for (x, y) in a.dense().as_slice().iter().zip(b.dense().as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "weight grads differ");
            }
        }
    }

    #[test]
    fn an_unread_input_gradient_defers_the_same_weight_half() {
        let mut read = Linear::new(5, 3, true, &mut StdRng::seed_from_u64(13));
        let mut unread = Linear::new(5, 3, true, &mut StdRng::seed_from_u64(13));
        let (g, x) = contributions(1).remove(0);
        for layer in [&mut read, &mut unread] {
            layer.forward(&mut vec![x.clone()]);
        }
        let mut gs = vec![g.clone()];
        read.backward_input(&mut gs);
        assert_eq!(gs.len(), 1);
        let mut gs = vec![g];
        unread.backward_input_unread(&mut gs);
        assert!(gs.is_empty(), "no input gradient pushed");
        read.backward_weight();
        unread.backward_weight();
        assert!(matches!(grad_views(&mut unread)[0], GradView::Outer { .. }));
        for (a, b) in grad_views(&mut read).iter().zip(grad_views(&mut unread)) {
            let (a, b) = (a.dense(), b.dense());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "weight grads differ");
            }
        }
    }

    #[test]
    fn zero_grads_resets() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(2, 2, true, &mut rng);
        let mut s = vec![Tensor::ones(&[1, 2])];
        layer.forward(&mut s);
        let mut g = vec![Tensor::ones(&[1, 2])];
        full_backward(&mut layer, &mut g);
        assert!(grad_views(&mut layer)[0].dense().norm() > 0.0);
        layer.zero_grads();
        assert_eq!(grad_views(&mut layer)[0].dense().norm(), 0.0);
        assert_eq!(grad_views(&mut layer)[1].dense().norm(), 0.0);
    }

    /// Single-row `(g, x)` contributions with signed zeros and a subnormal
    /// among ordinary values.
    fn contributions(n: u64) -> Vec<(Tensor, Tensor)> {
        (0..n)
            .map(|i| {
                let mut g =
                    pbp_tensor::normal(&[1, 3], 0.0, 1.0, &mut StdRng::seed_from_u64(30 + i));
                let mut x =
                    pbp_tensor::normal(&[1, 5], 0.0, 1.0, &mut StdRng::seed_from_u64(40 + i));
                g.as_mut_slice()[0] = -0.0;
                x.as_mut_slice()[1] = 0.0;
                x.as_mut_slice()[2] = 1.0e-40;
                (g, x)
            })
            .collect()
    }

    /// What the layer accumulated before gradients could stay factored:
    /// every contribution through the accumulating GEMM onto zeros.
    fn dense_reference(contribs: &[(Tensor, Tensor)]) -> Tensor {
        let mut want = Tensor::zeros(&[3, 5]);
        for (g, x) in contribs {
            matmul_tn_acc(g, x, &mut want).unwrap();
        }
        want
    }

    fn assert_weight_grad_bits(layer: &mut Linear, want: &Tensor, context: &str) {
        let got = grad_views(layer)[0].dense().into_owned();
        assert_eq!(got.shape(), want.shape(), "{context}");
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}");
        }
    }

    /// Runs `contribs` through forward + each `backward_input` straight
    /// followed by its `backward_weight` (fused) or every `backward_input`,
    /// then every `backward_weight` (split) in one update window.
    fn run_window(layer: &mut Linear, contribs: &[(Tensor, Tensor)], split: bool) {
        layer.zero_grads();
        for (_, x) in contribs {
            layer.forward(&mut vec![x.clone()]);
        }
        for (g, _) in contribs {
            let mut gstack = vec![g.clone()];
            if split {
                layer.backward_input(&mut gstack);
            } else {
                full_backward(layer, &mut gstack);
            }
        }
        if split {
            contribs.iter().for_each(|_| layer.backward_weight());
        }
    }

    #[test]
    fn one_contribution_stays_factored_and_reads_as_the_dense_gradient() {
        let mut layer = Linear::new(5, 3, true, &mut StdRng::seed_from_u64(5));
        for split in [false, true] {
            let contribs = contributions(1);
            run_window(&mut layer, &contribs, split);
            assert!(matches!(grad_views(&mut layer)[0], GradView::Outer { .. }));
            assert!(
                layer
                    .grad_weight
                    .as_slice()
                    .iter()
                    .all(|v| v.to_bits() == 0),
                "a factored window leaves the dense accumulator untouched"
            );
            assert_weight_grad_bits(&mut layer, &dense_reference(&contribs), "one contribution");
        }
    }

    #[test]
    fn a_second_contribution_materialises_the_first_and_accumulates() {
        let mut layer = Linear::new(5, 3, false, &mut StdRng::seed_from_u64(6));
        for split in [false, true] {
            for n in [2, 3] {
                let contribs = contributions(n);
                run_window(&mut layer, &contribs, split);
                assert!(matches!(grad_views(&mut layer)[0], GradView::Dense(_)));
                assert_weight_grad_bits(&mut layer, &dense_reference(&contribs), "n contributions");
            }
        }
    }

    #[test]
    fn a_multi_row_contribution_accumulates_densely() {
        let mut layer = Linear::new(5, 3, false, &mut StdRng::seed_from_u64(7));
        let x = pbp_tensor::normal(&[2, 5], 0.0, 1.0, &mut StdRng::seed_from_u64(8));
        let g = pbp_tensor::normal(&[2, 3], 0.0, 1.0, &mut StdRng::seed_from_u64(9));
        run_window(&mut layer, &[(g.clone(), x.clone())], false);
        assert!(matches!(grad_views(&mut layer)[0], GradView::Dense(_)));
        assert_weight_grad_bits(&mut layer, &dense_reference(&[(g, x)]), "batch of two");
    }

    #[test]
    fn no_contribution_after_zero_grads_reads_as_zero() {
        // The ledger's cell probe updates after `backward_input` alone, so
        // an empty window must read as an all-zero gradient — after a
        // factored window and after a dense one.
        let mut layer = Linear::new(5, 3, true, &mut StdRng::seed_from_u64(10));
        for n in [1, 2] {
            run_window(&mut layer, &contributions(n), false);
            layer.zero_grads();
            let x = contributions(1).remove(0).1;
            layer.forward(&mut vec![x]);
            layer.backward_input(&mut vec![Tensor::ones(&[1, 3])]);
            for g in grad_views(&mut layer) {
                assert!(g.dense().as_slice().iter().all(|v| v.to_bits() == 0));
            }
            layer.backward_weight();
        }
    }
}
