//! Group normalization.
//!
//! The paper trains at a per-worker batch size of one, where batch
//! statistics do not exist; it normalizes with group normalization
//! (Wu & He, 2018), which needs only the sample itself.

use super::activation::relu_mask;
use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::ops::simd;
use pbp_tensor::{pool, GradView, Tensor};

/// Group normalization over `[N, C, H, W]`.
///
/// Channels are split into `groups` groups; mean and variance are computed
/// per sample per group over `(C/groups, H, W)`. Works at batch size one.
#[derive(Debug)]
pub struct GroupNorm {
    groups: usize,
    channels: usize,
    eps: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    /// FIFO of (normalized activations, per-group inverse std); eval mode
    /// normalizes the popped tensor in place and stashes nothing.
    stash: Stash<(Tensor, Vec<f32>)>,
}

impl GroupNorm {
    /// Creates a group-norm layer with `gamma = 1`, `beta = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not divisible by `groups` or `groups == 0`.
    pub fn new(groups: usize, channels: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert_eq!(
            channels % groups,
            0,
            "channels {channels} must be divisible by groups {groups}"
        );
        GroupNorm {
            groups,
            channels,
            eps: 1e-5,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            stash: Stash::default(),
        }
    }

    /// Group-norm with the paper's "initial group size of two" rule
    /// (Wu & He, 2018): the number of groups is `channels / 2` capped at
    /// 32 groups, always dividing `channels`.
    pub fn with_group_size_two(channels: usize) -> Self {
        let mut groups = (channels / 2).clamp(1, 32);
        while !channels.is_multiple_of(groups) {
            groups -= 1;
        }
        GroupNorm::new(groups, channels)
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// In eval mode, this layer's forward and a following [`Relu`]'s in
    /// the one pass over the activation: each output `y` leaves as
    /// `y * relu_mask(y)`, the bits the ReLU would have written, and the
    /// caller skips that layer. Returns `false` and touches nothing in
    /// training mode, where the ReLU keeps the mask its backward reads.
    ///
    /// [`Relu`]: crate::layers::Relu
    pub(crate) fn forward_relu(&mut self, stack: &mut LaneStack) -> bool {
        if self.stash.training() {
            return false;
        }
        let x = stack.pop().expect("groupnorm: empty stack");
        stack.push(self.eval_forward::<true>(x));
        true
    }

    /// `(group_len, h·w)` of an `[N, C, H, W]` input, checked against the
    /// layer.
    fn geometry(&self, x: &Tensor) -> (usize, usize) {
        assert_eq!(x.rank(), 4, "groupnorm expects NCHW");
        let [c, h, w] = [x.shape()[1], x.shape()[2], x.shape()[3]];
        assert_eq!(c, self.channels, "groupnorm channel mismatch");
        (c / self.groups * h * w, h * w)
    }

    /// `(γ, β)` of each channel of group `j`.
    fn affine(&self, j: usize) -> impl Iterator<Item = (&f32, &f32)> {
        let cg = self.channels / self.groups;
        let first = j % self.groups * cg;
        self.gamma.as_slice()[first..][..cg]
            .iter()
            .zip(&self.beta.as_slice()[first..][..cg])
    }

    /// The eval-mode forward, normalising `x` in place; with `RELU` each
    /// output rectified as it is written. Samples normalise independently,
    /// so whole samples at a time go to the kernel pool; a group's index
    /// within a chunk of whole samples names the same channels as in the
    /// batch.
    fn eval_forward<const RELU: bool>(&self, mut x: Tensor) -> Tensor {
        let (group_len, hw) = self.geometry(&x);
        let sample_len = self.channels * hw;
        pool::for_each_sample_chunk(x.as_mut_slice(), sample_len, &|_, part| {
            let stats = group_stats(part, group_len, self.eps);
            // The training branch's two expressions composed, per element.
            for (j, group) in part.chunks_exact_mut(group_len).enumerate() {
                let (mean, inv_std) = stats(j);
                for (chan, (&gam, &bet)) in group.chunks_exact_mut(hw).zip(self.affine(j)) {
                    for v in chan {
                        let y = gam * ((*v - mean) * inv_std) + bet;
                        *v = if RELU { y * relu_mask(y) } else { y };
                    }
                }
            }
        });
        x
    }
}

/// Group `j`'s mean and inverse std, as the normalization reads them, for
/// the groups of `xs` — consecutive runs of `group_len`, every sample's
/// groups in turn. Each group's statistics are its own `f64` chains
/// ([`simd::group_moments`]), so they are the same bits whatever slice of
/// whole groups `xs` is.
fn group_stats(xs: &[f32], group_len: usize, eps: f32) -> impl Fn(usize) -> (f32, f32) {
    let groups = xs.len() / group_len;
    let (mut means, mut sq_devs) = (vec![0.0; groups], vec![0.0; groups]);
    simd::group_moments(xs, group_len, &mut means, &mut sq_devs);
    let eps = eps as f64;
    move |j| {
        let var = (sq_devs[j] / group_len as f64).max(0.0);
        let inv_std = 1.0 / (var + eps).sqrt();
        (means[j] as f32, inv_std as f32)
    }
}

/// Independent add chains stepped together per pass: a dependent add has
/// a latency of several cycles and the core retires two a cycle, so one
/// chain at a time leaves the adders idle seven cycles in eight.
const CHAINS: usize = 8;

/// Per consecutive run of `len` values: `(Σ g, Σ g·x)`, each one `f32`
/// chain left to right from `+0.0`, the chains of [`CHAINS`]` / 2` runs
/// advancing in the same loop.
fn channel_sums(gs: &[f32], xs: &[f32], len: usize) -> (Vec<f32>, Vec<f32>) {
    const W: usize = CHAINS / 2;
    let runs = gs.len() / len;
    let (mut sum_g, mut sum_gx) = (vec![0.0f32; runs], vec![0.0f32; runs]);
    let mut j = 0;
    while j + W <= runs {
        let g: [&[f32]; W] = std::array::from_fn(|l| &gs[(j + l) * len..][..len]);
        let x: [&[f32]; W] = std::array::from_fn(|l| &xs[(j + l) * len..][..len]);
        let (mut sb, mut sg) = ([0.0f32; W], [0.0f32; W]);
        for i in 0..len {
            for l in 0..W {
                sg[l] += g[l][i] * x[l][i];
                sb[l] += g[l][i];
            }
        }
        sum_g[j..j + W].copy_from_slice(&sb);
        sum_gx[j..j + W].copy_from_slice(&sg);
        j += W;
    }
    for j in j..runs {
        for (&gv, &xv) in gs[j * len..][..len].iter().zip(&xs[j * len..][..len]) {
            sum_gx[j] += gv * xv;
            sum_g[j] += gv;
        }
    }
    (sum_g, sum_gx)
}

impl Layer for GroupNorm {
    fn name(&self) -> String {
        format!("groupnorm(g={},c={})", self.groups, self.channels)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let mut x = stack.pop().expect("groupnorm: empty stack");
        if !self.stash.training() {
            stack.push(self.eval_forward::<false>(x));
            return;
        }
        let (group_len, hw) = self.geometry(&x);
        let stats = group_stats(x.as_slice(), group_len, self.eps);
        let mut xh = Vec::with_capacity(x.len());
        let mut inv_stds = Vec::with_capacity(x.len() / group_len);
        // `x̂` into the stash, `y` over the popped `x` in place.
        for (j, group) in x.as_mut_slice().chunks_exact_mut(group_len).enumerate() {
            let (mean, inv_std) = stats(j);
            inv_stds.push(inv_std);
            for (chan, (&gam, &bet)) in group.chunks_exact_mut(hw).zip(self.affine(j)) {
                let at = xh.len();
                xh.extend(chan.iter().map(|&v| (v - mean) * inv_std));
                for (v, &xn) in chan.iter_mut().zip(&xh[at..]) {
                    *v = gam * xn + bet;
                }
            }
        }
        let xhat = Tensor::from_vec(xh, x.shape()).expect("groupnorm: one value per input");
        self.stash.push_back((xhat, inv_stds));
        stack.push(x);
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        let mut g = grad_stack.pop().expect("groupnorm: empty grad stack");
        let (xhat, inv_stds) = self.stash.pop_front().expect("groupnorm: no stash");
        let [_, c, h, w] = [g.shape()[0], g.shape()[1], g.shape()[2], g.shape()[3]];
        let cg = c / self.groups;
        let hw = h * w;
        let group_len = cg * hw;
        let gs = g.as_slice();
        let xh = xhat.as_slice();
        let gam = self.gamma.as_slice();
        // Input gradient per group:
        // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat ⊙ xhat))
        // The per-channel sums Σg and Σg·xhat serve double duty: they are the
        // parameter gradients, and weighted by gamma they give the two group
        // means above — so one pass over the data replaces three.
        let (sum_g, sum_gx) = channel_sums(gs, xh, hw);
        // The input gradient over the popped `g` in place, each element
        // read once before it is rewritten.
        let gs = g.as_mut_slice();
        let gg = self.grad_gamma.as_mut_slice();
        let gb = self.grad_beta.as_mut_slice();
        for (j, &inv_std) in inv_stds.iter().enumerate() {
            let first = j % self.groups * cg;
            let mut sum_dxhat = 0.0f64;
            let mut sum_dxhat_xhat = 0.0f64;
            for ci in 0..cg {
                let (sg, sb) = (sum_gx[j * cg + ci], sum_g[j * cg + ci]);
                gg[first + ci] += sg;
                gb[first + ci] += sb;
                sum_dxhat += (gam[first + ci] * sb) as f64;
                sum_dxhat_xhat += (gam[first + ci] * sg) as f64;
            }
            let mean_dxhat = (sum_dxhat / group_len as f64) as f32;
            let mean_dxhat_xhat = (sum_dxhat_xhat / group_len as f64) as f32;
            let shift = inv_std * mean_dxhat;
            let coeff = inv_std * mean_dxhat_xhat;
            for ci in 0..cg {
                let scale = inv_std * gam[first + ci];
                let at = (j * cg + ci) * hw;
                for (gv, &xv) in gs[at..at + hw].iter_mut().zip(&xh[at..at + hw]) {
                    *gv = scale * *gv - shift - coeff * xv;
                }
            }
        }
        grad_stack.push(g);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::grad_views;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn groupnorm_output_is_normalized_per_group() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = pbp_tensor::normal(&[2, 4, 3, 3], 5.0, 3.0, &mut rng);
        let mut gn = GroupNorm::new(2, 4);
        let mut s = vec![x];
        gn.forward(&mut s);
        let y = s.pop().unwrap();
        // With gamma=1, beta=0 each (n, group) block has mean≈0 var≈1.
        let group_len = 2 * 9;
        for ni in 0..2 {
            for g in 0..2 {
                let start = ni * 4 * 9 + g * group_len;
                let seg = &y.as_slice()[start..start + group_len];
                let mean: f32 = seg.iter().sum::<f32>() / group_len as f32;
                let var: f32 =
                    seg.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / group_len as f32;
                assert!(mean.abs() < 1e-4, "mean {mean}");
                assert!((var - 1.0).abs() < 1e-2, "var {var}");
            }
        }
    }

    #[test]
    fn groupnorm_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = pbp_tensor::normal(&[1, 4, 2, 2], 0.0, 1.0, &mut rng);
        let mut gn = GroupNorm::new(2, 4);
        // Use a non-trivial scalar loss: sum(y * k) with varying k.
        let k = pbp_tensor::normal(&[1, 4, 2, 2], 0.0, 1.0, &mut rng);
        let run = |gn: &mut GroupNorm, x: &Tensor| -> f32 {
            let mut s = vec![x.clone()];
            gn.forward(&mut s);
            let y = s.pop().unwrap();
            gn.clear_stash();
            y.as_slice()
                .iter()
                .zip(k.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let mut s = vec![x.clone()];
        gn.forward(&mut s);
        let _ = s.pop();
        let mut g = vec![k.clone()];
        gn.backward_input(&mut g);
        let gx = g.pop().unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (run(&mut gn, &xp) - run(&mut gn, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 3e-2,
                "input grad {idx}: {num} vs {}",
                gx.as_slice()[idx]
            );
        }
        // gamma / beta gradients.
        let gg = grad_views(&mut gn)[0].dense().into_owned();
        let gb = grad_views(&mut gn)[1].dense().into_owned();
        for ch in 0..4 {
            let orig = gn.gamma.as_slice()[ch];
            gn.gamma.as_mut_slice()[ch] = orig + eps;
            let lp = run(&mut gn, &x);
            gn.gamma.as_mut_slice()[ch] = orig - eps;
            let lm = run(&mut gn, &x);
            gn.gamma.as_mut_slice()[ch] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gg.as_slice()[ch]).abs() < 3e-2, "gamma grad {ch}");
            let origb = gn.beta.as_slice()[ch];
            gn.beta.as_mut_slice()[ch] = origb + eps;
            let lp = run(&mut gn, &x);
            gn.beta.as_mut_slice()[ch] = origb - eps;
            let lm = run(&mut gn, &x);
            gn.beta.as_mut_slice()[ch] = origb;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gb.as_slice()[ch]).abs() < 3e-2, "beta grad {ch}");
        }
    }

    /// `GroupNorm::forward` as it was before the chains were stepped
    /// together: each group's mean and variance one serial `f64` chain.
    fn forward_single_chain(gn: &GroupNorm, x: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let cg = c / gn.groups;
        let group_len = cg * h * w;
        let hw = h * w;
        let xs = x.as_slice();
        let mut xhat = Tensor::zeros(x.shape());
        let mut y = Tensor::zeros(x.shape());
        let mut inv_stds = Vec::new();
        let xh = xhat.as_mut_slice();
        let ys = y.as_mut_slice();
        for ni in 0..n {
            for g in 0..gn.groups {
                let start = ni * c * hw + g * group_len;
                let seg = &xs[start..start + group_len];
                let mean = seg.iter().map(|&v| v as f64).sum::<f64>() / group_len as f64;
                let var = (seg
                    .iter()
                    .map(|&v| {
                        let d = v as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / group_len as f64)
                    .max(0.0);
                let inv_std = 1.0 / (var + gn.eps as f64).sqrt();
                inv_stds.push(inv_std as f32);
                let (mean, inv_std) = (mean as f32, inv_std as f32);
                for ci in 0..cg {
                    let ch = g * cg + ci;
                    let (gam, bet) = (gn.gamma.as_slice()[ch], gn.beta.as_slice()[ch]);
                    let cbase = start + ci * hw;
                    for p in 0..hw {
                        let xn = (xs[cbase + p] - mean) * inv_std;
                        xh[cbase + p] = xn;
                        ys[cbase + p] = gam * xn + bet;
                    }
                }
            }
        }
        (y, xhat, inv_stds)
    }

    /// `GroupNorm::backward` as it was: one `Σg` / `Σg·x̂` chain pair per
    /// channel at a time. Returns `(gx, grad_gamma, grad_beta)`.
    fn backward_single_chain(
        gn: &GroupNorm,
        g: &Tensor,
        xhat: &Tensor,
        inv_stds: &[f32],
    ) -> (Tensor, Vec<f32>, Vec<f32>) {
        let [n, c, h, w] = [g.shape()[0], g.shape()[1], g.shape()[2], g.shape()[3]];
        let cg = c / gn.groups;
        let group_len = cg * h * w;
        let hw = h * w;
        let (gs, xh, gam) = (g.as_slice(), xhat.as_slice(), gn.gamma.as_slice());
        let mut gx = Tensor::zeros(g.shape());
        let gxs = gx.as_mut_slice();
        let (mut gg, mut gb) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ni in 0..n {
            for grp in 0..gn.groups {
                let start = ni * c * hw + grp * group_len;
                let inv_std = inv_stds[ni * gn.groups + grp];
                let mut sum_dxhat = 0.0f64;
                let mut sum_dxhat_xhat = 0.0f64;
                for ci in 0..cg {
                    let ch = grp * cg + ci;
                    let cbase = start + ci * hw;
                    let mut sg = 0.0f32;
                    let mut sb = 0.0f32;
                    for p in 0..hw {
                        sg += gs[cbase + p] * xh[cbase + p];
                        sb += gs[cbase + p];
                    }
                    gg[ch] += sg;
                    gb[ch] += sb;
                    sum_dxhat += (gam[ch] * sb) as f64;
                    sum_dxhat_xhat += (gam[ch] * sg) as f64;
                }
                let mean_dxhat = (sum_dxhat / group_len as f64) as f32;
                let mean_dxhat_xhat = (sum_dxhat_xhat / group_len as f64) as f32;
                for ci in 0..cg {
                    let ch = grp * cg + ci;
                    let scale = inv_std * gam[ch];
                    let shift = inv_std * mean_dxhat;
                    let coeff = inv_std * mean_dxhat_xhat;
                    let cbase = start + ci * hw;
                    for p in 0..hw {
                        gxs[cbase + p] = scale * gs[cbase + p] - shift - coeff * xh[cbase + p];
                    }
                }
            }
        }
        (gx, gg, gb)
    }

    #[test]
    fn groupnorm_stepped_chains_match_the_single_chain_code_bitwise() {
        fn bits(t: &[f32]) -> Vec<u32> {
            t.iter().map(|v| v.to_bits()).collect()
        }
        // Runs of groups / channels on both sides of the block sizes: 16
        // groups (two whole blocks), 3 and 5 (tail only), 9 and 10 (a
        // block plus a tail; 20 channels = five blocks of four).
        for &(n, c, groups, h, w) in &[
            (2usize, 16usize, 8usize, 5usize, 3usize),
            (1, 6, 3, 4, 4),
            (1, 10, 5, 3, 7),
            (3, 6, 3, 2, 5),
            (1, 20, 10, 6, 6),
        ] {
            let mut rng = StdRng::seed_from_u64((n * 100 + c) as u64);
            let mut gn = GroupNorm::new(groups, c);
            gn.gamma = pbp_tensor::normal(&[c], 1.0, 0.5, &mut rng);
            gn.beta = pbp_tensor::normal(&[c], 0.0, 0.5, &mut rng);
            // An offset makes the mean chains round at every step.
            let x = pbp_tensor::normal(&[n, c, h, w], 3.0, 2.0, &mut rng);
            let g = pbp_tensor::normal(&[n, c, h, w], 0.0, 1.0, &mut rng);
            let (want_y, want_xhat, want_inv) = forward_single_chain(&gn, &x);
            let (want_gx, want_gg, want_gb) = backward_single_chain(&gn, &g, &want_xhat, &want_inv);

            let mut stack = vec![x];
            gn.forward(&mut stack);
            let ctx = format!("n={n} c={c} groups={groups} {h}x{w}");
            assert_eq!(
                bits(stack[0].as_slice()),
                bits(want_y.as_slice()),
                "{ctx}: y"
            );
            let (xhat, inv) = gn.stash.back().expect("stashed");
            assert_eq!(
                bits(xhat.as_slice()),
                bits(want_xhat.as_slice()),
                "{ctx}: xhat"
            );
            assert_eq!(bits(inv), bits(&want_inv), "{ctx}: inv_std");
            let mut gstack = vec![g];
            gn.backward_input(&mut gstack);
            assert_eq!(
                bits(gstack[0].as_slice()),
                bits(want_gx.as_slice()),
                "{ctx}: gx"
            );
            assert_eq!(
                bits(gn.grad_gamma.as_slice()),
                bits(&want_gg),
                "{ctx}: dgamma"
            );
            assert_eq!(
                bits(gn.grad_beta.as_slice()),
                bits(&want_gb),
                "{ctx}: dbeta"
            );
        }
    }

    #[test]
    fn groupnorm_works_at_batch_size_one() {
        let x = pbp_tensor::normal(&[1, 8, 4, 4], 0.0, 1.0, &mut StdRng::seed_from_u64(1));
        let mut gn = GroupNorm::with_group_size_two(8);
        assert_eq!(gn.groups(), 4);
        let mut s = vec![x];
        gn.forward(&mut s);
        assert!(s[0].all_finite());
    }

    #[test]
    fn groupnorm_rejects_indivisible_channels() {
        let result = std::panic::catch_unwind(|| GroupNorm::new(3, 4));
        assert!(result.is_err());
    }
}
