//! Normalization layers.
//!
//! The paper trains at a per-worker batch size of one, which rules out batch
//! normalization; it substitutes group normalization (Wu & He, 2018).
//! [`BatchNorm2d`] is still provided for the delayed-gradient simulation
//! experiments that run at batch size > 1 and for the discussion-section
//! comparison (BN appears to mask delay effects relative to GN).

use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::{GradView, Tensor};

/// Per-sample stash: normalized activations plus per-group inverse stds.
type NormStash = (Tensor, Vec<f32>);

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
    stash: Stash<NormStash>,
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
}

/// Independent add chains stepped together per pass: a dependent add has
/// a latency of several cycles and the core retires two a cycle, so one
/// chain at a time leaves the adders idle seven cycles in eight.
const CHAINS: usize = 8;

/// `Σ f(j, v)` over each consecutive run `j` of `len` values of `xs`: one
/// `f64` chain per run, left to right from the `-0.0` that `Iterator::sum`
/// starts at — so bit for bit `run.iter().map(f).sum::<f64>()` — with
/// [`CHAINS`] runs' chains advancing in the same loop.
fn run_sums(xs: &[f32], len: usize, f: impl Fn(usize, f32) -> f64) -> Vec<f64> {
    let mut sums = vec![-0.0f64; xs.len() / len];
    let mut j = 0;
    while j + CHAINS <= sums.len() {
        let runs: [&[f32]; CHAINS] = std::array::from_fn(|l| &xs[(j + l) * len..][..len]);
        let mut acc = [-0.0f64; CHAINS];
        for i in 0..len {
            for l in 0..CHAINS {
                acc[l] += f(j + l, runs[l][i]);
            }
        }
        sums[j..j + CHAINS].copy_from_slice(&acc);
        j += CHAINS;
    }
    for (j, sum) in sums.iter_mut().enumerate().skip(j) {
        for &v in &xs[j * len..][..len] {
            *sum += f(j, v);
        }
    }
    sums
}

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
        assert_eq!(x.rank(), 4, "groupnorm expects NCHW");
        let [_, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        assert_eq!(c, self.channels, "groupnorm channel mismatch");
        let cg = c / self.groups;
        let hw = h * w;
        let group_len = cg * hw;
        let xs = x.as_slice();
        // The groups of all samples are consecutive runs of `group_len`.
        let mut means = run_sums(xs, group_len, |_, v| v as f64);
        means.iter_mut().for_each(|m| *m /= group_len as f64);
        let vars = run_sums(xs, group_len, |j, v| {
            let d = v as f64 - means[j];
            d * d
        });
        let eps = self.eps as f64;
        // Group `j`'s mean and inverse std, as the normalization reads them.
        let stats = |j: usize| {
            let var = (vars[j] / group_len as f64).max(0.0);
            let inv_std = 1.0 / (var + eps).sqrt();
            (means[j] as f32, inv_std as f32)
        };
        let (groups, gamma, beta) = (self.groups, self.gamma.as_slice(), self.beta.as_slice());
        // `(γ, β)` of each channel of group `j`.
        let affine = |j: usize| {
            let first = j % groups * cg;
            gamma[first..][..cg].iter().zip(&beta[first..][..cg])
        };
        if !self.stash.training() {
            // The training branch's two expressions composed, per element.
            for (j, group) in x.as_mut_slice().chunks_exact_mut(group_len).enumerate() {
                let (mean, inv_std) = stats(j);
                for (chan, (&gam, &bet)) in group.chunks_exact_mut(hw).zip(affine(j)) {
                    for v in chan {
                        *v = gam * ((*v - mean) * inv_std) + bet;
                    }
                }
            }
            stack.push(x);
            return;
        }
        let mut xh = Vec::with_capacity(xs.len());
        let mut ys = Vec::with_capacity(xs.len());
        let mut inv_stds = Vec::with_capacity(means.len());
        for (j, group) in xs.chunks_exact(group_len).enumerate() {
            let (mean, inv_std) = stats(j);
            inv_stds.push(inv_std);
            for (chan, (&gam, &bet)) in group.chunks_exact(hw).zip(affine(j)) {
                let at = xh.len();
                xh.extend(chan.iter().map(|&v| (v - mean) * inv_std));
                ys.extend(xh[at..].iter().map(|&xn| gam * xn + bet));
            }
        }
        let xhat = Tensor::from_vec(xh, x.shape()).expect("groupnorm: one value per input");
        let y = Tensor::from_vec(ys, x.shape()).expect("groupnorm: one value per input");
        self.stash.push_back((xhat, inv_stds));
        stack.push(y);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("groupnorm: empty grad stack");
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
        let mut gxs = Vec::with_capacity(gs.len());
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
                gxs.extend(
                    gs[at..at + hw]
                        .iter()
                        .zip(&xh[at..at + hw])
                        .map(|(&gv, &xv)| scale * gv - shift - coeff * xv),
                );
            }
        }
        let gx = Tensor::from_vec(gxs, g.shape()).expect("groupnorm: one value per gradient");
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

/// Batch normalization over `[N, C, H, W]` (statistics over N, H, W per
/// channel). Requires batch parallelism; provided for reference experiments.
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Also the mode: batch statistics when training, running ones in eval.
    stash: Stash<NormStash>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with default momentum 0.1.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            stash: Stash::default(),
        }
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> String {
        format!("batchnorm(c={})", self.channels)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("batchnorm: empty stack");
        assert_eq!(x.rank(), 4, "batchnorm expects NCHW");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let m = n * h * w;
        let xs = x.as_slice();
        let mut xhat = Tensor::zeros(x.shape());
        let mut y = Tensor::zeros(x.shape());
        let mut inv_stds = vec![0.0f32; c];
        {
            let xh = xhat.as_mut_slice();
            let ys = y.as_mut_slice();
            for ch in 0..c {
                let (mean, var) = if self.stash.training() {
                    let mut mean = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ch) * h * w;
                        for p in 0..h * w {
                            mean += xs[base + p] as f64;
                        }
                    }
                    mean /= m as f64;
                    let mut var = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ch) * h * w;
                        for p in 0..h * w {
                            let d = xs[base + p] as f64 - mean;
                            var += d * d;
                        }
                    }
                    var /= m as f64;
                    self.running_mean[ch] =
                        (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean as f32;
                    self.running_var[ch] =
                        (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var as f32;
                    (mean, var)
                } else {
                    (self.running_mean[ch] as f64, self.running_var[ch] as f64)
                };
                let inv_std = 1.0 / (var + self.eps as f64).sqrt();
                inv_stds[ch] = inv_std as f32;
                let (gam, bet) = (self.gamma.as_slice()[ch], self.beta.as_slice()[ch]);
                for ni in 0..n {
                    let base = (ni * c + ch) * h * w;
                    for p in 0..h * w {
                        let xn = ((xs[base + p] as f64 - mean) * inv_std) as f32;
                        xh[base + p] = xn;
                        ys[base + p] = gam * xn + bet;
                    }
                }
            }
        }
        self.stash.push_back((xhat, inv_stds));
        stack.push(y);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("batchnorm: empty grad stack");
        let (xhat, inv_stds) = self.stash.pop_front().expect("batchnorm: no stash");
        let [n, c, h, w] = [g.shape()[0], g.shape()[1], g.shape()[2], g.shape()[3]];
        let m = n * h * w;
        let gs = g.as_slice();
        let xh = xhat.as_slice();
        let mut gx = Tensor::zeros(g.shape());
        {
            let gxs = gx.as_mut_slice();
            let gg = self.grad_gamma.as_mut_slice();
            let gb = self.grad_beta.as_mut_slice();
            for ch in 0..c {
                let gam = self.gamma.as_slice()[ch];
                let mut sum_dy = 0.0f64;
                let mut sum_dy_xhat = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ch) * h * w;
                    for p in 0..h * w {
                        sum_dy += gs[base + p] as f64;
                        sum_dy_xhat += gs[base + p] as f64 * xh[base + p] as f64;
                    }
                }
                gg[ch] += sum_dy_xhat as f32;
                gb[ch] += sum_dy as f32;
                let mean_dxhat = gam as f64 * sum_dy / m as f64;
                let mean_dxhat_xhat = gam as f64 * sum_dy_xhat / m as f64;
                for ni in 0..n {
                    let base = (ni * c + ch) * h * w;
                    for p in 0..h * w {
                        let dxhat = gs[base + p] as f64 * gam as f64;
                        gxs[base + p] = (inv_stds[ch] as f64
                            * (dxhat - mean_dxhat - xh[base + p] as f64 * mean_dxhat_xhat))
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

    fn state_bytes(&self) -> Option<Vec<u8>> {
        let mut w = pbp_snapshot::StateWriter::new();
        w.put_f32_slice(&self.running_mean);
        w.put_f32_slice(&self.running_var);
        Some(w.into_bytes())
    }

    fn load_state_bytes(&mut self, bytes: &[u8]) -> Result<(), pbp_snapshot::SnapshotError> {
        let mut r = pbp_snapshot::StateReader::new(bytes);
        let mean = r.take_f32_vec()?;
        let var = r.take_f32_vec()?;
        r.finish()?;
        if mean.len() != self.channels || var.len() != self.channels {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "batchnorm state for {} channels, layer has {}",
                mean.len(),
                self.channels
            )));
        }
        self.running_mean = mean;
        self.running_var = var;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        gn.backward(&mut g);
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
        let gg = gn.grads()[0].dense().into_owned();
        let gb = gn.grads()[1].dense().into_owned();
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
            gn.backward(&mut gstack);
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
    fn batchnorm_train_normalizes_per_channel() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = pbp_tensor::normal(&[8, 3, 4, 4], 2.0, 2.0, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        let mut s = vec![x];
        bn.forward(&mut s);
        let y = s.pop().unwrap();
        for ch in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..8 {
                let base = (ni * 3 + ch) * 16;
                vals.extend_from_slice(&y.as_slice()[base..base + 16]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut bn = BatchNorm2d::new(2);
        // Train on several batches so running stats move toward N(3, 1).
        for _ in 0..200 {
            let x = pbp_tensor::normal(&[16, 2, 2, 2], 3.0, 1.0, &mut rng);
            let mut s = vec![x];
            bn.forward(&mut s);
            bn.clear_stash();
        }
        bn.set_training(false);
        let x = Tensor::full(&[1, 2, 2, 2], 3.0);
        let mut s = vec![x];
        bn.forward(&mut s);
        // Input at the running mean should map to roughly zero.
        assert!(s[0].as_slice().iter().all(|v| v.abs() < 0.2));
    }

    #[test]
    fn groupnorm_rejects_indivisible_channels() {
        let result = std::panic::catch_unwind(|| GroupNorm::new(3, 4));
        assert!(result.is_err());
    }
}
