//! SGD with heavy-ball momentum, and the one sweep every update in the
//! project is.

use crate::Hyperparams;
use pbp_snapshot::{SnapshotError, Snapshottable, StateReader, StateWriter};
use pbp_tensor::ops::simd::{sgdm_sweep, sgdm_sweep_pair, SweepScalars};
use pbp_tensor::{GradView, Tensor};

/// The forward weight version a sweep writes beside the update.
pub(crate) use pbp_tensor::ops::simd::Predict;

/// Velocity state for SGD with momentum over a list of parameter tensors
/// (Eqs. 7-8 of the paper):
///
/// ```text
/// v ← m·v + g
/// w ← w − η·v
/// ```
#[derive(Debug, Clone)]
pub struct SgdmState {
    velocity: Vec<Tensor>,
}

/// The scalars of one [`SgdmState::sweep`]:
/// `v ← m·v + s·g; w ← w − η(a·v + b·g)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sweep {
    pub hp: Hyperparams,
    /// Spike-compensation coefficients (Eqs. 10-12); `a = 1, b = 0` is
    /// plain SGDM.
    pub a: f32,
    pub b: f32,
    /// Gradient multiplier (gradient shrinking; 1 otherwise).
    pub grad_scale: f32,
}

impl Sweep {
    fn scalars(self) -> SweepScalars {
        SweepScalars {
            grad_scale: self.grad_scale,
            momentum: self.hp.momentum,
            lr: self.hp.lr,
            a: self.a,
            b: self.b,
        }
    }
}

impl SgdmState {
    /// Creates zeroed velocity matching the given parameter shapes.
    pub fn new(params: &[&Tensor]) -> Self {
        SgdmState {
            velocity: params.iter().map(|p| Tensor::zeros(p.shape())).collect(),
        }
    }

    /// Borrows the velocity tensors.
    pub fn velocity(&self) -> &[Tensor] {
        &self.velocity
    }

    /// Standard heavy-ball update: `v ← m·v + g; w ← w − η·v`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor lists disagree with the state layout.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[GradView<'_>], hp: Hyperparams) {
        self.step_with_spike(params, grads, hp, 1.0, 0.0);
    }

    /// Generalized spike-compensated update (Eqs. 10-12):
    ///
    /// ```text
    /// v ← m·v + g
    /// w ← w − η·(a·v + b·g)
    /// ```
    ///
    /// `a = 1, b = 0` recovers plain SGDM.
    ///
    /// # Panics
    ///
    /// Panics if the tensor lists disagree with the state layout.
    pub fn step_with_spike(
        &mut self,
        params: &mut [&mut Tensor],
        grads: &[GradView<'_>],
        hp: Hyperparams,
        a: f32,
        b: f32,
    ) {
        let k = Sweep {
            hp,
            a,
            b,
            grad_scale: 1.0,
        };
        self.sweep(params, grads, k, None, None, &[]);
    }

    /// The update every optimizer entry point is: for each parameter not
    /// marked in `taken` (a prefix of counts of updates already taken;
    /// missing ones read 0), one [`sgdm_sweep`] over its gradient (dense,
    /// or factored and read row by row), velocity and weights that also
    /// writes, when asked, the pre-update weights into `prev` and the
    /// forward weight version `predict` describes into `next`.
    ///
    /// # Panics
    ///
    /// Panics if a tensor list disagrees with the state layout.
    pub(crate) fn sweep(
        &mut self,
        params: &mut [&mut Tensor],
        grads: &[GradView<'_>],
        k: Sweep,
        mut prev: Option<&mut [Tensor]>,
        mut next: Option<(&mut [Tensor], Predict)>,
        taken: &[u8],
    ) {
        let n = self.velocity.len();
        assert_eq!(params.len(), n, "param/velocity layout mismatch");
        assert_eq!(grads.len(), n, "grad/velocity layout mismatch");
        for (t, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            if taken.get(t).is_some_and(|&n| n > 0) {
                continue;
            }
            sgdm_sweep(
                k.scalars(),
                *g,
                self.velocity[t].as_mut_slice(),
                p.as_mut_slice(),
                prev.as_mut().map(|p| p[t].as_mut_slice()),
                next.as_mut().map(|(n, f)| (n[t].as_mut_slice(), *f)),
                None,
            );
        }
    }

    /// Parameter `t`'s next `rows.len()` updates — one ([`sgdm_sweep`]) or
    /// two ([`sgdm_sweep_pair`]) — in one pass over its velocity and
    /// weights `w`: update `u` under the scalars of `k[u]` and the factored
    /// gradient `rows[u] = (δ, x)`, writing its forward version, in the
    /// form `k[u]` names, into `next[u][t]` and `δ·w` of its pre-update
    /// weights into the zeroed `gx[u]`; `prev`, when given, ends as the last
    /// update's pre-update weights. Bit for bit one sweep per update.
    ///
    /// # Panics
    ///
    /// Panics unless there are one or two updates, each with its scalars, a
    /// version and a `gx`, or if a tensor disagrees with velocity `t`'s
    /// shape or the gradients with each other.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_param(
        &mut self,
        t: usize,
        w: &mut Tensor,
        rows: &[(&[f32], &[f32])],
        k: &[(Sweep, Predict)],
        prev: Option<&mut Tensor>,
        next: &mut [Vec<Tensor>],
        gx: &mut [&mut [f32]],
    ) {
        let (v, w) = (self.velocity[t].as_mut_slice(), w.as_mut_slice());
        let prev = prev.map(Tensor::as_mut_slice);
        match (rows, k, next, gx) {
            (&[(delta, x)], &[(k, f)], [next], [gx]) => {
                let (g, next) = (GradView::Outer { delta, x }, next[t].as_mut_slice());
                sgdm_sweep(k.scalars(), g, v, w, prev, Some((next, f)), Some(gx));
            }
            (&[r0, r1], &[(k0, f0), (k1, f1)], [n0, n1], [g0, g1]) => {
                let next = [n0[t].as_mut_slice(), n1[t].as_mut_slice()];
                let k = [k0.scalars(), k1.scalars()];
                let (next, gx) = (Some((next, [f0, f1])), Some([&mut **g0, &mut **g1]));
                sgdm_sweep_pair(k, [r0, r1], v, w, prev, next, gx);
            }
            _ => panic!("sweep_param: one or two updates, each with scalars, a version and a gx"),
        }
    }

    /// Resets the velocity to zero.
    pub fn reset(&mut self) {
        for v in &mut self.velocity {
            v.fill(0.0);
        }
    }
}

impl Snapshottable for SgdmState {
    fn write_state(&self, w: &mut StateWriter) {
        w.put_tensor_list(&self.velocity);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let mut dst: Vec<&mut Tensor> = self.velocity.iter_mut().collect();
        r.take_tensors_into(&mut dst, "sgdm velocity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Tensor, Tensor) {
        (
            Tensor::from_slice(&[1.0, 2.0]),
            Tensor::from_slice(&[0.5, -0.5]),
        )
    }

    #[test]
    fn single_step_matches_hand_computation() {
        let (mut w, g) = setup();
        let mut state = SgdmState::new(&[&w]);
        let hp = Hyperparams::new(0.1, 0.9);
        state.step(&mut [&mut w], &[(&g).into()], hp);
        // v = g; w -= 0.1 * g
        assert!((w.as_slice()[0] - (1.0 - 0.05)).abs() < 1e-6);
        assert!((w.as_slice()[1] - (2.0 + 0.05)).abs() < 1e-6);
        // Second step accumulates momentum: v = 0.9 g + g = 1.9 g.
        state.step(&mut [&mut w], &[(&g).into()], hp);
        assert!((w.as_slice()[0] - (0.95 - 0.1 * 1.9 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn spike_with_identity_coeffs_equals_plain_sgdm() {
        let (w0, g) = setup();
        let hp = Hyperparams::new(0.05, 0.8);
        let mut w1 = w0.clone();
        let mut s1 = SgdmState::new(&[&w1]);
        let mut w2 = w0.clone();
        let mut s2 = SgdmState::new(&[&w2]);
        for _ in 0..5 {
            s1.step(&mut [&mut w1], &[(&g).into()], hp);
            s2.step_with_spike(&mut [&mut w2], &[(&g).into()], hp, 1.0, 0.0);
        }
        assert_eq!(w1.as_slice(), w2.as_slice());
    }

    #[test]
    fn reset_zeroes_velocity() {
        let (mut w, g) = setup();
        let mut state = SgdmState::new(&[&w]);
        state.step(&mut [&mut w], &[(&g).into()], Hyperparams::new(0.1, 0.9));
        assert!(state.velocity()[0].norm() > 0.0);
        state.reset();
        assert_eq!(state.velocity()[0].norm(), 0.0);
    }
}
