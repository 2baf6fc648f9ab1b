//! Per-stage optimizer combining SGDM, spike compensation and weight
//! prediction.

use crate::sgdm::{Predict, Sweep};
use crate::{Hyperparams, LwpForm, SgdmState, SpikeCoeffs, StageConfig};
use pbp_snapshot::{SnapshotError, Snapshottable, StateReader, StateWriter};
use pbp_tensor::ops::{axpy, lerp_into};
use pbp_tensor::{GradView, Tensor};

/// Optimizer state for one pipeline stage.
///
/// The pipeline engines call three operations per stage:
///
/// 1. [`StageOptimizer::step_into`] — the (possibly spike-compensated)
///    update with the gradient that just arrived, writing the forward
///    weight version the update implies (Linear Weight Prediction /
///    SpecTrain, or the updated weights themselves) into a buffer the
///    caller recycles; [`StageOptimizer::step`] is the same sweep with
///    that output absent, and [`StageOptimizer::step_outer_into`] takes one
///    factored parameter's share of it — or of it and the next — ahead of
///    the rest, beside the layer's input gradient;
/// 2. [`StageOptimizer::forward_weights`] — the same forward version,
///    allocated, for a microbatch that closes no update; `None` when no
///    prediction is configured;
/// 3. [`StageOptimizer::predict_into`] — SpecTrain's backward
///    re-prediction, into a buffer the caller keeps.
#[derive(Debug)]
pub struct StageOptimizer {
    state: SgdmState,
    /// Previous weight snapshot, kept only when the weight-difference LWP
    /// form needs it.
    prev_weights: Option<Vec<Tensor>>,
    config: StageConfig,
    hp: Hyperparams,
    /// How many of the coming updates [`StageOptimizer::step_outer_into`]
    /// already applied to each parameter, by position; each update that
    /// follows sweeps the parameters at zero and counts the others down.
    taken: Vec<u8>,
}

impl StageOptimizer {
    /// Creates the optimizer for a stage's parameter list.
    pub fn new(params: &[&Tensor], config: StageConfig, hp: Hyperparams) -> Self {
        let needs_prev = config.lwp_form == LwpForm::WeightDiff
            && (config.fwd_horizon != 0.0 || config.bwd_horizon != 0.0);
        StageOptimizer {
            state: SgdmState::new(params),
            prev_weights: needs_prev.then(|| params.iter().map(|p| (*p).clone()).collect()),
            config,
            hp,
            taken: vec![0; params.len()],
        }
    }

    /// Updates the hyperparameters (learning-rate schedules).
    pub fn set_hyperparams(&mut self, hp: Hyperparams) {
        self.hp = hp;
    }

    /// The stage configuration.
    pub fn config(&self) -> &StageConfig {
        &self.config
    }

    /// The velocity tensors.
    pub fn velocity(&self) -> &[Tensor] {
        self.state.velocity()
    }

    /// Predicts weights `horizon` update steps ahead of `params` using the
    /// configured LWP form.
    pub fn predict(&self, params: &[&Tensor], horizon: f32) -> Vec<Tensor> {
        let mut out: Vec<Tensor> = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        self.predict_into(params, horizon, &mut out);
        out
    }

    /// Forward-pass weights: the configured forward prediction, or `None`
    /// when no prediction applies (the engine then uses the stage weights
    /// as-is).
    pub fn forward_weights(&self, params: &[&Tensor]) -> Option<Vec<Tensor>> {
        (self.config.fwd_horizon != 0.0).then(|| self.predict(params, self.config.fwd_horizon))
    }

    /// [`StageOptimizer::predict`] into `out`, tensors of the parameters'
    /// shapes, with no allocation: the velocity form copies `w` and adds
    /// `−η·T·v` (Eq. 18), the weight-difference form extrapolates from
    /// the previous weights (Eq. 19), and horizon zero is a copy.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not match `params` in count or lengths.
    pub fn predict_into(&self, params: &[&Tensor], horizon: f32, out: &mut [Tensor]) {
        assert_eq!(params.len(), out.len(), "params/out mismatch");
        for (t, (w, out)) in params.iter().zip(out).enumerate() {
            match self.config.lwp_form {
                LwpForm::WeightDiff if horizon != 0.0 => {
                    let prev = self
                        .prev_weights
                        .as_ref()
                        .expect("weight-difference form requires prev_weights");
                    lerp_into(w, &prev[t], horizon, out);
                }
                _ => {
                    out.as_mut_slice().copy_from_slice(w.as_slice());
                    if horizon != 0.0 {
                        axpy(-self.hp.lr * horizon, &self.state.velocity()[t], out);
                    }
                }
            }
        }
    }

    /// Applies one update with the arrived gradient: gradient shrinking if
    /// configured, then `v ← m·v + g` and `w ← w − η(a·v + b·g)` with the
    /// SCD coefficients for the configured spike delay (identity when 0).
    ///
    /// # Panics
    ///
    /// Panics if the tensor layouts disagree with construction.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[GradView<'_>]) {
        self.sweep(params, grads, None);
    }

    /// [`StageOptimizer::step`], additionally overwriting `next` with the
    /// forward weight version a pipeline enqueues after this update —
    /// bit for bit what [`StageOptimizer::forward_weights`] (or, with no
    /// prediction configured, a copy of the updated weights) would return
    /// if called right after, computed in the same pass over the weights.
    ///
    /// # Panics
    ///
    /// Panics if the tensor layouts disagree with construction.
    pub fn step_into(
        &mut self,
        params: &mut [&mut Tensor],
        grads: &[GradView<'_>],
        next: &mut [Tensor],
    ) {
        self.sweep(params, grads, Some(next));
    }

    /// Takes parameter `t`'s share of the next `rows.len()` updates — one or
    /// two — ahead of the rest, for a layer whose window gradients are each
    /// the one factored contribution `δ_u ⊗ x_u` (`rows[u] = (δ_u, x_u)`):
    /// `w` is parameter `t`, update `u` runs under `hps[u]` and writes its
    /// forward version into slot `t` of `next[u]`, the buffer the coming
    /// [`StageOptimizer::step_into`] of that update writes, and the same
    /// pass adds `δ_u·w` of that update's pre-update weights into the zeroed
    /// `gx[u]` — bit for bit `gemm_nn`'s `m = 1` product. One pass over `w`
    /// and its velocity serves every update's input gradient and the update
    /// itself. The `step_into` (or [`StageOptimizer::step`]) calls that
    /// follow, update `u`'s after
    /// [`StageOptimizer::set_hyperparams`]`(hps[u])`, sweep only the
    /// parameters not yet taken: the updates as a whole are bit for bit the
    /// sweeps they replace, taken one at a time, because the parameters'
    /// sweeps are independent.
    ///
    /// # Panics
    ///
    /// Panics unless there are one or two rows with a hyperparameter set,
    /// a buffer and a `gx` each, if `t` is out of range, or if a shape
    /// disagrees with construction or with an `x`.
    pub fn step_outer_into(
        &mut self,
        t: usize,
        w: &mut Tensor,
        rows: &[(&[f32], &[f32])],
        hps: &[Hyperparams],
        next: &mut [Vec<Tensor>],
        gx: &mut [&mut [f32]],
    ) {
        let k: Vec<(Sweep, Predict)> = hps.iter().map(|&hp| self.kernel(hp)).collect();
        let prev = self.prev_weights.as_mut().map(|p| &mut p[t]);
        self.state.sweep_param(t, w, rows, &k, prev, next, gx);
        self.taken[t] = rows.len() as u8;
    }

    /// The scalars and the forward-version form of an update under `hp`.
    fn kernel(&self, hp: Hyperparams) -> (Sweep, Predict) {
        let coeffs = if self.config.spike_delay > 0.0 {
            SpikeCoeffs::scd(hp.momentum, self.config.spike_delay)
        } else {
            SpikeCoeffs::identity()
        };
        let k = Sweep {
            hp,
            a: coeffs.a,
            b: coeffs.b,
            grad_scale: self.config.grad_scale,
        };
        let horizon = self.config.fwd_horizon;
        let predict = if horizon == 0.0 {
            Predict::Copy
        } else if self.config.lwp_form == LwpForm::Velocity {
            let alpha = -hp.lr * horizon;
            Predict::Velocity { alpha }
        } else {
            Predict::WeightDiff { horizon }
        };
        (k, predict)
    }

    fn sweep(
        &mut self,
        params: &mut [&mut Tensor],
        grads: &[GradView<'_>],
        next: Option<&mut [Tensor]>,
    ) {
        let (k, predict) = self.kernel(self.hp);
        self.state.sweep(
            params,
            grads,
            k,
            self.prev_weights.as_deref_mut(),
            next.map(|next| (next, predict)),
            &self.taken,
        );
        self.taken.iter_mut().for_each(|n| *n = n.saturating_sub(1));
    }
}

impl Snapshottable for StageOptimizer {
    // The stage config is *not* serialized: a restored optimizer is
    // rebuilt from the same engine spec, so the config is re-derived and
    // only the evolving state (velocity, prev-weight snapshot, current
    // schedule point) travels in the snapshot.
    fn write_state(&self, w: &mut StateWriter) {
        self.state.write_state(w);
        match &self.prev_weights {
            Some(prev) => {
                w.put_bool(true);
                w.put_tensor_list(prev);
            }
            None => w.put_bool(false),
        }
        w.put_f32(self.hp.lr);
        w.put_f32(self.hp.momentum);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.state.read_state(r)?;
        let has_prev = r.take_bool()?;
        match (&mut self.prev_weights, has_prev) {
            (Some(prev), true) => {
                let mut dst: Vec<&mut Tensor> = prev.iter_mut().collect();
                r.take_tensors_into(&mut dst, "lwp prev weights")?;
            }
            (None, false) => {}
            (slot, stored) => {
                return Err(SnapshotError::Mismatch(format!(
                    "prev-weights presence: stored {stored}, config expects {}",
                    slot.is_some()
                )))
            }
        }
        let lr = r.take_f32()?;
        let momentum = r.take_f32()?;
        if lr <= 0.0 || !(0.0..1.0).contains(&momentum) {
            return Err(SnapshotError::Corrupt(format!(
                "invalid stored hyperparams: lr={lr}, momentum={momentum}"
            )));
        }
        self.hp = Hyperparams { lr, momentum };
        self.taken.fill(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mitigation;

    fn hp() -> Hyperparams {
        Hyperparams::new(0.1, 0.9)
    }

    #[test]
    fn plain_config_matches_raw_sgdm() {
        let mut w1 = Tensor::from_slice(&[1.0, 2.0]);
        let mut w2 = w1.clone();
        let g = Tensor::from_slice(&[0.5, -0.2]);
        let mut opt = StageOptimizer::new(&[&w1], Mitigation::None.stage_config(4, 0), hp());
        let mut raw = SgdmState::new(&[&w2]);
        for _ in 0..5 {
            opt.step(&mut [&mut w1], &[(&g).into()]);
            raw.step(&mut [&mut w2], &[(&g).into()], hp());
        }
        assert_eq!(w1.as_slice(), w2.as_slice());
    }

    #[test]
    fn sc_with_zero_delay_matches_sgdm() {
        let mut w1 = Tensor::from_slice(&[1.0]);
        let mut w2 = w1.clone();
        let g = Tensor::from_slice(&[0.3]);
        let mut opt = StageOptimizer::new(&[&w1], Mitigation::scd().stage_config(0, 0), hp());
        let mut raw = SgdmState::new(&[&w2]);
        for _ in 0..4 {
            opt.step(&mut [&mut w1], &[(&g).into()]);
            raw.step(&mut [&mut w2], &[(&g).into()], hp());
        }
        assert_eq!(w1.as_slice(), w2.as_slice());
    }

    #[test]
    fn forward_weights_none_without_prediction() {
        let w = Tensor::from_slice(&[1.0]);
        let opt = StageOptimizer::new(&[&w], Mitigation::scd().stage_config(4, 0), hp());
        assert!(opt.forward_weights(&[&w]).is_none());
    }

    #[test]
    fn lwp_velocity_prediction_moves_against_velocity() {
        let mut w = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        let mut opt = StageOptimizer::new(&[&w], Mitigation::lwpd().stage_config(5, 0), hp());
        opt.step(&mut [&mut w], &[(&g).into()]); // v = 1, w = 1 - 0.1 = 0.9
        let fw = opt.forward_weights(&[&w]).expect("prediction configured");
        // ŵ = 0.9 − 0.1·5·1 = 0.4
        assert!((fw[0].as_slice()[0] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn weight_form_tracks_previous_weights() {
        let mut w = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        let mit = Mitigation::Lwp {
            form: LwpForm::WeightDiff,
            scale: 1.0,
        };
        let mut opt = StageOptimizer::new(&[&w], mit.stage_config(3, 0), hp());
        opt.step(&mut [&mut w], &[(&g).into()]); // prev = 1.0, w = 0.9
        let fw = opt.forward_weights(&[&w]).unwrap();
        // ŵ = 0.9 + 3·(0.9 − 1.0) = 0.6
        assert!((fw[0].as_slice()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn spectrain_predicts_both_directions() {
        let mut w = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        let mut opt = StageOptimizer::new(&[&w], Mitigation::SpecTrain.stage_config(4, 2), hp());
        opt.step(&mut [&mut w], &[(&g).into()]);
        let fw = opt.forward_weights(&[&w]).unwrap();
        let mut bw = [Tensor::zeros(w.shape())];
        opt.predict_into(&[&w], opt.config().bwd_horizon, &mut bw);
        // fwd horizon 6, bwd horizon 2; both along −η·v from w = 0.9.
        assert!((fw[0].as_slice()[0] - (0.9 - 0.1 * 6.0)).abs() < 1e-6);
        assert!((bw[0].as_slice()[0] - (0.9 - 0.1 * 2.0)).abs() < 1e-6);
    }

    /// Both prediction forms are the `lwp.rs` reference arithmetic bit for
    /// bit whatever the output buffer held, and horizon zero is a copy.
    #[test]
    fn predict_into_is_the_reference_prediction_bitwise() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for form in [LwpForm::Velocity, LwpForm::WeightDiff] {
            let mut w = Tensor::from_fn(&[3, 5], |i| (i as f32 * 0.37).sin());
            let g = Tensor::from_fn(&[3, 5], |i| (i as f32 * 0.91).cos());
            let mit = Mitigation::Lwp { form, scale: 1.0 };
            let mut opt = StageOptimizer::new(&[&w], mit.stage_config(3, 0), hp());
            for _ in 0..3 {
                opt.step(&mut [&mut w], &[(&g).into()]);
            }
            for horizon in [0.0, 1.5, 4.0] {
                let want = match form {
                    _ if horizon == 0.0 => vec![w.clone()],
                    LwpForm::Velocity => {
                        crate::predict_velocity_form(&[&w], opt.velocity(), hp().lr, horizon)
                    }
                    LwpForm::WeightDiff => {
                        let prev = opt.prev_weights.as_ref().unwrap();
                        crate::predict_weight_form(&[&w], prev, horizon)
                    }
                };
                let mut got = [Tensor::from_fn(&[3, 5], |_| f32::NAN)];
                opt.predict_into(&[&w], horizon, &mut got);
                assert_eq!(bits(&got[0]), bits(&want[0]), "{form:?} horizon {horizon}");
            }
        }
    }

    /// A lent pair — both updates of the factored weight in one sweep, then
    /// two `step_into`s for the bias — is two lent steps bit for bit, under
    /// different hyperparameters per update, for every forward-version form.
    #[test]
    fn a_lent_pair_is_two_lent_steps_bitwise() {
        let bits = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let hps = [Hyperparams::new(0.1, 0.9), Hyperparams::new(0.07, 0.85)];
        let mits = [
            Mitigation::None,
            Mitigation::lwpv_scd(),
            Mitigation::lwpw_scd(),
            Mitigation::GradShrink { factor: 0.5 },
        ];
        for mit in mits {
            let w0 = Tensor::from_fn(&[3, 5], |i| (i as f32 * 0.37).sin());
            let b0 = Tensor::from_fn(&[3], |i| (i as f32 * 0.5).cos());
            let delta: [Vec<f32>; 2] = [vec![0.3, -0.2, 0.5], vec![-0.1, 0.4, 0.25]];
            let x: [Vec<f32>; 2] = [
                (0..5).map(|i| (i as f32 * 0.9).cos()).collect(),
                (0..5).map(|i| (i as f32 * 1.3).sin()).collect(),
            ];
            let run = |pair: bool| {
                let (mut w, mut b) = (w0.clone(), b0.clone());
                let mut opt = StageOptimizer::new(&[&w, &b], mit.stage_config(3, 0), hps[0]);
                let mut next = [0, 1].map(|_| vec![Tensor::zeros(&[3, 5]), Tensor::zeros(&[3])]);
                let mut gx = [vec![0.0f32; 5], vec![0.0f32; 5]];
                for _ in 0..3 {
                    opt.set_hyperparams(hps[0]);
                    let [g0, g1] = &mut gx;
                    g0.fill(0.0);
                    g1.fill(0.0);
                    let g = [(&*delta[0], &*x[0]), (&*delta[1], &*x[1])];
                    if pair {
                        let gx = &mut [g0.as_mut_slice(), g1.as_mut_slice()];
                        opt.step_outer_into(0, &mut w, &g, &hps, &mut next, gx);
                    } else {
                        let (g, next) = (&g[..1], &mut next[..1]);
                        opt.step_outer_into(0, &mut w, g, &hps[..1], next, &mut [g0]);
                    }
                    let db = Tensor::from_slice(&delta[0]);
                    opt.step_into(
                        &mut [&mut w, &mut b],
                        &[GradView::Dense(&w0), (&db).into()],
                        &mut next[0],
                    );
                    opt.set_hyperparams(hps[1]);
                    if !pair {
                        let (g, next) = (&g[1..], &mut next[1..]);
                        opt.step_outer_into(0, &mut w, g, &hps[1..], next, &mut [g1]);
                    }
                    let db = Tensor::from_slice(&delta[1]);
                    opt.step_into(
                        &mut [&mut w, &mut b],
                        &[GradView::Dense(&w0), (&db).into()],
                        &mut next[1],
                    );
                }
                let mut out = vec![bits(w.as_slice()), bits(b.as_slice())];
                out.extend(opt.velocity().iter().map(|v| bits(v.as_slice())));
                out.extend(next.iter().flatten().map(|t| bits(t.as_slice())));
                out.extend(gx.iter().map(|g| bits(g)));
                if let Some(prev) = &opt.prev_weights {
                    out.extend(prev.iter().map(|p| bits(p.as_slice())));
                }
                out
            };
            assert_eq!(run(true), run(false), "{mit:?}");
        }
    }

    #[test]
    fn grad_shrink_scales_update() {
        let mut w1 = Tensor::from_slice(&[1.0]);
        let mut w2 = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        let mit = Mitigation::GradShrink { factor: 0.5 };
        // delay 2 → grad scale 0.25.
        let mut opt = StageOptimizer::new(&[&w1], mit.stage_config(2, 0), hp());
        opt.step(&mut [&mut w1], &[(&g).into()]);
        let mut plain = StageOptimizer::new(&[&w2], Mitigation::None.stage_config(2, 0), hp());
        let g_scaled = Tensor::from_slice(&[0.25]);
        plain.step(&mut [&mut w2], &[(&g_scaled).into()]);
        assert_eq!(w1.as_slice(), w2.as_slice());
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        // Both LWP forms: velocity (no prev buffer) and weight-difference
        // (prev buffer must round-trip too).
        for mit in [Mitigation::lwpv_scd(), Mitigation::lwpw_scd()] {
            let mut w = Tensor::from_slice(&[1.0, -2.0, 0.5]);
            let g = Tensor::from_slice(&[0.3, -0.1, 0.7]);
            let mut opt = StageOptimizer::new(&[&w], mit.stage_config(3, 0), hp());
            for _ in 0..4 {
                opt.step(&mut [&mut w], &[(&g).into()]);
            }

            let mut writer = pbp_snapshot::StateWriter::new();
            opt.write_state(&mut writer);
            let bytes = writer.into_bytes();

            let mut w2 = w.clone();
            let mut restored = StageOptimizer::new(&[&w2], mit.stage_config(3, 0), hp());
            let mut reader = pbp_snapshot::StateReader::new(&bytes);
            restored.read_state(&mut reader).unwrap();
            reader.finish().unwrap();

            // Same state, same inputs → bit-identical trajectories,
            // including the predicted forward weights.
            for _ in 0..3 {
                let fw_a = opt.forward_weights(&[&w]);
                let fw_b = restored.forward_weights(&[&w2]);
                match (&fw_a, &fw_b) {
                    (Some(a), Some(b)) => assert_eq!(a[0].as_slice(), b[0].as_slice()),
                    (None, None) => {}
                    _ => panic!("prediction presence diverged"),
                }
                opt.step(&mut [&mut w], &[(&g).into()]);
                restored.step(&mut [&mut w2], &[(&g).into()]);
                assert_eq!(w.as_slice(), w2.as_slice());
            }
        }
    }

    #[test]
    fn snapshot_rejects_layout_mismatch() {
        let w = Tensor::from_slice(&[1.0, 2.0]);
        let opt = StageOptimizer::new(&[&w], Mitigation::None.stage_config(1, 0), hp());
        let mut writer = pbp_snapshot::StateWriter::new();
        opt.write_state(&mut writer);
        let bytes = writer.into_bytes();

        let other = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut wrong = StageOptimizer::new(&[&other], Mitigation::None.stage_config(1, 0), hp());
        let mut reader = pbp_snapshot::StateReader::new(&bytes);
        let err = wrong.read_state(&mut reader).unwrap_err();
        assert!(
            matches!(err, pbp_snapshot::SnapshotError::Mismatch(_)),
            "{err}"
        );
    }
}
