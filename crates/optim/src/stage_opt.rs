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
///    factored parameter's share of it ahead of the rest, beside the
///    layer's input gradient;
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
    /// Parameters whose share of the coming update
    /// [`StageOptimizer::step_outer_into`] already took, by position; the
    /// update that follows sweeps the rest and clears the marks.
    taken: Vec<bool>,
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
            taken: vec![false; params.len()],
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

    /// Takes parameter `t`'s share of the next update ahead of the rest,
    /// for a layer whose window gradient is the one factored contribution
    /// `δ ⊗ x`: `w` is parameter `t`, `next` its slot of the buffer the
    /// coming [`StageOptimizer::step_into`] writes, and the same pass adds
    /// `δ·w` of the pre-update weights into the zeroed `gx` — bit for bit
    /// `gemm_nn`'s `m = 1` product, and the weights are read once for the
    /// layer's input gradient and its update. That `step_into` (or
    /// [`StageOptimizer::step`]) then sweeps only the parameters not yet
    /// taken: the update as a whole is bit for bit the one sweep it
    /// replaces, because the parameters' sweeps are independent.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or a shape disagrees with
    /// construction or with `x`.
    pub fn step_outer_into(
        &mut self,
        t: usize,
        w: &mut Tensor,
        delta: &[f32],
        x: &[f32],
        next: &mut Tensor,
        gx: &mut [f32],
    ) {
        let (k, predict) = self.kernel();
        let prev = self.prev_weights.as_mut().map(|p| &mut p[t]);
        self.state.sweep_param(
            t,
            w,
            GradView::Outer { delta, x },
            k,
            prev,
            Some((next, predict)),
            Some(gx),
        );
        self.taken[t] = true;
    }

    /// The scalars and the forward-version form of this update.
    fn kernel(&self) -> (Sweep, Predict) {
        let coeffs = if self.config.spike_delay > 0.0 {
            SpikeCoeffs::scd(self.hp.momentum, self.config.spike_delay)
        } else {
            SpikeCoeffs::identity()
        };
        let k = Sweep {
            hp: self.hp,
            a: coeffs.a,
            b: coeffs.b,
            grad_scale: self.config.grad_scale,
        };
        let horizon = self.config.fwd_horizon;
        let predict = if horizon == 0.0 {
            Predict::Copy
        } else if self.config.lwp_form == LwpForm::Velocity {
            let alpha = -self.hp.lr * horizon;
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
        let (k, predict) = self.kernel();
        self.state.sweep(
            params,
            grads,
            k,
            self.prev_weights.as_deref_mut(),
            next.map(|next| (next, predict)),
            &self.taken,
        );
        self.taken.fill(false);
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
        self.taken.fill(false);
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
