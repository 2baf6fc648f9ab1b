//! Linear Weight Prediction (Section 3.3).

use pbp_tensor::Tensor;

/// Which form of Linear Weight Prediction to use.
///
/// For plain SGDM both forms coincide (`η·v_{t+1} = w_t − w_{t+1}`), but
/// combined with spike compensation they differ (Eq. 26); the paper finds
/// the velocity form stronger in combination (Appendix H.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LwpForm {
    /// Velocity form `ŵ = w − η·T·v` (Eq. 18) — the paper's LWPv.
    #[default]
    Velocity,
    /// Weight-difference form `ŵ = w + T·(w − w_prev)` (Eq. 19) — LWPw.
    WeightDiff,
}

/// Velocity-form prediction: `ŵ_i = w_i − η·T·v_i` for each tensor.
///
/// # Panics
///
/// Panics if the lists differ in length or shapes mismatch.
pub fn predict_velocity_form(
    weights: &[&Tensor],
    velocity: &[Tensor],
    lr: f32,
    horizon: f32,
) -> Vec<Tensor> {
    assert_eq!(weights.len(), velocity.len(), "weights/velocity mismatch");
    weights
        .iter()
        .zip(velocity)
        .map(|(w, v)| {
            let mut out = (*w).clone();
            pbp_tensor::ops::axpy(-lr * horizon, v, &mut out);
            out
        })
        .collect()
}

/// Weight-difference-form prediction: `ŵ_i = w_i + T·(w_i − w_prev_i)`.
///
/// # Panics
///
/// Panics if the lists differ in length or shapes mismatch.
pub fn predict_weight_form(weights: &[&Tensor], prev: &[Tensor], horizon: f32) -> Vec<Tensor> {
    assert_eq!(weights.len(), prev.len(), "weights/prev mismatch");
    weights
        .iter()
        .zip(prev)
        .map(|(w, p)| {
            let mut out = Tensor::zeros(w.shape());
            pbp_tensor::ops::lerp_into(w, p, horizon, &mut out);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hyperparams, SgdmState};

    #[test]
    fn zero_horizon_is_identity_for_both_forms() {
        let w = Tensor::from_slice(&[1.0, 2.0]);
        let v = vec![Tensor::from_slice(&[0.5, -0.5])];
        let p = vec![Tensor::from_slice(&[0.9, 2.1])];
        let a = predict_velocity_form(&[&w], &v, 0.1, 0.0);
        let b = predict_weight_form(&[&w], &p, 0.0);
        assert_eq!(a[0].as_slice(), w.as_slice());
        assert_eq!(b[0].as_slice(), w.as_slice());
    }

    #[test]
    fn forms_coincide_for_plain_sgdm() {
        // After an SGDM step, w_t − w_{t-1} = −η·v_t, so both predictions
        // agree (Eqs. 18 and 19 are equivalent for unmodified SGDM).
        let hp = Hyperparams::new(0.1, 0.9);
        let mut w = Tensor::from_slice(&[1.0, -2.0]);
        let g = Tensor::from_slice(&[0.3, 0.7]);
        let mut state = SgdmState::new(&[&w]);
        let mut prev = w.clone();
        for _ in 0..3 {
            prev = w.clone();
            state.step(&mut [&mut w], &[(&g).into()], hp);
        }
        let t = 5.0;
        let via_v = predict_velocity_form(&[&w], state.velocity(), hp.lr, t);
        let via_w = predict_weight_form(&[&w], &[prev], t);
        for (a, b) in via_v[0].as_slice().iter().zip(via_w[0].as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn forms_differ_under_spike_compensation() {
        // With SC the weight difference is η(a·v + b·g) ≠ η·v, so the two
        // predictions must differ (Eq. 26).
        let hp = Hyperparams::new(0.1, 0.9);
        let mut w = Tensor::from_slice(&[1.0, -2.0]);
        let g = Tensor::from_slice(&[0.3, 0.7]);
        let mut state = SgdmState::new(&[&w]);
        let mut prev = w.clone();
        for _ in 0..3 {
            prev = w.clone();
            state.step_with_spike(&mut [&mut w], &[(&g).into()], hp, 0.5, 2.0);
        }
        let t = 5.0;
        let via_v = predict_velocity_form(&[&w], state.velocity(), hp.lr, t);
        let via_w = predict_weight_form(&[&w], &[prev], t);
        let diff: f32 = via_v[0]
            .as_slice()
            .iter()
            .zip(via_w[0].as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "forms unexpectedly coincide");
    }

    #[test]
    fn velocity_prediction_extrapolates_along_velocity() {
        let w = Tensor::from_slice(&[0.0]);
        let v = vec![Tensor::from_slice(&[2.0])];
        let pred = predict_velocity_form(&[&w], &v, 0.5, 3.0);
        // ŵ = 0 − 0.5·3·2 = −3.
        assert!((pred[0].as_slice()[0] + 3.0).abs() < 1e-6);
    }
}
