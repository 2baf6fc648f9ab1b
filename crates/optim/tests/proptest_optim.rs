//! Property-based tests for the optimizer and mitigation invariants the
//! paper's analysis relies on.

use pbp_optim::{
    predict_velocity_form, predict_weight_form, scale_hyperparams, Hyperparams, LwpForm,
    Mitigation, SgdmState, SpikeCoeffs, StageOptimizer,
};
use pbp_tensor::{GradView, Tensor};
use proptest::prelude::*;

/// Every mitigation the experiments run, both LWP forms where one applies.
fn mitigations() -> Vec<Mitigation> {
    let mut all = vec![
        Mitigation::None,
        Mitigation::scd(),
        Mitigation::Sc { scale: 2.0 },
        Mitigation::SpecTrain,
        Mitigation::GradShrink { factor: 0.7 },
    ];
    for form in [LwpForm::Velocity, LwpForm::WeightDiff] {
        all.push(Mitigation::Lwp { form, scale: 1.0 });
        all.push(Mitigation::LwpSc {
            form,
            lwp_scale: 1.0,
            sc_scale: 1.0,
        });
    }
    all
}

/// Replaces `values[i]` by a signed zero or a subnormal where `kinds[i]`
/// asks for one (about half the entries stay ordinary).
fn with_edge_values(values: &[f32], kinds: &[usize]) -> Vec<f32> {
    let pick = |(&v, &kind): (&f32, &usize)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0e-40,
        3 => -3.0e-41,
        _ => v,
    };
    values.iter().zip(kinds).map(pick).collect()
}

fn assert_bits_eq(got: &[Tensor], want: &[Tensor], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: tensor count");
    for (g, w) in got.iter().zip(want) {
        let (g, w) = (g.as_slice(), w.as_slice());
        assert_eq!(g.len(), w.len(), "{context}: length");
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: element {i}: {a:e} vs {b:e}"
            );
        }
    }
}

fn grads_strategy(steps: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-1.0f32..1.0, dim), steps)
}

proptest! {
    #[test]
    fn scd_total_contribution_matches_plain_momentum(
        m in 0.0f32..0.995,
        d in 0usize..32,
    ) {
        // Section 3.2: SC redistributes each gradient's contribution over
        // time without changing its total a/(1−m) + b == 1/(1−m).
        let c = SpikeCoeffs::scd(m, d as f32);
        let total = c.total_contribution(m);
        let expected = 1.0 / (1.0 - m);
        prop_assert!((total - expected).abs() < 1e-2 * expected, "{total} vs {expected}");
    }

    #[test]
    fn scd_with_zero_delay_is_identity(m in 0.0f32..0.9999) {
        prop_assert_eq!(SpikeCoeffs::scd(m, 0.0), SpikeCoeffs::identity());
    }

    #[test]
    fn spike_zero_delay_trajectory_matches_sgdm(
        grads in grads_strategy(10, 3),
        lr in 0.001f32..0.2,
        m in 0.0f32..0.99,
    ) {
        let hp = Hyperparams::new(lr, m);
        let mut w1 = Tensor::from_slice(&[0.3, -0.7, 1.1]);
        let mut w2 = w1.clone();
        let mut plain = SgdmState::new(&[&w1]);
        let mut opt = StageOptimizer::new(&[&w2], Mitigation::scd().stage_config(0, 0), hp);
        for g in &grads {
            let gt = Tensor::from_slice(g);
            plain.step(&mut [&mut w1], &[(&gt).into()], hp);
            opt.step(&mut [&mut w2], &[(&gt).into()]);
        }
        prop_assert_eq!(w1.as_slice(), w2.as_slice());
    }

    #[test]
    fn lwp_forms_coincide_for_plain_sgdm(
        grads in grads_strategy(8, 2),
        lr in 0.001f32..0.1,
        m in 0.0f32..0.99,
        horizon in 0.0f32..20.0,
    ) {
        // Eqs. 18 and 19 are equivalent for unmodified SGDM, for any
        // gradient sequence and horizon.
        let hp = Hyperparams::new(lr, m);
        let mut w = Tensor::from_slice(&[1.0, -1.0]);
        let mut state = SgdmState::new(&[&w]);
        let mut prev = w.clone();
        for g in &grads {
            let gt = Tensor::from_slice(g);
            prev = w.clone();
            state.step(&mut [&mut w], &[(&gt).into()], hp);
        }
        let via_v = predict_velocity_form(&[&w], state.velocity(), lr, horizon);
        let via_w = predict_weight_form(&[&w], &[prev], horizon);
        for (a, b) in via_v[0].as_slice().iter().zip(via_w[0].as_slice()) {
            prop_assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn scaling_preserves_per_sample_contribution(
        lr in 0.01f32..0.5,
        m in 0.1f32..0.99,
        n_ref in 2usize..256,
        n_new in 1usize..256,
    ) {
        // Eq. 9: η/((1−m)·N) — the long-run weight displacement per sample
        // — is invariant under the scaling.
        let r = Hyperparams::new(lr, m);
        let s = scale_hyperparams(r, n_ref, n_new);
        let c_ref = r.lr as f64 / ((1.0 - r.momentum as f64) * n_ref as f64);
        let c_new = s.lr as f64 / ((1.0 - s.momentum as f64) * n_new as f64);
        prop_assert!((c_ref - c_new).abs() < 1e-4 * c_ref, "{c_ref} vs {c_new}");
    }

    #[test]
    fn scaling_preserves_momentum_decay_per_sample(
        m in 0.1f32..0.99,
        n_ref in 1usize..128,
        n_new in 1usize..128,
    ) {
        // m_new^(1/N_new) == m_ref^(1/N_ref). Tolerance is loose because
        // extreme scalings (e.g. m = 0.1 to batch 43 ⇒ m_new ≈ 1e-43) lose
        // f32 precision in the round trip.
        let r = Hyperparams::new(0.1, m);
        let s = scale_hyperparams(r, n_ref, n_new);
        // Skip regimes where the scaled momentum underflows f32 entirely
        // (e.g. m = 0.1 scaled from batch 1 to batch 45 ⇒ m_new = 1e-45).
        prop_assume!(s.momentum as f64 > 1e-20);
        let d_ref = (r.momentum as f64).powf(1.0 / n_ref as f64);
        let d_new = (s.momentum as f64).powf(1.0 / n_new as f64);
        prop_assert!((d_ref - d_new).abs() < 2e-4, "{d_ref} vs {d_new}");
    }

    #[test]
    fn scaling_round_trips(lr in 0.01f32..0.5, m in 0.1f32..0.99, n in 1usize..200) {
        let r = Hyperparams::new(lr, m);
        let down = scale_hyperparams(r, 128, n);
        let back = scale_hyperparams(down, n, 128);
        prop_assert!((back.lr - r.lr).abs() < 1e-4 * r.lr);
        prop_assert!((back.momentum - r.momentum).abs() < 1e-5);
    }

    #[test]
    fn gradient_shrink_never_increases_update_magnitude(
        g in proptest::collection::vec(-1.0f32..1.0, 4),
        factor in 0.1f32..1.0,
        d in 0usize..16,
    ) {
        let hp = Hyperparams::new(0.05, 0.9);
        let mit = Mitigation::GradShrink { factor };
        let mut w_shrunk = Tensor::from_slice(&[0.0, 0.0, 0.0, 0.0]);
        let mut w_plain = w_shrunk.clone();
        let gt = Tensor::from_slice(&g);
        let mut a = StageOptimizer::new(&[&w_shrunk], mit.stage_config(d, 0), hp);
        let mut b = StageOptimizer::new(&[&w_plain], Mitigation::None.stage_config(d, 0), hp);
        a.step(&mut [&mut w_shrunk], &[(&gt).into()]);
        b.step(&mut [&mut w_plain], &[(&gt).into()]);
        prop_assert!(w_shrunk.norm() <= w_plain.norm() + 1e-9);
    }

    /// The fused sweep against the passes it replaced: `step_into` (dense
    /// or factored gradient) leaves the weights, the velocity and the
    /// version buffer exactly as `step` on the dense gradient followed by
    /// `forward_weights` does, and both match the update arithmetic
    /// written out as it stood before the sweep — scale the gradient, then
    /// `v ← m·v + g; w ← w − η(a·v + b·g)` — for every mitigation, both
    /// LWP forms and a gradient scale other than one. A `[3, 5]` weight's
    /// rows are shorter than every vector; a `[3, 37]` one's are two
    /// `__m512` (four `__m256`) and a ragged tail.
    #[test]
    fn fused_sweep_matches_step_then_forward_weights_bitwise(
        delta in proptest::collection::vec(-2.0f32..2.0, 3),
        x in proptest::collection::vec(-2.0f32..2.0, 37),
        delta_kinds in proptest::collection::vec(0usize..8, 3),
        x_kinds in proptest::collection::vec(0usize..8, 37),
        bias_grad in proptest::collection::vec(-1.0f32..1.0, 3),
        lr in 0.001f32..0.3,
        m in 0.0f32..0.99,
        delay in 0usize..6,
        stage in 0usize..4,
    ) {
        let hp = Hyperparams::new(lr, m);
        let delta = with_edge_values(&delta, &delta_kinds);
        let x = with_edge_values(&x, &x_kinds);
        let bias_grad = Tensor::from_slice(&bias_grad);
        for cols in [5, 37] {
            let x = &x[..cols];
            let factored = GradView::Outer { delta: &delta, x };
            let dense = factored.dense().into_owned();
            let w0 = [
                Tensor::from_fn(&[3, cols], |i| (i as f32 * 0.37).sin()),
                Tensor::from_fn(&[3], |i| 0.5 - i as f32),
            ];
            for mitigation in mitigations() {
                for grad_scale in [None, Some(0.3f32)] {
                    let mut config = mitigation.stage_config(delay, stage);
                    config.grad_scale = grad_scale.unwrap_or(config.grad_scale);
                    let context = format!("[3, {cols}] {mitigation:?} grad_scale={}", config.grad_scale);
                    let coeffs = if config.spike_delay > 0.0 {
                        SpikeCoeffs::scd(m, config.spike_delay)
                    } else {
                        SpikeCoeffs::identity()
                    };

                    // [fused, factored], [fused, dense], [separate passes].
                    let mut w = [w0.clone(), w0.clone(), w0.clone()];
                    let mut opts: Vec<StageOptimizer> = w
                        .iter()
                        .map(|w| StageOptimizer::new(&[&w[0], &w[1]], config, hp))
                        .collect();
                    let mut by_hand_w = w0.clone();
                    let mut by_hand_v = [Tensor::zeros(&[3, cols]), Tensor::zeros(&[3])];
                    // Several updates, so velocity and (weight-difference
                    // form) the previous weights are in play.
                    for _ in 0..3 {
                        let mut next = [w0.clone(), w0.clone()];
                        for (i, grad) in [factored, (&dense).into()].into_iter().enumerate() {
                            let [p0, p1] = &mut w[i];
                            let grads = [grad, (&bias_grad).into()];
                            opts[i].step_into(&mut [p0, p1], &grads, &mut next[i]);
                        }
                        let [p0, p1] = &mut w[2];
                        opts[2].step(&mut [p0, p1], &[(&dense).into(), (&bias_grad).into()]);
                        let params = [&w[2][0], &w[2][1]];
                        let separate = opts[2]
                            .forward_weights(&params)
                            .unwrap_or_else(|| w[2].to_vec());

                        for ((w, v), g) in by_hand_w.iter_mut().zip(&mut by_hand_v).zip([&dense, &bias_grad]) {
                            let g = if config.grad_scale != 1.0 { g.scale(config.grad_scale) } else { g.clone() };
                            let (ws, vs, gs) = (w.as_mut_slice(), v.as_mut_slice(), g.as_slice());
                            for i in 0..ws.len() {
                                vs[i] = m * vs[i] + gs[i];
                                ws[i] -= lr * (coeffs.a * vs[i] + coeffs.b * gs[i]);
                            }
                        }

                        for i in 0..2 {
                            assert_bits_eq(&w[i], &w[2], &format!("{context}: weights {i}"));
                            assert_bits_eq(opts[i].velocity(), opts[2].velocity(), &format!("{context}: velocity {i}"));
                            assert_bits_eq(&next[i], &separate, &format!("{context}: next version {i}"));
                        }
                        assert_bits_eq(&w[2], &by_hand_w, &format!("{context}: weights by hand"));
                        assert_bits_eq(opts[2].velocity(), &by_hand_v, &format!("{context}: velocity by hand"));
                    }
                }
            }
        }
    }

    #[test]
    fn spectrain_horizon_gap_is_the_delay(d in 0usize..64, s in 0usize..64) {
        let cfg = Mitigation::SpecTrain.stage_config(d, s);
        prop_assert_eq!((cfg.fwd_horizon - cfg.bwd_horizon) as usize, d);
    }
}
