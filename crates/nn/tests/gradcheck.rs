//! Randomized finite-difference gradient checks over layer configurations.
//!
//! For every layer kind, random geometry and random inputs: the analytic
//! input gradient and parameter gradients must match central finite
//! differences of a random linear functional of the output.

use pbp_nn::layer::Layer;
use pbp_nn::layers::{
    Conv2d, FilterResponseNorm, GroupNorm, Linear, OnlineNorm, Relu, Tlu, WsConv2d,
};
use pbp_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Loss = <probe, layer(x)>; returns loss and resets the stash.
fn loss_of(layer: &mut dyn Layer, x: &Tensor, probe: &Tensor) -> f64 {
    let mut s = vec![x.clone()];
    layer.forward(&mut s);
    let y = s.pop().expect("output");
    layer.clear_stash();
    y.as_slice()
        .iter()
        .zip(probe.as_slice())
        .map(|(a, b)| (*a as f64) * (*b as f64))
        .sum()
}

/// Checks dL/dx and dL/dθ against central differences at a few random
/// coordinates.
fn gradcheck(layer: &mut dyn Layer, x: &Tensor, seed: u64, tol: f64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Output shape probe.
    let mut s = vec![x.clone()];
    layer.forward(&mut s);
    let y_shape = s.pop().expect("output").shape().to_vec();
    layer.clear_stash();
    let probe = pbp_tensor::normal(&y_shape, 0.0, 1.0, &mut rng);

    // Analytic gradients.
    layer.zero_grads();
    let mut s = vec![x.clone()];
    layer.forward(&mut s);
    let _ = s.pop();
    let mut g = vec![probe.clone()];
    layer.backward(&mut g);
    let gx = g.pop().expect("input grad");
    let param_grads: Vec<Tensor> = layer
        .grads()
        .iter()
        .map(|g| g.dense().into_owned())
        .collect();

    let eps = 1e-2f32;
    // Input coordinates.
    for _ in 0..4 {
        let idx = (rng.next_u64() as usize) % x.len();
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let num = (loss_of(layer, &xp, &probe) - loss_of(layer, &xm, &probe)) / (2.0 * eps as f64);
        let ana = gx.as_slice()[idx] as f64;
        if (num - ana).abs() > tol * (1.0 + ana.abs()) {
            return Err(format!(
                "{}: input grad at {idx}: fd {num} vs analytic {ana}",
                layer.name()
            ));
        }
    }
    // Parameter coordinates.
    for (p_i, param_grad) in param_grads.iter().enumerate() {
        if param_grad.is_empty() {
            continue;
        }
        let idx = (rng.next_u64() as usize) % param_grad.len();
        let orig = layer.params()[p_i].as_slice()[idx];
        layer.params_mut()[p_i].as_mut_slice()[idx] = orig + eps;
        let lp = loss_of(layer, x, &probe);
        layer.params_mut()[p_i].as_mut_slice()[idx] = orig - eps;
        let lm = loss_of(layer, x, &probe);
        layer.params_mut()[p_i].as_mut_slice()[idx] = orig;
        let num = (lp - lm) / (2.0 * eps as f64);
        let ana = param_grad.as_slice()[idx] as f64;
        if (num - ana).abs() > tol * (1.0 + ana.abs()) {
            return Err(format!(
                "{}: param {p_i} grad at {idx}: fd {num} vs analytic {ana}",
                layer.name()
            ));
        }
    }
    Ok(())
}

fn rand_input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    pbp_tensor::normal(shape, 0.0, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conv2d_gradcheck(
        in_c in 1usize..4,
        out_c in 1usize..4,
        stride in 1usize..3,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Conv2d::new(in_c, out_c, 3, stride, 1, true, &mut rng);
        let x = rand_input(&[1, in_c, 6, 6], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.05).map_err(TestCaseError::fail)?;
    }

    /// Conv gradients across the full geometry grid the GEMM-lowered
    /// backward supports: kernels 1–4, strides up to 3, paddings up to 2
    /// (including padding > kernel/2, where whole taps fall outside), and
    /// non-square inputs.
    #[test]
    fn conv2d_strided_padded_gradcheck(
        kernel in 1usize..5,
        stride in 1usize..4,
        padding in 0usize..3,
        extra_h in 0usize..4,
        extra_w in 0usize..4,
        seed in 0u64..500,
    ) {
        let (h, w) = (kernel + extra_h, kernel + extra_w);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Conv2d::new(2, 3, kernel, stride, padding, true, &mut rng);
        let x = rand_input(&[1, 2, h, w], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.06).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn ws_conv2d_gradcheck(
        in_c in 2usize..4,
        out_c in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = WsConv2d::new(in_c, out_c, 3, 1, 1, &mut rng);
        let x = rand_input(&[1, in_c, 5, 5], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.08).map_err(TestCaseError::fail)?;
    }

    /// Weight-standardized conv under stride and padding variation: the
    /// standardization backward must compose with the GEMM-lowered conv
    /// backward at every geometry.
    #[test]
    fn ws_conv2d_strided_padded_gradcheck(
        stride in 1usize..3,
        padding in 0usize..3,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = WsConv2d::new(2, 3, 3, stride, padding, &mut rng);
        let x = rand_input(&[1, 2, 6, 5], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.08).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn linear_gradcheck(
        n_in in 1usize..8,
        n_out in 1usize..8,
        batch in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(n_in, n_out, true, &mut rng);
        let x = rand_input(&[batch, n_in], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.05).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn groupnorm_gradcheck(
        groups in 1usize..3,
        seed in 0u64..500,
    ) {
        let channels = groups * 2;
        let mut layer = GroupNorm::new(groups, channels);
        let x = rand_input(&[1, channels, 3, 3], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.08).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn frn_gradcheck(channels in 1usize..4, seed in 0u64..500) {
        let mut layer = FilterResponseNorm::new(channels);
        let x = rand_input(&[1, channels, 4, 4], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.08).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn tlu_gradcheck(channels in 1usize..4, seed in 0u64..500) {
        let mut layer = Tlu::new(channels);
        // Keep inputs away from the threshold kink (fd is invalid there).
        let mut x = rand_input(&[1, channels, 4, 4], seed ^ 1);
        x.map_in_place(|v| if v.abs() < 0.1 { v + 0.2 } else { v });
        gradcheck(&mut layer, &x, seed ^ 2, 0.08).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn relu_gradcheck(seed in 0u64..500) {
        let mut layer = Relu::new();
        let mut x = rand_input(&[1, 12], seed ^ 1);
        // Avoid the kink at zero.
        x.map_in_place(|v| if v.abs() < 0.1 { v + 0.2 } else { v });
        gradcheck(&mut layer, &x, seed ^ 2, 0.05).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn online_norm_eval_gradcheck(channels in 1usize..3, seed in 0u64..500) {
        // In training mode ON's statistics move during the fd probes, so
        // gradcheck is run in eval mode (frozen statistics, control process
        // frozen too) where the layer is a fixed affine-normalizing map.
        let mut layer = OnlineNorm::new(channels);
        layer.set_training(false);
        let x = rand_input(&[1, channels, 3, 3], seed ^ 1);
        gradcheck(&mut layer, &x, seed ^ 2, 0.08).map_err(TestCaseError::fail)?;
    }
}
