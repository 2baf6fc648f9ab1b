//! Property-based tests for tensor operations.

use pbp_tensor::ops::{
    avg_pool2d, avg_pool2d_backward, col2im, conv2d, conv2d_batched, im2col, Conv2dSpec, PoolSpec,
};
use pbp_tensor::Tensor;
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #[test]
    fn add_is_commutative(data in tensor_strategy(24)) {
        let a = Tensor::from_vec(data[..12].to_vec(), &[3, 4]).unwrap();
        let b = Tensor::from_vec(data[12..].to_vec(), &[3, 4]).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
    }

    #[test]
    fn sub_then_add_round_trips(data in tensor_strategy(16)) {
        let a = Tensor::from_vec(data[..8].to_vec(), &[8]).unwrap();
        let b = Tensor::from_vec(data[8..].to_vec(), &[8]).unwrap();
        let back = a.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn scale_is_linear(data in tensor_strategy(8), s in -4.0f32..4.0) {
        let a = Tensor::from_vec(data, &[8]).unwrap();
        let direct = a.scale(2.0 * s);
        let composed = a.scale(s).scale(2.0);
        for (x, y) in direct.as_slice().iter().zip(composed.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn matmul_identity_is_noop(data in tensor_strategy(12)) {
        let a = Tensor::from_vec(data, &[3, 4]).unwrap();
        let out = a.matmul(&Tensor::eye(4)).unwrap();
        prop_assert_eq!(out.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_distributes_over_addition(data in tensor_strategy(36)) {
        // A(B + C) == AB + AC
        let a = Tensor::from_vec(data[..12].to_vec(), &[3, 4]).unwrap();
        let b = Tensor::from_vec(data[12..24].to_vec(), &[4, 3]).unwrap();
        let c = Tensor::from_vec(data[24..].to_vec(), &[4, 3]).unwrap();
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_is_involutive(data in tensor_strategy(15)) {
        let a = Tensor::from_vec(data, &[3, 5]).unwrap();
        let tt = a.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(tt.as_slice(), a.as_slice());
    }

    #[test]
    fn im2col_col2im_adjoint(
        x in tensor_strategy(2 * 5 * 5),
        stride in 1usize..3,
        padding in 0usize..2,
    ) {
        // <im2col(x), y> == <x, col2im(y)> for every geometry.
        let spec = Conv2dSpec::new(2, 1, 3, stride, padding).unwrap();
        let (c, h, w) = (2usize, 5usize, 5usize);
        let mut cols = Vec::new();
        im2col(&x, c, h, w, &spec, &mut cols);
        // Deterministic pseudo-random y from the geometry.
        let y: Vec<f32> = (0..cols.len()).map(|i| ((i * 37 % 17) as f32 - 8.0) / 8.0).collect();
        let lhs: f64 = cols.iter().zip(&y).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let mut back = vec![0.0f32; c * h * w];
        col2im(&y, c, h, w, &spec, &mut back);
        let rhs: f64 = x.iter().zip(&back).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn avg_pool_preserves_mean(data in tensor_strategy(16)) {
        // 2x2 avg pooling with stride 2 over a 4x4 image preserves the
        // overall mean.
        let x = Tensor::from_vec(data, &[1, 1, 4, 4]).unwrap();
        let spec = PoolSpec::new(2, 2).unwrap();
        let y = avg_pool2d(&x, &spec).unwrap();
        prop_assert!((x.mean() - y.mean()).abs() < 1e-4);
    }

    #[test]
    fn avg_pool_backward_conserves_gradient_mass(grad in tensor_strategy(4)) {
        let g = Tensor::from_vec(grad, &[1, 1, 2, 2]).unwrap();
        let spec = PoolSpec::new(2, 2).unwrap();
        let gin = avg_pool2d_backward(&g, &spec, &[1, 1, 4, 4]).unwrap();
        prop_assert!((gin.sum() - g.sum()).abs() < 1e-4);
    }

    #[test]
    fn reshape_preserves_all_elements(data in tensor_strategy(24)) {
        let a = Tensor::from_vec(data, &[2, 3, 4]).unwrap();
        let b = a.reshape(&[4, 6]).unwrap();
        prop_assert_eq!(a.as_slice(), b.as_slice());
        prop_assert_eq!(b.len(), 24);
    }

    #[test]
    fn norm_is_scale_homogeneous(data in tensor_strategy(10), s in 0.1f32..5.0) {
        let a = Tensor::from_vec(data, &[10]).unwrap();
        let scaled = a.scale(s);
        prop_assert!((scaled.norm() - (s as f64) * a.norm()).abs() < 1e-2 * (1.0 + a.norm()));
    }

    #[test]
    fn batched_conv_is_bit_identical_to_per_sample(
        n in 1usize..9,
        channels in 1usize..4,
        oc in 1usize..5,
        side in 3usize..8,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u32..1000,
    ) {
        // The direct kernel looped over a batch must agree with the
        // per-sample lowering bit for bit at every geometry and batch
        // size — the invariant dynamic batching in pbp-serve rests on.
        let spec = Conv2dSpec::new(channels, oc, 3, stride, padding).unwrap();
        prop_assume!(spec.out_size(side) > 0);
        let len = n * channels * side * side;
        let data: Vec<f32> = (0..len)
            .map(|i| (((i as u32).wrapping_mul(seed.wrapping_mul(2654435761).max(1)) >> 16) % 64) as f32 / 8.0 - 4.0)
            .collect();
        let x = Tensor::from_vec(data, &[n, channels, side, side]).unwrap();
        let wlen = oc * channels * 9;
        let wdata: Vec<f32> = (0..wlen).map(|i| ((i * 131 % 97) as f32 - 48.0) / 32.0).collect();
        let w = Tensor::from_vec(wdata, &spec.weight_shape()).unwrap();
        let (per_sample, _cols) = conv2d(&x, &w, &spec).unwrap();
        let batched = conv2d_batched(&x, &w, &spec).unwrap();
        prop_assert_eq!(batched.shape(), per_sample.shape());
        for (i, (b, p)) in batched.as_slice().iter().zip(per_sample.as_slice()).enumerate() {
            prop_assert_eq!(b.to_bits(), p.to_bits(),
                "element {} differs: {} vs {}", i, b, p);
        }
    }
}
