//! Differential kernel-equivalence suite.
//!
//! The optimized kernels (tiled/parallel GEMM in `pbp_tensor::ops::gemm`,
//! GEMM-lowered im2col convolution and the direct batch-of-one convolution
//! kernels in `pbp_tensor::ops::conv`) must be
//! **bit-identical** to the retained naive references in
//! `pbp_tensor::ops::reference` — not merely close. The kernels uphold a
//! single-fma-chain-per-element accumulation contract (see the `gemm`
//! module docs): every path — naive reference, scalar tile, AVX2/AVX-512
//! micro-kernels — folds each product in with one exactly-rounded fused
//! multiply-add, which makes exact `to_bits` comparison a meaningful
//! property over random shapes, strides, paddings, thread counts, and
//! SIMD tiers. (The per-tier edge-tile grid lives in the tensor crate's
//! `simd_differential` suite; here the default tier runs throughout.)
//!
//! Every comparison here is against the scalar reference, so concurrent
//! tests flipping the global thread cap or SIMD tier cannot invalidate a
//! baseline: the contract says the optimized result is the same bytes at
//! *any* cap and tier.

use pipelined_backprop::tensor::ops::simd::{
    detected_tier, group_moments, set_tier, sgdm_sweep, sgdm_sweep_pair, Predict, SimdTier,
    SweepScalars,
};
use pipelined_backprop::tensor::ops::{
    conv2d, conv2d_backward, conv2d_direct, conv2d_direct_backward_input,
    conv2d_direct_backward_weight, conv2d_direct_backward_weight_staged, conv2d_direct_staging,
    gemm_nn, gemm_nt, gemm_tn, reference, Conv2dSpec,
};
use pipelined_backprop::tensor::{pool, GradView, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes the tests that sweep the process-wide SIMD tier, so each
/// sweep runs the tier it names (every tier yields the same bits, so the
/// other tests need no lock).
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// The tiers this CPU can run, weakest first.
fn supported_tiers() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2Fma, SimdTier::Avx512Fma]
        .into_iter()
        .filter(|&t| t <= detected_tier())
        .collect()
}

/// Thread counts every kernel is swept over (1 = forced serial, 2 and 8
/// exercise the worker pool with fewer and more workers than chunks).
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{context}: element {i} differs: {g:?} ({:#010x}) vs {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

proptest! {
    // Each case checks three layouts × two accumulate modes × three thread
    // counts; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three GEMM layouts, both accumulate modes, every thread count:
    /// bit-identical to the naive reference. Shape ranges straddle the
    /// simple/tiled dispatch threshold (m·k·n from ~1 to ~200k elements).
    #[test]
    fn gemm_matches_reference_bitwise(
        m in 1usize..96,
        k in 1usize..64,
        n in 1usize..96,
        seed in 0u64..10_000,
    ) {
        let a_nn = rand_vec(m * k, seed);
        let b_nn = rand_vec(k * n, seed ^ 1);
        let b_nt = rand_vec(n * k, seed ^ 2);
        let a_tn = rand_vec(k * m, seed ^ 3);
        let init = rand_vec(m * n, seed ^ 4);
        for &threads in &THREAD_SWEEP {
            pool::set_max_threads(threads);
            for acc in [false, true] {
                let mut want = if acc { init.clone() } else { vec![0.0; m * n] };
                let mut got = want.clone();

                gemm_nn(&a_nn, &b_nn, &mut got, m, k, n, acc);
                reference::matmul_acc_ref(&a_nn, &b_nn, &mut want, m, k, n);
                assert_bits_eq(&got, &want, &format!("nn {m}x{k}x{n} acc={acc} t={threads}"));

                let mut want = if acc { init.clone() } else { vec![0.0; m * n] };
                let mut got = want.clone();
                gemm_nt(&a_nn, &b_nt, &mut got, m, k, n, acc);
                reference::matmul_nt_acc_ref(&a_nn, &b_nt, &mut want, m, k, n);
                assert_bits_eq(&got, &want, &format!("nt {m}x{k}x{n} acc={acc} t={threads}"));

                let mut want = if acc { init.clone() } else { vec![0.0; m * n] };
                let mut got = want.clone();
                gemm_tn(&a_tn, &b_nn, &mut got, m, k, n, acc);
                reference::matmul_tn_acc_ref(&a_tn, &b_nn, &mut want, m, k, n);
                assert_bits_eq(&got, &want, &format!("tn {m}x{k}x{n} acc={acc} t={threads}"));
            }
        }
        pool::set_max_threads(1);
    }

    /// The batch-1 `A·Bᵀ` path (`m = 1`: every `Linear::forward` at batch
    /// one) leaves fewer than a vector of outputs to one-lane passes of 8,
    /// then 4, then 1 dot chains; output widths on both sides of each
    /// boundary exercise every combination of passes.
    #[test]
    fn nt_at_batch_one_matches_reference_across_chain_widths(
        k in 1usize..300,
        seed in 0u64..10_000,
    ) {
        for n in [7usize, 8, 9, 15, 17] {
            let a = rand_vec(k, seed);
            let b = rand_vec(n * k, seed ^ 1);
            let init = rand_vec(n, seed ^ 2);
            for acc in [false, true] {
                let mut want = if acc { init.clone() } else { vec![0.0; n] };
                let mut got = want.clone();
                gemm_nt(&a, &b, &mut got, 1, k, n, acc);
                reference::matmul_nt_acc_ref(&a, &b, &mut want, 1, k, n);
                assert_bits_eq(&got, &want, &format!("nt 1x{k}x{n} acc={acc}"));
            }
        }
    }

    /// The lane-per-output `A·Bᵀ` row kernel on the grid of its boundaries:
    /// reductions and output widths one short of, at and one past a vector
    /// of every lane type, a ragged `k` tail after many whole blocks, and
    /// `m = 3` for the rows after the first (below the tiled threshold
    /// wherever `3·k·n` is). Overwrite and accumulate, on whatever tier
    /// the process resolved.
    #[test]
    fn nt_row_kernel_matches_reference_on_the_lane_boundary_grid(seed in 0u64..10_000) {
        for m in [1usize, 3] {
            for k in [1usize, 2, 15, 16, 17, 64, 1027] {
                for n in [1usize, 3, 10, 15, 16, 17, 64, 256] {
                    let a = rand_vec(m * k, seed);
                    let b = rand_vec(n * k, seed ^ 1);
                    let init = rand_vec(m * n, seed ^ 2);
                    for acc in [false, true] {
                        let mut want = if acc { init.clone() } else { vec![0.0; m * n] };
                        let mut got = want.clone();
                        gemm_nt(&a, &b, &mut got, m, k, n, acc);
                        reference::matmul_nt_acc_ref(&a, &b, &mut want, m, k, n);
                        assert_bits_eq(&got, &want, &format!("nt {m}x{k}x{n} acc={acc}"));
                    }
                }
            }
        }
    }

    /// Conv forward over random geometry (kernel, stride, padding, spatial
    /// size, channels 1/2/3/16, batches 1–2): GEMM-lowered im2col path,
    /// the direct kernel and the training forward that keeps its staged
    /// images vs the six-loop direct reference, at every thread count.
    #[test]
    fn conv2d_forward_matches_reference_bitwise(
        cin_pick in 0usize..4,
        cout in 1usize..5,
        kernel in 1usize..5,
        stride in 1usize..4,
        padding in 0usize..3,
        extra_h in 0usize..6,
        extra_w in 0usize..6,
        batch in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let cin = [1, 2, 3, 16][cin_pick];
        let (h, w) = (kernel + extra_h, kernel + extra_w);
        let spec = Conv2dSpec::new(cin, cout, kernel, stride, padding).unwrap();
        let x = Tensor::from_vec(rand_vec(batch * cin * h * w, seed), &[batch, cin, h, w]).unwrap();
        let wt = Tensor::from_vec(rand_vec(cout * spec.fan_in(), seed ^ 1), &spec.weight_shape())
            .unwrap();
        let want = reference::conv2d_ref(&x, &wt, &spec);
        for &threads in &THREAD_SWEEP {
            pool::set_max_threads(threads);
            let ctx = format!("conv fwd {cin}ch k={kernel} s={stride} p={padding} {h}x{w} t={threads}");
            let (got, _) = conv2d(&x, &wt, &spec).unwrap();
            prop_assert_eq!(got.shape(), want.shape());
            assert_bits_eq(got.as_slice(), want.as_slice(), &format!("{ctx}: lowered"));
            let direct = conv2d_direct(&x, &wt, &spec).unwrap();
            assert_bits_eq(direct.as_slice(), want.as_slice(), &format!("{ctx}: direct"));
            let (staging, staged) = conv2d_direct_staging(&x, &wt, &spec).unwrap();
            prop_assert_eq!(staged.input_shape(), [batch, cin, h, w]);
            assert_bits_eq(staging.as_slice(), want.as_slice(), &format!("{ctx}: staging"));
        }
        pool::set_max_threads(1);
    }

    /// Conv backward (input gradient AND weight gradient) over random
    /// geometry — channels 1/2/3/16, batches 1–3: the GEMM-lowered path,
    /// the direct input half (its stride-2 unstaging an interleave) and
    /// the direct weight half on the images a training forward staged,
    /// added into a gradient that already holds a sum, vs the direct
    /// reference, bitwise, at every thread count.
    #[test]
    fn conv2d_backward_matches_reference_bitwise(
        cin_pick in 0usize..4,
        cout in 1usize..5,
        kernel in 1usize..4,
        stride in 1usize..4,
        padding in 0usize..3,
        extra_h in 0usize..5,
        extra_w in 0usize..5,
        batch in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let cin = [1, 2, 3, 16][cin_pick];
        let (h, w) = (kernel + extra_h, kernel + extra_w);
        let spec = Conv2dSpec::new(cin, cout, kernel, stride, padding).unwrap();
        let x = Tensor::from_vec(rand_vec(batch * cin * h * w, seed), &[batch, cin, h, w]).unwrap();
        let wt = Tensor::from_vec(rand_vec(cout * spec.fan_in(), seed ^ 1), &spec.weight_shape())
            .unwrap();
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let g = Tensor::from_vec(
            rand_vec(batch * cout * oh * ow, seed ^ 2),
            &[batch, cout, oh, ow],
        )
        .unwrap();
        let (want_gx, want_gw) = reference::conv2d_backward_ref(&g, &x, &wt, &spec);
        let held = rand_vec(want_gw.len(), seed ^ 3);
        let want_sum: Vec<f32> = held.iter().zip(want_gw.as_slice()).map(|(a, b)| a + b).collect();
        for &threads in &THREAD_SWEEP {
            pool::set_max_threads(threads);
            let ctx = format!(
                "conv bwd {cin}ch n={batch} k={kernel} s={stride} p={padding} {h}x{w} t={threads}"
            );
            let (_, cols) = conv2d(&x, &wt, &spec).unwrap();
            let (gx, gw) = conv2d_backward(&g, &wt, &cols, (h, w), &spec).unwrap();
            assert_bits_eq(gx.as_slice(), want_gx.as_slice(), &format!("{ctx}: grad_in"));
            assert_bits_eq(gw.as_slice(), want_gw.as_slice(), &format!("{ctx}: grad_w"));
            let direct_gx = conv2d_direct_backward_input(&g, &wt, (h, w), &spec).unwrap();
            assert_bits_eq(
                direct_gx.as_slice(),
                want_gx.as_slice(),
                &format!("{ctx}: direct grad_in"),
            );
            let (_, staged) = conv2d_direct_staging(&x, &wt, &spec).unwrap();
            let mut sum = Tensor::from_vec(held.clone(), &spec.weight_shape()).unwrap();
            conv2d_direct_backward_weight_staged(&g, &staged, &mut sum).unwrap();
            assert_bits_eq(sum.as_slice(), &want_sum, &format!("{ctx}: staged grad_w added"));
        }
        pool::set_max_threads(1);
    }
}

/// Large products in all three layouts, swept across the parallel-dispatch
/// boundary *and* every SIMD tier this CPU supports, bitwise against the
/// scalar reference. The cutoff is per-thread work
/// (`PAR_MIN_ELEMS_PER_THREAD`), so the sweep deliberately crosses it both
/// ways: 256·128·256 = 8.4M elems goes parallel at 2 and 8 threads, while
/// the ragged 251·67·233 = 3.9M goes parallel at 2 threads but stays
/// serial at 8 (too little work per worker) — same bytes either side of
/// the boundary. 67·300·45 reaches the ragged ends of the tile and the
/// pack at once: a 3-row tile after eight 8-row ones (four-row tiers: after
/// sixteen), a second, 44-deep `KC` panel (two 16-column transposed blocks
/// and a ragged one) and a 13-wide last column tile.
#[test]
fn large_gemm_is_bitwise_exact_across_threads_and_tiers() {
    let _tier = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tiers = supported_tiers();
    for &(m, k, n) in &[
        (256usize, 128usize, 256usize),
        (251, 67, 233),
        (67, 300, 45),
    ] {
        let a = rand_vec(m * k, 77);
        let b = rand_vec(k * n, 78);
        let bt = rand_vec(n * k, 79);
        let at = rand_vec(k * m, 80);
        let mut want_nn = vec![0.0; m * n];
        reference::matmul_ref(&a, &b, &mut want_nn, m, k, n);
        let mut want_nt = vec![0.0; m * n];
        reference::matmul_nt_ref(&a, &bt, &mut want_nt, m, k, n);
        let mut want_tn = vec![0.0; m * n];
        reference::matmul_tn_ref(&at, &b, &mut want_tn, m, k, n);
        for &threads in &THREAD_SWEEP {
            pool::set_max_threads(threads);
            for &tier in &tiers {
                set_tier(tier);
                let ctx = |layout: &str| {
                    format!(
                        "large {layout} {m}x{k}x{n} t={threads} tier={}",
                        tier.name()
                    )
                };
                let mut got = vec![0.0; m * n];
                gemm_nn(&a, &b, &mut got, m, k, n, false);
                assert_bits_eq(&got, &want_nn, &ctx("nn"));
                gemm_nt(&a, &bt, &mut got, m, k, n, false);
                assert_bits_eq(&got, &want_nt, &ctx("nt"));
                gemm_tn(&at, &b, &mut got, m, k, n, false);
                assert_bits_eq(&got, &want_tn, &ctx("tn"));
            }
        }
    }
    set_tier(detected_tier());
    pool::set_max_threads(1);
}

/// Tensor-level matmul methods agree bitwise with explicit transposition,
/// which pins the wrapper plumbing (shape checks, operand order) on top of
/// the raw kernels.
#[test]
fn tensor_matmul_variants_agree_with_explicit_transposes() {
    let a = Tensor::from_vec(rand_vec(12 * 20, 5), &[12, 20]).unwrap();
    let b = Tensor::from_vec(rand_vec(20 * 9, 6), &[20, 9]).unwrap();
    let want = a.matmul(&b).unwrap();

    let bt = b.transpose().unwrap();
    let got_nt = a.matmul_transpose_b(&bt).unwrap();
    assert_bits_eq(got_nt.as_slice(), want.as_slice(), "matmul_transpose_b");

    let at = a.transpose().unwrap();
    let got_tn = at.matmul_transpose_a(&b).unwrap();
    assert_bits_eq(got_tn.as_slice(), want.as_slice(), "matmul_transpose_a");
}

/// im2col's zero padding injects exact `0.0` products; the direct reference
/// skips out-of-bounds taps entirely. These must still agree bitwise
/// (adding `±0.0` to a chain whose accumulator starts at `+0.0` never
/// changes the bits), including on an all-negative input that would expose
/// a `-0.0` discrepancy if one existed.
#[test]
fn padded_conv_zero_products_do_not_perturb_bits() {
    let spec = Conv2dSpec::new(2, 3, 3, 1, 2).unwrap();
    let x = Tensor::from_vec(
        rand_vec(2 * 4 * 4, 21).iter().map(|v| -v.abs()).collect(),
        &[1, 2, 4, 4],
    )
    .unwrap();
    let wt = Tensor::from_vec(rand_vec(3 * spec.fan_in(), 22), &spec.weight_shape()).unwrap();
    let want = reference::conv2d_ref(&x, &wt, &spec);
    let (got, _) = conv2d(&x, &wt, &spec).unwrap();
    assert_bits_eq(got.as_slice(), want.as_slice(), "padded all-negative conv");
}

/// Inputs for the direct-kernel grid: plain random values, the all-negative
/// case of the test above, and a mix salted with `+0.0`, `-0.0` and
/// subnormals of both signs (around 1e-40: their products with the O(1)
/// weights are subnormal too, and exact).
fn flavoured(len: usize, seed: u64, flavour: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let v = rng.gen_range(-2.0f32..2.0);
            match flavour {
                0 => v,
                1 => -v.abs(),
                _ => match rng.gen_range(0u32..8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => v * 1e-40,
                    _ => v,
                },
            }
        })
        .collect()
}

/// The three direct batch-of-one kernels against the six-loop reference
/// *and* the GEMM-lowered path, bitwise, on every tier: channel counts on
/// both sides of every block height and vector width (1, 3, 5, 16, 17;
/// output channels also 12 = 8 + 4 and 29 = 16 + 8 + 4 + 1, which reach
/// the forward's eight- and four-row blocks of the tap-major bank on every
/// tier), kernels 1/3/5, strides 1/2/3 (the staging kernels' stride-1
/// copy, stride-2 (de)interleave and strided path), paddings 0/1/2,
/// non-square images, two samples (the weight gradient adds the second as
/// a completed subtotal) or, every fourth case, nine: two whole
/// four-sample chunks of the batch-parallel forward and a ragged one. The
/// training forward's staged images feed the staged weight half, which
/// must add the same gradient into a zeroed tensor.
#[test]
fn direct_conv_matches_reference_and_lowered_bitwise_on_every_tier() {
    let _tier = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tiers = supported_tiers();
    let mut case = 0u64;
    for &cin in &[1usize, 3, 5, 16, 17] {
        for &cout in &[1usize, 3, 5, 12, 16, 17, 29] {
            for &kernel in &[1usize, 3, 5] {
                for &stride in &[1usize, 2, 3] {
                    for &padding in &[0usize, 1, 2] {
                        case += 1;
                        let flavour = (case % 3) as usize;
                        let n = if case.is_multiple_of(4) { 9 } else { 2 };
                        let (h, w) = (kernel + 2 + (case % 3) as usize, kernel + 6);
                        let spec = Conv2dSpec::new(cin, cout, kernel, stride, padding).unwrap();
                        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
                        let x = Tensor::from_vec(
                            flavoured(n * cin * h * w, case, flavour),
                            &[n, cin, h, w],
                        )
                        .unwrap();
                        let wt = Tensor::from_vec(
                            rand_vec(cout * spec.fan_in(), case ^ 0x100),
                            &spec.weight_shape(),
                        )
                        .unwrap();
                        let g = Tensor::from_vec(
                            flavoured(n * cout * oh * ow, case ^ 0x200, flavour),
                            &[n, cout, oh, ow],
                        )
                        .unwrap();
                        let want_y = reference::conv2d_ref(&x, &wt, &spec);
                        let (want_gx, want_gw) = reference::conv2d_backward_ref(&g, &x, &wt, &spec);
                        let (low_y, cols) = conv2d(&x, &wt, &spec).unwrap();
                        let (low_gx, low_gw) =
                            conv2d_backward(&g, &wt, &cols, (h, w), &spec).unwrap();
                        for &tier in &tiers {
                            set_tier(tier);
                            let ctx = format!(
                                "direct conv {cin}->{cout} k={kernel} s={stride} p={padding} \
                                 {h}x{w} flavour={flavour} tier={}",
                                tier.name()
                            );
                            let y = conv2d_direct(&x, &wt, &spec).unwrap();
                            let gx = conv2d_direct_backward_input(&g, &wt, (h, w), &spec).unwrap();
                            let gw = conv2d_direct_backward_weight(&g, &x, &spec).unwrap();
                            let (y_staging, staged) =
                                conv2d_direct_staging(&x, &wt, &spec).unwrap();
                            let mut gw_staged = Tensor::zeros(&spec.weight_shape());
                            conv2d_direct_backward_weight_staged(&g, &staged, &mut gw_staged)
                                .unwrap();
                            assert_eq!(y.shape(), want_y.shape(), "{ctx}");
                            assert_eq!(gx.shape(), want_gx.shape(), "{ctx}");
                            assert_eq!(gw.shape(), want_gw.shape(), "{ctx}");
                            for (got, want, low, what) in [
                                (&y, &want_y, &low_y, "forward"),
                                (&y_staging, &want_y, &low_y, "staging forward"),
                                (&gx, &want_gx, &low_gx, "grad_in"),
                                (&gw, &want_gw, &low_gw, "grad_w"),
                                (&gw_staged, &want_gw, &low_gw, "staged grad_w"),
                            ] {
                                assert_bits_eq(
                                    got.as_slice(),
                                    want.as_slice(),
                                    &format!("{ctx}: {what} vs reference"),
                                );
                                assert_bits_eq(
                                    got.as_slice(),
                                    low.as_slice(),
                                    &format!("{ctx}: {what} vs lowered"),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    set_tier(detected_tier());
}

/// One run of group-moment inputs in one of six flavours: offset normals
/// (every add of a chain rounds), signed zeros and subnormals, a mix of
/// ±1e30 and ±1e-30 (an association change moves the sum), a NaN among
/// normals, ±inf among normals (both signs: the mean is the NaN `inf − inf`
/// makes), and all `-0.0`. NaN and infinities never share a run, so a run
/// that goes NaN has one NaN to propagate.
fn moment_run(len: usize, seed: u64, flavour: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run: Vec<f32> = (0..len)
        .map(|_| {
            let v = rng.gen_range(-2.0f32..2.0);
            match flavour {
                0 => 3.0 + 2.0 * v,
                1 => match rng.gen_range(0u32..5) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => v * 1e-40,
                    _ => v * 1e-3,
                },
                2 => match rng.gen_range(0u32..4) {
                    0 => 1e30,
                    1 => -1e30,
                    2 => v * 1e-30,
                    _ => v,
                },
                5 => -0.0,
                _ => v,
            }
        })
        .collect();
    match flavour {
        3 => run[rng.gen_range(0..len)] = f32::NAN,
        4 => {
            run[rng.gen_range(0..len)] = f32::INFINITY;
            run[rng.gen_range(0..len)] = f32::NEG_INFINITY;
        }
        _ => {}
    }
    run
}

/// GroupNorm's statistics kernel against the sums it stands for, bitwise,
/// on every tier: each group's mean is `run.iter().map(|&v| v as f64)
/// .sum::<f64>() / len` and its squared deviation the same sum over
/// `d * d`, `d = v as f64 − mean`. Group counts 1..=17 cover no whole
/// block of eight, one, one and a tail, and two blocks stepped together
/// with a tail; run lengths 1, 7, 9, 98 and 512 cover runs shorter than
/// the eight-value transpose, a transpose and a tail, and the serving
/// net's groups (2 × 7² and 2 × 16²).
#[test]
fn group_moments_equal_the_per_group_sums_bitwise_on_every_tier() {
    let _tier = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for groups in 1..=17usize {
        for len in [1usize, 7, 9, 98, 512] {
            let seed = (groups * 1000 + len) as u64;
            let xs: Vec<f32> = (0..groups)
                .flat_map(|j| moment_run(len, seed + j as u64, (j + groups) % 6))
                .collect();
            let (mut want_means, mut want_sq) = (Vec::new(), Vec::new());
            for run in xs.chunks_exact(len) {
                let mean = run.iter().map(|&v| v as f64).sum::<f64>() / len as f64;
                let sq = run
                    .iter()
                    .map(|&v| {
                        let d = v as f64 - mean;
                        d * d
                    })
                    .sum::<f64>();
                want_means.push(mean.to_bits());
                want_sq.push(sq.to_bits());
            }
            for tier in supported_tiers() {
                set_tier(tier);
                // Stale values in the outputs: the kernel writes them all.
                let (mut means, mut sq) = (vec![7.5f64; groups], vec![-7.5f64; groups]);
                group_moments(&xs, len, &mut means, &mut sq);
                let ctx = format!("{groups} groups of {len}, tier {}", tier.name());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&means), want_means, "{ctx}: means");
                assert_eq!(bits(&sq), want_sq, "{ctx}: squared deviations");
            }
        }
    }
    set_tier(detected_tier());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The update sweep with its input-gradient side output — a batch-1
    /// `Linear`'s backward and update in one pass over `W` — against the
    /// two passes it replaces: `gemm_nn(δ, W)` at `m = 1`, then the sweep
    /// without it. `gx`, `w`, `v`, `next` and `prev` bitwise, on the tier
    /// the process resolved (`PBP_SIMD` picks it), for every forward-version
    /// form, with and without `prev`, plain SGDM's and SCD's coefficients,
    /// a gradient scale of one or not, widths on and off every vector
    /// boundary, and inputs salted with `±0.0` and subnormals.
    #[test]
    fn fused_sweep_equals_gemm_then_sweep_bitwise(
        rows in 1usize..20,
        cols in 1usize..70,
        seed in 0u64..10_000,
        flavour in 0usize..3,
        form in 0usize..4,
        flags in 0u32..8,
    ) {
        let (with_prev, scd, shrink) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let n = rows * cols;
        let delta = flavoured(rows, seed, flavour);
        let x = flavoured(cols, seed + 1, flavour);
        let w0 = flavoured(n, seed + 2, flavour);
        let v0 = flavoured(n, seed + 3, flavour);
        let (a, b) = if scd { (0.6561, 3.439) } else { (1.0, 0.0) };
        let k = SweepScalars {
            grad_scale: if shrink { 0.3 } else { 1.0 },
            momentum: 0.9,
            lr: 0.05,
            a,
            b,
        };
        let predict = [
            None,
            Some(Predict::Copy),
            Some(Predict::Velocity { alpha: -0.35 }),
            Some(Predict::WeightDiff { horizon: 2.0 }),
        ][form];
        let g = GradView::Outer { delta: &delta, x: &x };
        // Stale bytes in the outputs the sweep overwrites.
        let fresh = || (w0.clone(), v0.clone(), vec![7.0f32; n], vec![7.0f32; n]);

        let (mut w, mut v, mut prev, mut next) = fresh();
        let mut gx_split = vec![1.0f32; cols];
        gemm_nn(&delta, &w, &mut gx_split, 1, rows, cols, false);
        sgdm_sweep(
            k,
            g,
            &mut v,
            &mut w,
            with_prev.then_some(prev.as_mut_slice()),
            predict.map(|p| (next.as_mut_slice(), p)),
            None,
        );
        let split = [w, v, prev, next];

        let (mut w, mut v, mut prev, mut next) = fresh();
        let mut gx_fused = vec![0.0f32; cols];
        sgdm_sweep(
            k,
            g,
            &mut v,
            &mut w,
            with_prev.then_some(prev.as_mut_slice()),
            predict.map(|p| (next.as_mut_slice(), p)),
            Some(&mut gx_fused),
        );
        let fused = [w, v, prev, next];

        let context = format!("{rows}x{cols} seed {seed} flavour {flavour} {k:?} {predict:?}");
        assert_bits_eq(&gx_fused, &gx_split, &format!("{context}: gx"));
        for (name, (f, s)) in ["w", "v", "prev", "next"].iter().zip(fused.iter().zip(&split)) {
            assert_bits_eq(f, s, &format!("{context}: {name}"));
        }
    }

    /// The two-update sweep — one pass over `w` and `v` for a `Linear`'s
    /// two consecutive updates, the second from the row the first just
    /// wrote — is two sequential [`sgdm_sweep`]s bit for bit, on the tier
    /// the process resolved: random row and column counts (tails off every
    /// vector width), every forward-version form, with and without `prev`
    /// and `gx`, and scalars drawn per update (SCD's or SGDM's `a`, `b`,
    /// gradient scale, momentum, learning rate, the form's parameter).
    #[test]
    fn pair_sweep_equals_two_sweeps_bitwise(
        rows in 1usize..12,
        cols in 1usize..70,
        seed in 0u64..10_000,
        flavour in 0usize..3,
        form in 0usize..4,
        flags in 0u32..4,
    ) {
        let (with_prev, with_gx) = (flags & 1 != 0, flags & 2 != 0);
        let n = rows * cols;
        let mut rng = StdRng::seed_from_u64(seed);
        let delta = [flavoured(rows, seed, flavour), flavoured(rows, seed + 4, flavour)];
        let x = [flavoured(cols, seed + 1, flavour), flavoured(cols, seed + 5, flavour)];
        let w0 = flavoured(n, seed + 2, flavour);
        let v0 = flavoured(n, seed + 3, flavour);
        let mut scalars = || {
            let (a, b) = if rng.gen() { (0.6561, 3.439) } else { (1.0, 0.0) };
            let k = SweepScalars {
                grad_scale: if rng.gen() { 0.3 } else { 1.0 },
                momentum: rng.gen_range(0.5f32..0.95),
                lr: rng.gen_range(0.001f32..0.1),
                a,
                b,
            };
            let t = rng.gen_range(0.5f32..4.0);
            let predict = [
                None,
                Some(Predict::Copy),
                Some(Predict::Velocity { alpha: -k.lr * t }),
                Some(Predict::WeightDiff { horizon: t }),
            ][form];
            (k, predict)
        };
        let ((k0, p0), (k1, p1)) = (scalars(), scalars());
        // Stale bytes in the outputs the sweeps overwrite.
        let fresh = || {
            let stale = || vec![7.0f32; n];
            (w0.clone(), v0.clone(), stale(), [stale(), stale()], [vec![0.0f32; cols], vec![0.0f32; cols]])
        };

        let (mut w, mut v, mut prev, mut next, mut gx) = fresh();
        for (u, (k, p)) in [(k0, p0), (k1, p1)].into_iter().enumerate() {
            sgdm_sweep(
                k,
                GradView::Outer { delta: &delta[u], x: &x[u] },
                &mut v,
                &mut w,
                with_prev.then_some(prev.as_mut_slice()),
                p.map(|p| (next[u].as_mut_slice(), p)),
                with_gx.then_some(gx[u].as_mut_slice()),
            );
        }
        let two = [w, v, prev, next[0].clone(), next[1].clone(), gx[0].clone(), gx[1].clone()];

        let (mut w, mut v, mut prev, mut next, mut gx) = fresh();
        let [n0, n1] = &mut next;
        let [g0, g1] = &mut gx;
        sgdm_sweep_pair(
            [k0, k1],
            [(&delta[0], &x[0]), (&delta[1], &x[1])],
            &mut v,
            &mut w,
            with_prev.then_some(prev.as_mut_slice()),
            p0.zip(p1).map(|(p0, p1)| ([n0.as_mut_slice(), n1.as_mut_slice()], [p0, p1])),
            with_gx.then_some([g0.as_mut_slice(), g1.as_mut_slice()]),
        );
        let [n0, n1] = next;
        let [g0, g1] = gx;
        let pair = [w, v, prev, n0, n1, g0, g1];

        let context = format!("{rows}x{cols} seed {seed} flavour {flavour} {k0:?} {k1:?} {p0:?} {p1:?}");
        let names = ["w", "v", "prev", "next0", "next1", "gx0", "gx1"];
        for (name, (p, t)) in names.iter().zip(pair.iter().zip(&two)) {
            assert_bits_eq(p, t, &format!("{context}: {name}"));
        }
    }
}
