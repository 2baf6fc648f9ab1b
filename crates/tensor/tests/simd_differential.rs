//! Differential suite for the SIMD GEMM micro-kernels.
//!
//! Every SIMD tier (`scalar`, `avx2`, `avx512`) computes each output
//! element as one fused-multiply-add chain in increasing `k` order, and an
//! IEEE 754 fma rounds exactly once — so the tiers are the *same function*
//! and every comparison here is `to_bits` equality, never a tolerance (see
//! `pbp_tensor::ops::simd`). The shapes are chosen to hit the dispatch
//! edges: full-height register tiles (8 rows on AVX-512, 4 on the other
//! tiers, `NR` columns), ragged `nr < NR` right-edge tiles (masked SIMD
//! variants — every width 1..NR swept below), shorter row remainders,
//! single and multiple `KC` panels, the short-reduction `tn` path, the
//! small-shape `simple` path (whose `nn`/`tn` row sweeps also dispatch to
//! the per-tier axpy micro-kernels), and non-finite inputs.
//!
//! Tier and thread caps are process globals; `GLOBALS_LOCK` serializes the
//! tests that flip them so each test measures the configuration it names.
//! (Correctness never depends on the lock — every configuration yields the
//! same bits — it only keeps the tests honest about what they exercised.)

use pbp_tensor::ops::simd::{detected_tier, set_tier, SimdTier};
use pbp_tensor::ops::{gemm_nn, gemm_nt, gemm_tn, reference};
use pbp_tensor::pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static GLOBALS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The tiers this CPU can actually run, weakest first.
fn supported_tiers() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2Fma, SimdTier::Avx512Fma]
        .into_iter()
        .filter(|&t| t <= detected_tier())
        .collect()
}

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

/// Shapes straddling every micro-kernel edge. Tile rows 8 (AVX-512) or 4,
/// `NR = 16`, `KC = 256`, tiled threshold 16·1024 elements (see
/// `ops::gemm`).
const EDGE_SHAPES: [(usize, usize, usize, &str); 6] = [
    // Below the tiled threshold: the `simple` path, no SIMD dispatch at
    // all — pins that the dispatch *boundary* is also tier-independent.
    (4, 16, 16, "simple-path"),
    // Exactly one full 8×NR tile (two 4-row ones), k = KC exactly (one
    // full panel).
    (8, 256, 16, "one-full-tile"),
    // Ragged rows (9 = 8 + 1 = 2·4 + 1) and columns (150 = 9·NR + 6),
    // k < KC: SIMD tiles and scalar edge tiles meet in one output.
    (9, 120, 150, "ragged-both"),
    // k > KC: two k-panels accumulate into the same tile (load_c path).
    (8, 300, 32, "two-panels"),
    // Fewer rows than a tile everywhere, exactly NR wide, multi-panel.
    (3, 400, 16, "short-rows"),
    // Everything at once: ragged rows, ragged columns, two panels.
    (5, 260, 47, "ragged-multi-panel"),
];

/// All three layouts × both accumulate modes × every supported tier, over
/// the edge shapes, against the naive reference — bitwise.
#[test]
fn every_tier_matches_reference_bitwise_across_edge_shapes() {
    let _g = lock();
    pool::set_max_threads(1);
    for &(m, k, n, tag) in &EDGE_SHAPES {
        let a_nn = rand_vec(m * k, 11);
        let b_nn = rand_vec(k * n, 12);
        let b_nt = rand_vec(n * k, 13);
        let a_tn = rand_vec(k * m, 14);
        let init = rand_vec(m * n, 15);
        for acc in [false, true] {
            let base = if acc { init.clone() } else { vec![0.0; m * n] };

            let mut want = base.clone();
            reference::matmul_acc_ref(&a_nn, &b_nn, &mut want, m, k, n);
            let mut want_nt = base.clone();
            reference::matmul_nt_acc_ref(&a_nn, &b_nt, &mut want_nt, m, k, n);
            let mut want_tn = base.clone();
            reference::matmul_tn_acc_ref(&a_tn, &b_nn, &mut want_tn, m, k, n);

            for tier in supported_tiers() {
                set_tier(tier);
                let ctx = |layout: &str| {
                    format!("{layout} {tag} {m}x{k}x{n} acc={acc} tier={}", tier.name())
                };
                let mut got = base.clone();
                gemm_nn(&a_nn, &b_nn, &mut got, m, k, n, acc);
                assert_bits_eq(&got, &want, &ctx("nn"));

                let mut got = base.clone();
                gemm_nt(&a_nn, &b_nt, &mut got, m, k, n, acc);
                assert_bits_eq(&got, &want_nt, &ctx("nt"));

                let mut got = base.clone();
                gemm_tn(&a_tn, &b_nn, &mut got, m, k, n, acc);
                assert_bits_eq(&got, &want_tn, &ctx("tn"));
            }
        }
    }
    set_tier(detected_tier());
    pool::set_max_threads(1);
}

/// The full dispatch grid — pool on/off × SIMD tier — on a product large
/// enough to take the parallel tiled path when threads allow it. Every
/// cell must produce the same bytes as the serial scalar reference.
#[test]
fn pool_and_simd_grid_stays_bit_identical() {
    let _g = lock();
    let (m, k, n) = (260usize, 100usize, 260usize);
    let a = rand_vec(m * k, 21);
    let b = rand_vec(k * n, 22);
    let mut want = vec![0.0; m * n];
    reference::matmul_ref(&a, &b, &mut want, m, k, n);
    for &threads in &[1usize, 2, 8] {
        pool::set_max_threads(threads);
        for tier in supported_tiers() {
            set_tier(tier);
            let mut got = vec![0.0; m * n];
            gemm_nn(&a, &b, &mut got, m, k, n, false);
            assert_bits_eq(
                &got,
                &want,
                &format!("grid t={threads} tier={}", tier.name()),
            );
        }
    }
    set_tier(detected_tier());
    pool::set_max_threads(1);
}

/// The `tn` layout has a dedicated short-reduction path for
/// `k ≤ TN_AXPY_MAX_K` (axpy sweeps instead of packed tiles). Its sweeps
/// dispatch to the per-tier `axpy_row` micro-kernels, whose `vfmadd`
/// chains are the same exactly-rounded fmas as the scalar sweep — so
/// flipping tiers must not change a single bit.
#[test]
fn tn_short_reduction_is_tier_independent() {
    let _g = lock();
    pool::set_max_threads(1);
    let (m, k, n) = (130usize, 8usize, 130usize);
    let a_tn = rand_vec(k * m, 31);
    let b = rand_vec(k * n, 32);
    let init = rand_vec(m * n, 33);
    for acc in [false, true] {
        let mut want = if acc { init.clone() } else { vec![0.0; m * n] };
        reference::matmul_tn_acc_ref(&a_tn, &b, &mut want, m, k, n);
        for tier in supported_tiers() {
            set_tier(tier);
            let mut got = if acc { init.clone() } else { vec![0.0; m * n] };
            gemm_tn(&a_tn, &b, &mut got, m, k, n, acc);
            assert_bits_eq(
                &got,
                &want,
                &format!("tn-short k={k} acc={acc} tier={}", tier.name()),
            );
        }
    }
    set_tier(detected_tier());
}

/// The tn-axpy micro-kernel edges, per tier: shapes chosen so the chunk
/// grid splits by rows and by columns, row widths cover full vector lanes,
/// ragged tails shorter than one AVX2 lane, and `k` hits both 1 (a single
/// deferred weight-grad microbatch row) and `TN_AXPY_MAX_K` itself.
/// Bitwise against the naive reference in every cell.
#[test]
fn tn_axpy_micro_kernel_edges_match_reference_per_tier() {
    let _g = lock();
    pool::set_max_threads(1);
    const AXPY_SHAPES: [(usize, usize, usize, &str); 4] = [
        // n > m: chunked by columns (width 32, then a 5-wide scalar tail).
        (40, 5, 517, "by-cols-ragged-tail"),
        // m > n: chunked by rows, full-width sweeps with a 96-float row.
        (200, 3, 96, "by-rows-full-lanes"),
        // k at the dispatch boundary TN_AXPY_MAX_K = 24.
        (64, 24, 200, "k-at-boundary"),
        // k = 1: exactly the deferred Linear weight-grad shape (one
        // microbatch row), overwrite mode is a single zero-init sweep.
        (140, 1, 140, "k-one"),
    ];
    for &(m, k, n, tag) in &AXPY_SHAPES {
        let a_tn = rand_vec(k * m, 61);
        let b = rand_vec(k * n, 62);
        let init = rand_vec(m * n, 63);
        for acc in [false, true] {
            let mut want = if acc { init.clone() } else { vec![0.0; m * n] };
            reference::matmul_tn_acc_ref(&a_tn, &b, &mut want, m, k, n);
            for tier in supported_tiers() {
                set_tier(tier);
                let mut got = if acc { init.clone() } else { vec![0.0; m * n] };
                gemm_tn(&a_tn, &b, &mut got, m, k, n, acc);
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("tn-axpy {tag} {m}x{k}x{n} acc={acc} tier={}", tier.name()),
                );
            }
        }
    }
    set_tier(detected_tier());
}

/// Every ragged right-edge width `nr` in `1..NR`, per tier, per layout.
/// The masked micro-kernels read the zero-padded packed `B` panel at full
/// width and mask only the `C` loads/stores — masked-off lanes may compute
/// on the padding but are never stored, so each width must match the
/// scalar tile (and the naive reference) bit for bit. `n = NR + nr` gives
/// one full-width tile followed by the ragged edge; `m = 9` adds a one-row
/// remainder after full-height tiles on every tier; `k` spans two `KC` panels so the masked
/// `load_c` path (accumulating the second panel onto the first) runs too.
#[test]
fn every_ragged_edge_width_matches_reference_per_tier() {
    let _g = lock();
    pool::set_max_threads(1);
    let (m, k) = (9usize, 300usize);
    for nr in 1..16usize {
        let n = 16 + nr;
        let a_nn = rand_vec(m * k, 100 + nr as u64);
        let b_nn = rand_vec(k * n, 200 + nr as u64);
        let a_tn = rand_vec(k * m, 300 + nr as u64);
        let b_nt = rand_vec(n * k, 400 + nr as u64);
        let init = rand_vec(m * n, 500 + nr as u64);
        for acc in [false, true] {
            let base = if acc { init.clone() } else { vec![0.0; m * n] };
            let mut want = base.clone();
            reference::matmul_acc_ref(&a_nn, &b_nn, &mut want, m, k, n);
            let mut want_tn = base.clone();
            reference::matmul_tn_acc_ref(&a_tn, &b_nn, &mut want_tn, m, k, n);
            let mut want_nt = base.clone();
            reference::matmul_nt_acc_ref(&a_nn, &b_nt, &mut want_nt, m, k, n);
            for tier in supported_tiers() {
                set_tier(tier);
                let ctx = |layout: &str| format!("{layout} nr={nr} acc={acc} tier={}", tier.name());
                let mut got = base.clone();
                gemm_nn(&a_nn, &b_nn, &mut got, m, k, n, acc);
                assert_bits_eq(&got, &want, &ctx("ragged-nn"));
                let mut got = base.clone();
                gemm_tn(&a_tn, &b_nn, &mut got, m, k, n, acc);
                assert_bits_eq(&got, &want_tn, &ctx("ragged-tn"));
                let mut got = base.clone();
                gemm_nt(&a_nn, &b_nt, &mut got, m, k, n, acc);
                assert_bits_eq(&got, &want_nt, &ctx("ragged-nt"));
            }
        }
    }
    set_tier(detected_tier());
}

/// The small-shape `simple` path — everything under the tiled threshold,
/// every batch-1 training product — dispatches its `nn` and `tn` row
/// sweeps to the per-tier axpy micro-kernels. Sweep widths covering full
/// AVX-512/AVX2 lanes, sub-lane tails, and single columns, per tier,
/// bitwise against the reference.
#[test]
fn simple_path_small_shapes_are_tier_independent() {
    let _g = lock();
    pool::set_max_threads(1);
    for &n in &[1usize, 3, 7, 8, 9, 15, 16, 17, 23, 31] {
        let (m, k) = (6usize, 10usize);
        debug_assert!(m * k * n < 16 * 1024, "must stay on the simple path");
        let a_nn = rand_vec(m * k, 700 + n as u64);
        let b_nn = rand_vec(k * n, 800 + n as u64);
        let a_tn = rand_vec(k * m, 900 + n as u64);
        let b_nt = rand_vec(n * k, 1000 + n as u64);
        let mut want = vec![0.0; m * n];
        reference::matmul_ref(&a_nn, &b_nn, &mut want, m, k, n);
        let mut want_tn = vec![0.0; m * n];
        reference::matmul_tn_ref(&a_tn, &b_nn, &mut want_tn, m, k, n);
        let mut want_nt = vec![0.0; m * n];
        reference::matmul_nt_ref(&a_nn, &b_nt, &mut want_nt, m, k, n);
        for tier in supported_tiers() {
            set_tier(tier);
            let ctx = |layout: &str| format!("{layout} n={n} tier={}", tier.name());
            let mut got = vec![0.0; m * n];
            gemm_nn(&a_nn, &b_nn, &mut got, m, k, n, false);
            assert_bits_eq(&got, &want, &ctx("simple-nn"));
            let mut got = vec![0.0; m * n];
            gemm_tn(&a_tn, &b_nn, &mut got, m, k, n, false);
            assert_bits_eq(&got, &want_tn, &ctx("simple-tn"));
            let mut got = vec![0.0; m * n];
            gemm_nt(&a_nn, &b_nt, &mut got, m, k, n, false);
            assert_bits_eq(&got, &want_nt, &ctx("simple-nt"));
        }
    }
    set_tier(detected_tier());
}

/// Non-finite values flow through the same fma chains on every tier:
/// `vfmadd` and `f32::mul_add` share operand order, so NaN selection and
/// `∞·0 → NaN` land identically. Bitwise equality including NaN payloads.
#[test]
fn nan_and_inf_propagate_identically_across_tiers() {
    let _g = lock();
    pool::set_max_threads(1);
    // 8·64·32 = 16384 elements: exactly the tiled threshold, so the SIMD
    // tiles are in play; n = 2·NR keeps every column tile full width.
    let (m, k, n) = (8usize, 64usize, 32usize);
    let mut a = rand_vec(m * k, 41);
    let mut b = rand_vec(k * n, 42);
    a[3] = f32::NAN;
    a[m * k / 2] = f32::INFINITY;
    b[7] = f32::NEG_INFINITY;
    b[k * n - 5] = f32::NAN;
    b[11] = 0.0; // meets the ∞ row: exercises ∞·0 → NaN.

    set_tier(SimdTier::Scalar);
    let mut want = vec![0.0; m * n];
    gemm_nn(&a, &b, &mut want, m, k, n, false);
    assert!(
        want.iter().any(|v| v.is_nan()),
        "test inputs must actually produce NaNs"
    );
    let mut want_ref = vec![0.0; m * n];
    reference::matmul_ref(&a, &b, &mut want_ref, m, k, n);
    assert_bits_eq(&want, &want_ref, "scalar tier vs reference with NaN/∞");

    for tier in supported_tiers() {
        set_tier(tier);
        let mut got = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut got, m, k, n, false);
        assert_bits_eq(&got, &want, &format!("non-finite tier={}", tier.name()));
    }
    set_tier(detected_tier());
}

/// `set_tier(Scalar)` is the in-process face of the `PBP_SIMD=0` escape
/// hatch: after it, dispatch reports scalar regardless of CPU features
/// (the process-level env path is exercised by `scripts/check.sh`).
#[test]
fn scalar_override_wins_regardless_of_cpu_features() {
    let _g = lock();
    set_tier(SimdTier::Scalar);
    assert_eq!(pbp_tensor::ops::simd::active_tier(), SimdTier::Scalar);
    // And requesting more than the CPU has clamps, never lies.
    set_tier(SimdTier::Avx512Fma);
    assert_eq!(
        pbp_tensor::ops::simd::active_tier(),
        detected_tier().min(SimdTier::Avx512Fma)
    );
    set_tier(detected_tier());
}
