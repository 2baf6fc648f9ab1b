//! Explicit SIMD micro-kernels for the GEMM register tile.
//!
//! The scalar register tile in [`super::gemm`] accumulates every output
//! element as one fused-multiply-add chain in increasing `k` order. An IEEE
//! 754 fused multiply-add rounds exactly once, so `f32::mul_add` on the
//! scalar path and the `vfmadd` vector instructions here compute *the same
//! function* — the kernels in this module are bit-identical to the scalar
//! tile, on every input, by construction rather than by tolerance. That is
//! what lets runtime dispatch pick the fastest tier without perturbing the
//! differential contract against [`super::reference`].
//!
//! # Dispatch
//!
//! The active tier is resolved once per process from the `PBP_SIMD`
//! environment variable and CPU feature detection
//! (`is_x86_feature_detected!`), best tier wins:
//!
//! * `PBP_SIMD=0` / `off` / `scalar` — force the scalar tile (escape hatch);
//! * `PBP_SIMD=avx2` — cap at AVX2+FMA even when AVX-512 is available;
//! * unset / `1` / `on` / `auto` / `avx512` — best tier the CPU supports.
//!
//! [`set_tier`] overrides the choice at runtime (clamped to what the CPU
//! supports); benchmarks and the differential tests use it to sweep tiers
//! inside one process. On non-x86-64 targets every query answers
//! [`SimdTier::Scalar`] and the scalar tile runs unconditionally.
//!
//! Full-width tiles (`nr == NR`) dispatch through [`tile_full_width`];
//! ragged right-edge tiles (`nr < NR`) dispatch through [`tile_ragged`],
//! whose kernels mask the loads and stores of `C` down to the `nr` live
//! columns (`vmaskmov` on AVX2, a `__mmask16` on AVX-512) while reading the
//! zero-padded packed `B` panel at full width. Masked-off lanes are
//! computed but never stored, and each live lane runs the identical fma
//! chain — so ragged tiles are bit-identical across tiers too, and the
//! batch-one conv shapes whose output widths are not multiples of `NR`
//! stay on the vector units instead of falling back to scalar.
//!
//! Besides the register tiles, the short-reduction `tn` axpy path (conv
//! input gradients and the deferred weight-gradient GEMMs of split-backward
//! schedules, see `TN_AXPY_MAX_K` in [`super::gemm`]) dispatches its row
//! sweeps through [`axpy_row`] — the same per-element fma chains, vectorized
//! across the row instead of across a tile. The small-shape `simple`
//! kernels (products under the tiled threshold: the tiny per-stage GEMMs a
//! batch-one latency-critical request runs) route their `nn` and `tn`
//! row sweeps through [`axpy_row`] as well, so even sub-threshold products
//! hit AVX2/AVX-512.

use std::sync::atomic::{AtomicU8, Ordering};

/// SIMD capability tier for the GEMM register tile, ordered from weakest
/// to strongest so clamping is `min`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdTier {
    /// Scalar `f32::mul_add` tile (the compiler may still autovectorize).
    Scalar,
    /// 256-bit `vfmadd` tile (`avx2` + `fma`).
    Avx2Fma,
    /// 512-bit `vfmadd` tile (`avx512f`).
    Avx512Fma,
}

impl SimdTier {
    /// Stable lowercase name, as the ledger's provenance block reports it.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2Fma => "avx2",
            SimdTier::Avx512Fma => "avx512",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2Fma => 2,
            SimdTier::Avx512Fma => 3,
        }
    }

    fn from_u8(v: u8) -> Option<SimdTier> {
        match v {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Avx2Fma),
            3 => Some(SimdTier::Avx512Fma),
            _ => None,
        }
    }
}

/// Active tier. Zero means "not yet resolved"; the first call to
/// [`active_tier`] resolves it from `PBP_SIMD` and CPU detection.
static TIER: AtomicU8 = AtomicU8::new(0);

/// One-time warning gate for unrecognized `PBP_SIMD` values.
static ENV_WARNING: std::sync::Once = std::sync::Once::new();

/// The best tier this CPU supports, ignoring `PBP_SIMD` and overrides.
pub fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return SimdTier::Avx512Fma;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return SimdTier::Avx2Fma;
        }
    }
    SimdTier::Scalar
}

/// Parses a `PBP_SIMD` value into the tier *cap* it requests (the active
/// tier is the minimum of this cap and the detected capability), or
/// `None` for an unrecognized value — mirroring `PBP_THREADS` parsing in
/// [`crate::pool`]: a pure function so the accepted grammar is testable
/// without touching process environment.
fn parse_simd(raw: &str) -> Option<SimdTier> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "0" | "off" | "scalar" => Some(SimdTier::Scalar),
        "avx2" => Some(SimdTier::Avx2Fma),
        "" | "1" | "on" | "auto" | "avx512" => Some(SimdTier::Avx512Fma),
        _ => None,
    }
}

fn env_tier() -> SimdTier {
    let best = detected_tier();
    match std::env::var("PBP_SIMD") {
        Err(_) => best,
        Ok(raw) => match parse_simd(&raw) {
            Some(cap) => best.min(cap),
            None => {
                ENV_WARNING.call_once(|| {
                    eprintln!(
                        "warning: ignoring unrecognized PBP_SIMD={raw:?} \
                         (expected 0/off/scalar, avx2, avx512, or 1/on/auto); \
                         using detected tier {}",
                        best.name()
                    );
                });
                best
            }
        },
    }
}

/// The tier full-width register tiles currently dispatch to. Resolved once
/// from `PBP_SIMD` / CPU detection; override with [`set_tier`]. Every tier
/// computes bit-identical results, so this is a performance knob only.
pub fn active_tier() -> SimdTier {
    match SimdTier::from_u8(TIER.load(Ordering::Relaxed)) {
        Some(t) => t,
        None => {
            let t = env_tier();
            // A racing first call resolves to the same value; last store
            // wins harmlessly.
            TIER.store(t.to_u8(), Ordering::Relaxed);
            t
        }
    }
}

/// Overrides the active tier for the whole process, clamped to what the
/// CPU actually supports (requesting AVX-512 on an AVX2 machine selects
/// AVX2). Because every tier is bit-identical, flipping this at runtime
/// only changes performance, never results — benchmarks and the
/// differential tests rely on exactly that.
pub fn set_tier(tier: SimdTier) {
    TIER.store(tier.min(detected_tier()).to_u8(), Ordering::Relaxed);
}

/// Runs a full-width (`nr == NR`) register tile on the active SIMD tier.
/// Returns `false` when the caller should run the scalar tile instead
/// (scalar tier active, or a non-x86-64 target).
///
/// Arguments mirror the scalar `micro` kernel in [`super::gemm`]: `a` is
/// the whole `A` slice (`k×m` when `AT`, else `m×k`, leading dimension
/// `lda`), `bp` the packed or in-place `B` panel whose rows are `bstride`
/// apart, and the tile writes rows `i0..i0 + MRL`, columns `j0..j0 + NR`
/// of the output at `c` (leading dimension `ldc`).
///
/// # Safety
///
/// The caller must guarantee the same bounds the scalar tile relies on:
/// `kc` panel rows of `bp` each with `NR` readable floats, `A` indices in
/// bounds for all `MRL` rows across `kc` steps, and the `MRL × NR` output
/// tile inside the region this call may write.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) unsafe fn tile_full_width<const AT: bool, const MRL: usize>(
    a: &[f32],
    lda: usize,
    i0: usize,
    p0: usize,
    kc: usize,
    bp: &[f32],
    bstride: usize,
    c: *mut f32,
    ldc: usize,
    j0: usize,
    load_c: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match active_tier() {
            SimdTier::Avx512Fma => {
                // SAFETY: tier selection proved avx512f; bounds are the
                // caller's contract above.
                x86::tile_avx512::<AT, MRL>(a, lda, i0, p0, kc, bp, bstride, c, ldc, j0, load_c);
                true
            }
            SimdTier::Avx2Fma => {
                // SAFETY: tier selection proved avx2+fma; bounds are the
                // caller's contract above.
                x86::tile_avx2::<AT, MRL>(a, lda, i0, p0, kc, bp, bstride, c, ldc, j0, load_c);
                true
            }
            SimdTier::Scalar => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, lda, i0, p0, kc, bp, bstride, c, ldc, j0, load_c);
        false
    }
}

/// Runs a ragged (`nr < NR`) register tile on the active SIMD tier.
/// Returns `false` when the caller should run the scalar tile instead
/// (scalar tier active, or a non-x86-64 target).
///
/// `bp` must be the *packed* `B` panel (ragged tiles always pack, see
/// [`super::gemm`]): `kc` rows of `NR` floats, columns past `nr`
/// zero-padded. The kernels read `B` at full vector width — safe because
/// of the padding — and mask the `C` loads and stores down to the `nr`
/// live columns, so each stored element runs the same fma chain as the
/// scalar tile. Masked-off lanes accumulate on the zero padding and are
/// discarded.
///
/// # Safety
///
/// Same bounds contract as [`tile_full_width`], with the output tile
/// `MRL × nr` (only the first `nr` columns are written) and `bp`
/// guaranteed to hold `kc` full `NR`-float rows at stride `bstride`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) unsafe fn tile_ragged<const AT: bool, const MRL: usize>(
    a: &[f32],
    lda: usize,
    i0: usize,
    p0: usize,
    kc: usize,
    bp: &[f32],
    bstride: usize,
    c: *mut f32,
    ldc: usize,
    j0: usize,
    nr: usize,
    load_c: bool,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match active_tier() {
            SimdTier::Avx512Fma => {
                // SAFETY: tier selection proved avx512f; bounds are the
                // caller's contract above.
                x86::tile_avx512_ragged::<AT, MRL>(
                    a, lda, i0, p0, kc, bp, bstride, c, ldc, j0, nr, load_c,
                );
                true
            }
            SimdTier::Avx2Fma => {
                // SAFETY: tier selection proved avx2+fma; bounds are the
                // caller's contract above.
                x86::tile_avx2_ragged::<AT, MRL>(
                    a, lda, i0, p0, kc, bp, bstride, c, ldc, j0, nr, load_c,
                );
                true
            }
            SimdTier::Scalar => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, lda, i0, p0, kc, bp, bstride, c, ldc, j0, nr, load_c);
        false
    }
}

/// Runs one fused-multiply-add axpy sweep of the short-reduction `tn`
/// path on the active SIMD tier: `c[j] = fma(av, b[j], c[j])`, or
/// `c[j] = fma(av, b[j], 0.0)` when `zero_init` (the first sweep in
/// overwrite mode — note `fma(·, ·, +0.0)`, not a bare multiply, so the
/// `−0.0` products round identically to the scalar `mul_add` sweep).
/// Elements are independent and `vfmadd` computes the same exactly-rounded
/// fma as `f32::mul_add`, so every tier is bit-identical by construction.
/// Returns `false` when the caller should run the scalar sweep instead
/// (scalar tier active, or a non-x86-64 target).
#[inline(always)]
pub(crate) fn axpy_row(av: f32, b: &[f32], c: &mut [f32], zero_init: bool) -> bool {
    debug_assert_eq!(b.len(), c.len());
    #[cfg(target_arch = "x86_64")]
    {
        match active_tier() {
            SimdTier::Avx512Fma => {
                // SAFETY: tier selection proved avx512f; `b` and `c` are
                // equal-length slices.
                unsafe { x86::axpy_avx512(av, b, c, zero_init) };
                true
            }
            SimdTier::Avx2Fma => {
                // SAFETY: tier selection proved avx2+fma; `b` and `c` are
                // equal-length slices.
                unsafe { x86::axpy_avx2(av, b, c, zero_init) };
                true
            }
            SimdTier::Scalar => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (av, b, c, zero_init);
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::gemm::NR;
    use std::arch::x86_64::*;

    /// AVX2+FMA `MRL × NR` tile: two 256-bit accumulators per row, one
    /// `vfmadd` chain per output element in increasing `k` order — the
    /// same exactly-rounded chain as the scalar `mul_add` tile.
    ///
    /// # Safety
    ///
    /// `avx2` and `fma` must be available at runtime, and the bounds
    /// contract of [`super::tile_full_width`] must hold.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile_avx2<const AT: bool, const MRL: usize>(
        a: &[f32],
        lda: usize,
        i0: usize,
        p0: usize,
        kc: usize,
        bp: &[f32],
        bstride: usize,
        c: *mut f32,
        ldc: usize,
        j0: usize,
        load_c: bool,
    ) {
        debug_assert!(bp.len() >= (kc - 1) * bstride + NR);
        let mut acc = [[_mm256_setzero_ps(); 2]; MRL];
        if load_c {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let crow = c.add((i0 + r) * ldc + j0) as *const f32;
                acc_row[0] = _mm256_loadu_ps(crow);
                acc_row[1] = _mm256_loadu_ps(crow.add(8));
            }
        }
        let ap = a.as_ptr();
        let bpp = bp.as_ptr();
        let mut boff = 0usize;
        for kk in 0..kc {
            let b0 = _mm256_loadu_ps(bpp.add(boff));
            let b1 = _mm256_loadu_ps(bpp.add(boff + 8));
            if AT {
                // `A` is k×m: the `MRL` values live contiguously in row
                // `p0 + kk`.
                let arow = ap.add((p0 + kk) * lda + i0);
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*arow.add(r));
                    acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                    acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
                }
            } else {
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add((i0 + r) * lda + p0 + kk));
                    acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                    acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
                }
            }
            boff += bstride;
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let crow = c.add((i0 + r) * ldc + j0);
            _mm256_storeu_ps(crow, acc_row[0]);
            _mm256_storeu_ps(crow.add(8), acc_row[1]);
        }
    }

    /// AVX-512F `MRL × NR` tile: one 512-bit accumulator per row — `NR`
    /// is exactly one zmm lane set. Same exactly-rounded fma chains as
    /// the scalar and AVX2 tiles.
    ///
    /// # Safety
    ///
    /// `avx512f` must be available at runtime, and the bounds contract of
    /// [`super::tile_full_width`] must hold.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_avx512<const AT: bool, const MRL: usize>(
        a: &[f32],
        lda: usize,
        i0: usize,
        p0: usize,
        kc: usize,
        bp: &[f32],
        bstride: usize,
        c: *mut f32,
        ldc: usize,
        j0: usize,
        load_c: bool,
    ) {
        debug_assert!(bp.len() >= (kc - 1) * bstride + NR);
        let mut acc = [_mm512_setzero_ps(); MRL];
        if load_c {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                *acc_row = _mm512_loadu_ps(c.add((i0 + r) * ldc + j0) as *const f32);
            }
        }
        let ap = a.as_ptr();
        let bpp = bp.as_ptr();
        let mut boff = 0usize;
        for kk in 0..kc {
            let bv = _mm512_loadu_ps(bpp.add(boff));
            if AT {
                let arow = ap.add((p0 + kk) * lda + i0);
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*arow.add(r));
                    *acc_row = _mm512_fmadd_ps(av, bv, *acc_row);
                }
            } else {
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add((i0 + r) * lda + p0 + kk));
                    *acc_row = _mm512_fmadd_ps(av, bv, *acc_row);
                }
            }
            boff += bstride;
        }
        for (r, acc_row) in acc.iter().enumerate() {
            _mm512_storeu_ps(c.add((i0 + r) * ldc + j0), *acc_row);
        }
    }

    /// Lane-mask table for AVX2 masked loads/stores: `mask_avx2(w)` reads
    /// an eight-lane window with exactly `w` leading all-ones lanes.
    const MASK_TABLE: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// A `__m256i` whose first `w` (≤ 8) lanes are all-ones — the mask
    /// `vmaskmovps` wants for a `w`-lane partial row.
    ///
    /// # Safety
    ///
    /// Requires `avx` (callers are `avx2`-gated) and `w <= 8`.
    #[target_feature(enable = "avx2")]
    unsafe fn mask_avx2(w: usize) -> __m256i {
        debug_assert!(w <= 8);
        _mm256_loadu_si256(MASK_TABLE.as_ptr().add(8 - w) as *const __m256i)
    }

    /// AVX2+FMA ragged `MRL × nr` tile (`nr < NR`): `B` panel rows are
    /// read at full width (the pack zero-pads them), `C` rows are loaded
    /// and stored through lane masks covering the `nr` live columns. Each
    /// stored element runs the same exactly-rounded fma chain as the
    /// scalar edge tile; masked-off lanes accumulate on the zero padding
    /// and are never written back.
    ///
    /// # Safety
    ///
    /// `avx2` and `fma` must be available at runtime, and the bounds
    /// contract of [`super::tile_ragged`] must hold.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile_avx2_ragged<const AT: bool, const MRL: usize>(
        a: &[f32],
        lda: usize,
        i0: usize,
        p0: usize,
        kc: usize,
        bp: &[f32],
        bstride: usize,
        c: *mut f32,
        ldc: usize,
        j0: usize,
        nr: usize,
        load_c: bool,
    ) {
        debug_assert!(nr > 0 && nr < NR);
        debug_assert!(bp.len() >= (kc - 1) * bstride + NR);
        let lo = nr.min(8);
        let hi = nr - lo;
        let mask_lo = mask_avx2(lo);
        let mask_hi = mask_avx2(hi);
        let mut acc = [[_mm256_setzero_ps(); 2]; MRL];
        if load_c {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let crow = c.add((i0 + r) * ldc + j0) as *const f32;
                acc_row[0] = _mm256_maskload_ps(crow, mask_lo);
                if hi > 0 {
                    acc_row[1] = _mm256_maskload_ps(crow.add(8), mask_hi);
                }
            }
        }
        let ap = a.as_ptr();
        let bpp = bp.as_ptr();
        let mut boff = 0usize;
        for kk in 0..kc {
            let b0 = _mm256_loadu_ps(bpp.add(boff));
            let b1 = _mm256_loadu_ps(bpp.add(boff + 8));
            if AT {
                let arow = ap.add((p0 + kk) * lda + i0);
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*arow.add(r));
                    acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                    acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
                }
            } else {
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add((i0 + r) * lda + p0 + kk));
                    acc_row[0] = _mm256_fmadd_ps(av, b0, acc_row[0]);
                    acc_row[1] = _mm256_fmadd_ps(av, b1, acc_row[1]);
                }
            }
            boff += bstride;
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let crow = c.add((i0 + r) * ldc + j0);
            _mm256_maskstore_ps(crow, mask_lo, acc_row[0]);
            if hi > 0 {
                _mm256_maskstore_ps(crow.add(8), mask_hi, acc_row[1]);
            }
        }
    }

    /// AVX-512F ragged `MRL × nr` tile (`nr < NR`): one masked zmm
    /// accumulator per row, `__mmask16` covering the `nr` live columns.
    /// Same exactly-rounded fma chains as the scalar edge tile.
    ///
    /// # Safety
    ///
    /// `avx512f` must be available at runtime, and the bounds contract of
    /// [`super::tile_ragged`] must hold.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_avx512_ragged<const AT: bool, const MRL: usize>(
        a: &[f32],
        lda: usize,
        i0: usize,
        p0: usize,
        kc: usize,
        bp: &[f32],
        bstride: usize,
        c: *mut f32,
        ldc: usize,
        j0: usize,
        nr: usize,
        load_c: bool,
    ) {
        debug_assert!(nr > 0 && nr < NR);
        debug_assert!(bp.len() >= (kc - 1) * bstride + NR);
        let mask: __mmask16 = ((1u32 << nr) - 1) as __mmask16;
        let mut acc = [_mm512_setzero_ps(); MRL];
        if load_c {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                *acc_row = _mm512_maskz_loadu_ps(mask, c.add((i0 + r) * ldc + j0) as *const f32);
            }
        }
        let ap = a.as_ptr();
        let bpp = bp.as_ptr();
        let mut boff = 0usize;
        for kk in 0..kc {
            let bv = _mm512_loadu_ps(bpp.add(boff));
            if AT {
                let arow = ap.add((p0 + kk) * lda + i0);
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*arow.add(r));
                    *acc_row = _mm512_fmadd_ps(av, bv, *acc_row);
                }
            } else {
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add((i0 + r) * lda + p0 + kk));
                    *acc_row = _mm512_fmadd_ps(av, bv, *acc_row);
                }
            }
            boff += bstride;
        }
        for (r, acc_row) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(c.add((i0 + r) * ldc + j0), mask, *acc_row);
        }
    }

    /// AVX2+FMA axpy sweep for [`super::axpy_row`]: 256-bit `vfmadd`
    /// across the row, scalar `mul_add` tail — per element the same single
    /// exactly-rounded fma as the scalar sweep.
    ///
    /// # Safety
    ///
    /// `avx2` and `fma` must be available at runtime; `b.len() == c.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy_avx2(av: f32, b: &[f32], c: &mut [f32], zero_init: bool) {
        let n = c.len();
        let av8 = _mm256_set1_ps(av);
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut j = 0usize;
        if zero_init {
            let zero = _mm256_setzero_ps();
            while j + 8 <= n {
                let bv = _mm256_loadu_ps(bp.add(j));
                _mm256_storeu_ps(cp.add(j), _mm256_fmadd_ps(av8, bv, zero));
                j += 8;
            }
            while j < n {
                *cp.add(j) = av.mul_add(*bp.add(j), 0.0);
                j += 1;
            }
        } else {
            while j + 8 <= n {
                let bv = _mm256_loadu_ps(bp.add(j));
                let cv = _mm256_loadu_ps(cp.add(j));
                _mm256_storeu_ps(cp.add(j), _mm256_fmadd_ps(av8, bv, cv));
                j += 8;
            }
            while j < n {
                *cp.add(j) = av.mul_add(*bp.add(j), *cp.add(j));
                j += 1;
            }
        }
    }

    /// AVX-512F axpy sweep for [`super::axpy_row`]: 512-bit `vfmadd`
    /// across the row, scalar `mul_add` tail.
    ///
    /// # Safety
    ///
    /// `avx512f` must be available at runtime; `b.len() == c.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn axpy_avx512(av: f32, b: &[f32], c: &mut [f32], zero_init: bool) {
        let n = c.len();
        let av16 = _mm512_set1_ps(av);
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut j = 0usize;
        if zero_init {
            let zero = _mm512_setzero_ps();
            while j + 16 <= n {
                let bv = _mm512_loadu_ps(bp.add(j));
                _mm512_storeu_ps(cp.add(j), _mm512_fmadd_ps(av16, bv, zero));
                j += 16;
            }
            while j < n {
                *cp.add(j) = av.mul_add(*bp.add(j), 0.0);
                j += 1;
            }
        } else {
            while j + 16 <= n {
                let bv = _mm512_loadu_ps(bp.add(j));
                let cv = _mm512_loadu_ps(cp.add(j));
                _mm512_storeu_ps(cp.add(j), _mm512_fmadd_ps(av16, bv, cv));
                j += 16;
            }
            while j < n {
                *cp.add(j) = av.mul_add(*bp.add(j), *cp.add(j));
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_order_and_clamp() {
        assert!(SimdTier::Scalar < SimdTier::Avx2Fma);
        assert!(SimdTier::Avx2Fma < SimdTier::Avx512Fma);
        // set_tier clamps to the CPU's capability and round-trips.
        let best = detected_tier();
        set_tier(SimdTier::Avx512Fma);
        assert_eq!(active_tier(), best.min(SimdTier::Avx512Fma));
        set_tier(SimdTier::Scalar);
        assert_eq!(active_tier(), SimdTier::Scalar);
        set_tier(best);
        assert_eq!(active_tier(), best);
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Avx2Fma.name(), "avx2");
        assert_eq!(SimdTier::Avx512Fma.name(), "avx512");
    }

    #[test]
    fn parse_simd_accepts_documented_grammar_only() {
        // Scalar escape hatch, in all spellings.
        for raw in ["0", "off", "scalar", " OFF ", "Scalar"] {
            assert_eq!(parse_simd(raw), Some(SimdTier::Scalar), "{raw:?}");
        }
        // AVX2 cap.
        assert_eq!(parse_simd("avx2"), Some(SimdTier::Avx2Fma));
        assert_eq!(parse_simd("AVX2"), Some(SimdTier::Avx2Fma));
        // Best-tier spellings (cap above everything, min() is identity).
        for raw in ["", "1", "on", "auto", "avx512", " Auto "] {
            assert_eq!(parse_simd(raw), Some(SimdTier::Avx512Fma), "{raw:?}");
        }
        // Everything else is rejected so env_tier falls back to the
        // detected tier (with a one-time warning).
        for raw in ["2", "sse", "avx", "true", "fastest", "avx2 "] {
            let trimmed_ok = raw.trim() == "avx2";
            assert_eq!(parse_simd(raw).is_none(), !trimmed_ok, "{raw:?}");
        }
    }
}
