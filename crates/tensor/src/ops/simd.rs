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

/// A vector of `f32` lanes the direct convolution kernels are written
/// over: `f32` itself on the scalar tier (plain `mul_add` loops), `__m256`
/// and `__m512` on the SIMD tiers. Lanes never interact — every method is
/// element-wise — and `fma` is the one exactly-rounded fused multiply-add
/// on every implementation, so a kernel written once over `Lanes` computes
/// the same bits at every width.
///
/// # Safety
///
/// `load`/`store` touch `N` floats at `p`; the SIMD implementations also
/// require their CPU feature, which the tier dispatch below establishes.
trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    /// Independent accumulator vectors a kernel block keeps live: enough
    /// chains to cover fma latency without spilling the register file.
    const ROWS: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// `a * b + c`, rounded once.
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
}

impl Lanes for f32 {
    const N: usize = 1;
    const ROWS: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        v
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        a.mul_add(b, c)
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        a + b
    }
}

/// Widest vector any tier uses, in floats. The staged layouts the direct
/// convolution kernels read and write are sized in whole multiples of
/// this on every tier, so buffer shapes do not depend on the tier.
pub(crate) const MAX_LANES: usize = 16;

/// Splits `total` rows into blocks of 16 (where `V::ROWS` allows), 8, 4 and
/// then 1, calling the block body with the block's first row and its
/// compile-time height.
macro_rules! row_blocks {
    ($v:ty, $total:expr, $r0:ident, $body:ident ( $($arg:expr),* )) => {{
        let total = $total;
        let mut $r0 = 0usize;
        while $r0 < total {
            let left = total - $r0;
            if <$v>::ROWS == 16 && left >= 16 {
                $body::<$v, 16>($($arg),*);
                $r0 += 16;
            } else if left >= 8 {
                $body::<$v, 8>($($arg),*);
                $r0 += 8;
            } else if left >= 4 {
                $body::<$v, 4>($($arg),*);
                $r0 += 4;
            } else {
                $body::<$v, 1>($($arg),*);
                $r0 += 1;
            }
        }
    }};
}

/// Arguments of the direct forward kernel; see [`conv_forward`].
#[derive(Clone, Copy)]
struct FwdArgs<'a> {
    xs: &'a [f32],
    off: &'a [usize],
    w: &'a [f32],
    qr: usize,
    yp: *mut f32,
}

/// `R` output channels × one vector of flat output positions: one fma
/// chain per output element over the taps in table order.
#[inline(always)]
unsafe fn fwd_block<V: Lanes, const R: usize>(a: FwdArgs<'_>, oc0: usize, q0: usize) {
    let taps = a.off.len();
    let wrows: [*const f32; R] = std::array::from_fn(|r| a.w.as_ptr().add((oc0 + r) * taps));
    let mut acc = [V::zero(); R];
    let xq = a.xs.as_ptr().add(q0);
    for (t, &o) in a.off.iter().enumerate() {
        let xv = V::load(xq.add(o));
        for r in 0..R {
            acc[r] = V::fma(V::splat(*wrows[r].add(t)), xv, acc[r]);
        }
    }
    for r in 0..R {
        acc[r].store(a.yp.add((oc0 + r) * a.qr + q0));
    }
}

#[inline(always)]
unsafe fn fwd_kernel<V: Lanes>(a: FwdArgs<'_>, oc: usize) {
    let mut q0 = 0;
    while q0 < a.qr {
        row_blocks!(V, oc, oc0, fwd_block(a, oc0, q0));
        q0 += V::N;
    }
}

/// Direct convolution forward over a staged image.
///
/// `xs` is the zero-padded, phase-split image (see `ops::conv`), `off` the
/// tap table in `(ci, ki, kj)` order — tap `t` of flat output position `q`
/// reads `xs[off[t] + q]` — and `w` the `[oc, taps]` kernel bank. Writes
/// `yp[o * qr + q] = Σ_t w[o, t] · xs[off[t] + q]` for every `q < qr`, each
/// element one left-to-right fma chain from `+0.0` in table order: the
/// chain [`super::reference::conv2d_ref`] runs, with the taps that
/// reference skips at the border present as exact zero products.
///
/// # Panics
///
/// Panics if `qr` is not a multiple of [`MAX_LANES`] or a buffer is too
/// short for the addressed region.
pub(crate) fn conv_forward(
    xs: &[f32],
    off: &[usize],
    w: &[f32],
    oc: usize,
    qr: usize,
    yp: &mut [f32],
) {
    assert_eq!(qr % MAX_LANES, 0, "conv_forward: ragged flat extent");
    assert_eq!(w.len(), oc * off.len(), "conv_forward: kernel bank");
    assert_eq!(yp.len(), oc * qr, "conv_forward: output");
    let reach = off.iter().max().map_or(0, |&o| o + qr);
    assert!(xs.len() >= reach, "conv_forward: staged image too short");
    let a = FwdArgs {
        xs,
        off,
        w,
        qr,
        yp: yp.as_mut_ptr(),
    };
    // SAFETY: the asserts above bound every access: `xs[off[t] + q]` for
    // `q < qr`, `w[o * taps + t]`, `yp[o * qr + q]`; `qr` is a whole number
    // of vectors on every tier; the tier match proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::conv_forward_avx512(a, oc),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::conv_forward_avx2(a, oc),
            _ => fwd_kernel::<f32>(a, oc),
        }
    }
}

/// Arguments of the direct input-gradient kernel; see
/// [`conv_backward_input`].
#[derive(Clone, Copy)]
struct BwdInputArgs<'a> {
    dyp: &'a [f32],
    w: &'a [f32],
    off: &'a [usize],
    c: usize,
    oc: usize,
    chan: usize,
    qr: usize,
    gxs: *mut f32,
}

/// `R` input channels × one vector of flat output positions of one tap:
/// a completed `oc`-chain per element, added into the staged gradient.
#[inline(always)]
unsafe fn bwd_input_block<V: Lanes, const R: usize>(
    a: BwdInputArgs<'_>,
    ci0: usize,
    t: usize,
    q0: usize,
) {
    let kk = a.off.len();
    let mut s = [V::zero(); R];
    let dq = a.dyp.as_ptr().add(q0);
    let wt = a.w.as_ptr().add(ci0 * kk + t);
    for o in 0..a.oc {
        let dv = V::load(dq.add(o * a.qr));
        let wo = wt.add(o * a.c * kk);
        for r in 0..R {
            s[r] = V::fma(V::splat(*wo.add(r * kk)), dv, s[r]);
        }
    }
    for r in 0..R {
        let g = a.gxs.add((ci0 + r) * a.chan + a.off[t] + q0);
        V::add(V::load(g), s[r]).store(g);
    }
}

#[inline(always)]
unsafe fn bwd_input_kernel<V: Lanes>(a: BwdInputArgs<'_>) {
    for t in 0..a.off.len() {
        let mut q0 = 0;
        while q0 < a.qr {
            row_blocks!(V, a.c, ci0, bwd_input_block(a, ci0, t, q0));
            q0 += V::N;
        }
    }
}

/// Direct convolution input gradient into a staged (zero-padded,
/// phase-split) gradient image.
///
/// `dyp` is the output gradient at the staged pitch, `[oc, qr]` with every
/// position that is not an output pixel `+0.0`; `w` the `[oc, c, k·k]`
/// kernel bank; `off` the `k·k` per-channel tap offsets in `(ki, kj)`
/// order; `chan` the floats per staged channel. For every channel, tap and
/// flat position, `gxs[ci·chan + off[t] + q] += Σ_o w[o, ci, t] · dyp[o, q]`
/// — one completed fma chain over `o` from `+0.0` per addend, addends
/// arriving at any one element in `(ki, kj)` order: the association
/// `col2im(Wᵀ·dY)` and [`super::reference::conv2d_backward_ref`] use.
/// Non-pixel positions contribute `+0.0`, which changes no bit of a sum
/// that started at `+0.0`.
///
/// # Panics
///
/// Panics if `qr` is not a multiple of [`MAX_LANES`] or a buffer is too
/// short for the addressed region.
pub(crate) fn conv_backward_input(
    dyp: &[f32],
    w: &[f32],
    off: &[usize],
    (c, oc): (usize, usize),
    chan: usize,
    qr: usize,
    gxs: &mut [f32],
) {
    let kk = off.len();
    assert_eq!(qr % MAX_LANES, 0, "conv_backward_input: ragged flat extent");
    assert_eq!(w.len(), oc * c * kk, "conv_backward_input: kernel bank");
    assert_eq!(dyp.len(), oc * qr, "conv_backward_input: gradient");
    assert!(c > 0, "conv_backward_input: no channels");
    let reach = off.iter().max().map_or(0, |&o| (c - 1) * chan + o + qr);
    assert!(gxs.len() >= reach, "conv_backward_input: staged image");
    let a = BwdInputArgs {
        dyp,
        w,
        off,
        c,
        oc,
        chan,
        qr,
        gxs: gxs.as_mut_ptr(),
    };
    // SAFETY: the asserts above bound every access: `dyp[o * qr + q]`,
    // `w[(o * c + ci) * kk + t]`, `gxs[ci * chan + off[t] + q]` for
    // `q < qr`; the tier match proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::conv_backward_input_avx512(a),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::conv_backward_input_avx2(a),
            _ => bwd_input_kernel::<f32>(a),
        }
    }
}

/// Arguments of the direct weight-gradient kernel; see
/// [`conv_backward_weight`].
#[derive(Clone, Copy)]
struct BwdWeightArgs<'a> {
    dyt: &'a [f32],
    xs: &'a [f32],
    off: &'a [usize],
    oh: usize,
    ow: usize,
    pw: usize,
    ocp: usize,
    gwt: *mut f32,
}

/// `R` taps × one vector of output channels: one fma chain per weight
/// over the output pixels in row-major order.
#[inline(always)]
unsafe fn bwd_weight_block<V: Lanes, const R: usize>(a: BwdWeightArgs<'_>, t0: usize, v0: usize) {
    let xt: [*const f32; R] = std::array::from_fn(|r| a.xs.as_ptr().add(a.off[t0 + r]));
    let mut acc = [V::zero(); R];
    let mut dp = a.dyt.as_ptr().add(v0);
    for oi in 0..a.oh {
        let row = oi * a.pw;
        for oj in 0..a.ow {
            let dv = V::load(dp);
            for r in 0..R {
                acc[r] = V::fma(dv, V::splat(*xt[r].add(row + oj)), acc[r]);
            }
            dp = dp.add(a.ocp);
        }
    }
    for r in 0..R {
        acc[r].store(a.gwt.add((t0 + r) * a.ocp + v0));
    }
}

#[inline(always)]
unsafe fn bwd_weight_kernel<V: Lanes>(a: BwdWeightArgs<'_>) {
    let mut v0 = 0;
    while v0 < a.ocp {
        row_blocks!(V, a.off.len(), t0, bwd_weight_block(a, t0, v0));
        v0 += V::N;
    }
}

/// Direct convolution weight gradient, output channels in the lanes.
///
/// `dyt` is the output gradient transposed to `[oh·ow, ocp]` (channels
/// past the real ones `+0.0`), `xs`/`off` the staged image and tap table
/// [`conv_forward`] takes, `pw` the staged pitch. Writes
/// `gwt[t · ocp + o] = Σ_(oi,oj) dyt[(oi, oj), o] · xs[off[t] + oi·pw + oj]`,
/// each weight one left-to-right fma chain from `+0.0` over the output
/// pixels in row-major order — the chain `dY·colsᵀ` and
/// [`super::reference::conv2d_backward_ref`] run, border taps again as
/// exact zero products.
///
/// # Panics
///
/// Panics if `ocp` is not a multiple of [`MAX_LANES`] or a buffer is too
/// short for the addressed region.
pub(crate) fn conv_backward_weight(
    dyt: &[f32],
    xs: &[f32],
    off: &[usize],
    (oh, ow, pw): (usize, usize, usize),
    ocp: usize,
    gwt: &mut [f32],
) {
    assert_eq!(ocp % MAX_LANES, 0, "conv_backward_weight: ragged channels");
    assert_eq!(dyt.len(), oh * ow * ocp, "conv_backward_weight: gradient");
    assert_eq!(gwt.len(), off.len() * ocp, "conv_backward_weight: output");
    assert!(
        oh > 0 && ow > 0 && ow <= pw,
        "conv_backward_weight: geometry"
    );
    let reach = off.iter().max().map_or(0, |&o| o + (oh - 1) * pw + ow);
    assert!(xs.len() >= reach, "conv_backward_weight: staged image");
    let a = BwdWeightArgs {
        dyt,
        xs,
        off,
        oh,
        ow,
        pw,
        ocp,
        gwt: gwt.as_mut_ptr(),
    };
    // SAFETY: the asserts above bound every access: `dyt[p * ocp + o]`,
    // `xs[off[t] + oi * pw + oj]`, `gwt[t * ocp + o]`; `ocp` is a whole
    // number of vectors on every tier; the tier match proves the feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::conv_backward_weight_avx512(a),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::conv_backward_weight_avx2(a),
            _ => bwd_weight_kernel::<f32>(a),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::gemm::NR;
    use super::{BwdInputArgs, BwdWeightArgs, FwdArgs, Lanes};
    use std::arch::x86_64::*;

    impl Lanes for __m256 {
        const N: usize = 8;
        const ROWS: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm256_add_ps(a, b)
        }
    }

    impl Lanes for __m512 {
        const N: usize = 16;
        const ROWS: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            _mm512_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm512_add_ps(a, b)
        }
    }

    /// The direct convolution kernels of [`super`] instantiated per tier.
    ///
    /// # Safety
    ///
    /// The named CPU features must be available at runtime, and the bounds
    /// the safe wrappers in [`super`] assert must hold.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn conv_forward_avx2(a: FwdArgs<'_>, oc: usize) {
        super::fwd_kernel::<__m256>(a, oc)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn conv_forward_avx512(a: FwdArgs<'_>, oc: usize) {
        super::fwd_kernel::<__m512>(a, oc)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn conv_backward_input_avx2(a: BwdInputArgs<'_>) {
        super::bwd_input_kernel::<__m256>(a)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn conv_backward_input_avx512(a: BwdInputArgs<'_>) {
        super::bwd_input_kernel::<__m512>(a)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn conv_backward_weight_avx2(a: BwdWeightArgs<'_>) {
        super::bwd_weight_kernel::<__m256>(a)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn conv_backward_weight_avx512(a: BwdWeightArgs<'_>) {
        super::bwd_weight_kernel::<__m512>(a)
    }

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
