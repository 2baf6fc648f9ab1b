//! The micro-kernel layer: every hot inner loop of the crate, written once
//! over `Lanes` and instantiated per SIMD tier.
//!
//! Six kernels live here — the GEMM register tile (`tile`), the row axpy
//! sweep (`axpy_row`), the `A·Bᵀ` row (`nt_row`) and the three direct
//! convolution kernels (`conv_forward`, `conv_backward_input`,
//! `conv_backward_weight`) — beside the tile's `Bᵀ` panel pack
//! (`pack_bt`), which computes nothing, GroupNorm's statistics
//! ([`group_moments`]), the one `f64` kernel, written over `Chains`
//! under the same rule with plain adds, subtractions and products, and
//! the optimizer's update ([`sgdm_sweep`]), element-wise products, sums
//! and differences in the scalar loop's order, nothing fused — beside it
//! only the input-gradient side output, `gemm_nn`'s `m = 1` fma chain —
//! and the direct convolution's staging pass (`stage_image` and its
//! inverse), which like the pack moves data and computes nothing: vector
//! copies, and for a stride-2 row `Lanes::deinterleave` /
//! `Lanes::interleave`.
//! Each is one generic function over a lane type: lanes never interact —
//! the cross-lane operations, `Lanes::transpose` in the `A·Bᵀ` row and
//! the pack and the (de)interleave of the staging, move data and compute
//! nothing — and
//! the only arithmetic of the GEMM and convolution kernels is
//! `Lanes::fma` (plus one `Lanes::add` in the input-gradient kernel), so
//! every output element is one left-to-right chain of fused multiply-adds
//! whatever the vector width. An IEEE 754 operation — a fused
//! multiply-add, a product, a sum — rounds exactly once, so `f32::mul_add`
//! and the `vfmadd` instructions, `*` and `vmulps`, compute *the same
//! function*: the instantiations are bit-identical to one another and to
//! [`super::reference`] (the sweep: to its scalar loop), on every input,
//! by construction rather than by tolerance. That is what lets runtime
//! dispatch pick the fastest tier without perturbing the differential
//! contract.
//!
//! # Dispatch
//!
//! The active tier is resolved once per process from the `PBP_SIMD`
//! environment variable and CPU feature detection
//! (`is_x86_feature_detected!`), best tier wins:
//!
//! * `PBP_SIMD=0` / `off` / `scalar` — force the portable instantiations
//!   (escape hatch);
//! * `PBP_SIMD=avx2` — cap at AVX2+FMA even when AVX-512 is available;
//! * unset / `1` / `on` / `auto` / `avx512` — best tier the CPU supports.
//!
//! [`set_tier`] overrides the choice at runtime (clamped to what the CPU
//! supports); the differential tests use it to sweep tiers inside one
//! process. Every safe entry point ends in the same
//! `match active_tier()`: the `__m512` and `__m256` instantiations behind
//! `#[target_feature]` wrappers, and a `_ =>` arm running the portable
//! instantiation (`[f32; 16]` for the tile, `f32` for the axpy sweep, the
//! `A·Bᵀ` row, the pack, the convolution kernels and the update sweep) —
//! which is also all a non-x86-64 target compiles.
//!
//! # The ragged edge
//!
//! A tile narrower than `NR` columns runs the same kernel with the loads
//! and stores of `C` cut down to the live columns by
//! `Lanes::load_first` / `Lanes::store_first` (`vmaskmov` on AVX2, a
//! `__mmask16` on AVX-512, a bounded copy on the portable type), while the
//! zero-padded packed `B` panel is read at full width. Masked-off lanes
//! accumulate on the padding and are never stored; each live lane runs the
//! identical fma chain. A row sweep's ragged tail — the axpy kernel's, the
//! update sweep's — is the kernel again at the one-lane type `f32`, and an
//! `A·Bᵀ` row hands what is left of it — fewer than a vector of outputs, or
//! a reduction shorter than one — to the next narrower lane type, down to
//! `f32`; the ragged end of its reduction is a `load_first` block of which
//! only the live columns are multiplied in.

use super::gemm::NR;
use crate::GradView;
use std::sync::atomic::{AtomicU8, Ordering};

/// The lane type the micro-kernels of this module are instantiated at,
/// ordered from weakest to strongest so clamping is `min`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdTier {
    /// Portable `f32::mul_add` lanes (the compiler may still autovectorize).
    Scalar,
    /// 256-bit `vfmadd` lanes (`avx2` + `fma`).
    Avx2Fma,
    /// 512-bit `vfmadd` lanes (`avx512f`).
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

/// The tier every micro-kernel currently dispatches to. Resolved once
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

/// A vector of `f32` lanes the micro-kernels are written over: `f32` itself
/// and `[f32; 16]` on the scalar tier (plain `mul_add` loops), `__m256` and
/// `__m512` on the SIMD tiers. Lanes never interact in arithmetic — every
/// method but the data-moving `transpose` is element-wise — and `fma` is
/// the one exactly-rounded fused multiply-add
/// on every implementation, so a kernel written once over `Lanes` computes
/// the same bits at every width.
///
/// # Safety
///
/// `load`/`store` touch `N` floats at `p`, `load_first`/`store_first` the
/// first `w <= N` of them and nothing past `p + w`; the SIMD
/// implementations also require their CPU feature, which the tier dispatch
/// below establishes.
trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    /// Independent accumulator vectors a convolution block keeps live:
    /// enough chains to cover fma latency without spilling the register
    /// file.
    const ROWS: usize = 8;
    /// Rows of the GEMM register tile at this lane type. Two fma ports at
    /// four cycles of latency want eight chains in flight: four rows of two
    /// `__m256` (eight of sixteen ymm; eight rows spill) or of one
    /// `[f32; 16]`.
    const TILE_ROWS: usize = 4;
    unsafe fn zero() -> Self;
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// Lanes `0..w` from `p`, the rest `+0.0`.
    unsafe fn load_first(p: *const f32, w: usize) -> Self;
    /// Lanes `0..w` to `p`.
    unsafe fn store_first(self, p: *mut f32, w: usize);
    /// `a * b + c`, rounded once.
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
    unsafe fn sub(a: Self, b: Self) -> Self;
    unsafe fn mul(a: Self, b: Self) -> Self;
    /// Hints that the cache line holding `p` is about to be read. A hint
    /// only: `p` may lie past the end of its buffer, and the portable types
    /// leave it to the hardware prefetcher.
    #[inline(always)]
    unsafe fn prefetch(_p: *const f32) {}
    /// Hints that the cache line holding `p` is about to be written, as
    /// [`Lanes::prefetch`].
    #[inline(always)]
    unsafe fn prefetch_write(_p: *mut f32) {}
    /// Transposes the leading `N × N` block of `rows` in registers: lane
    /// `l` of `rows[p]` and lane `p` of `rows[l]` change places, for
    /// `l, p < N`. Pure data movement; entries past `N` are not touched.
    unsafe fn transpose(rows: &mut [Self; MAX_LANES]);
    /// Splits the `2N` floats of `a` then `b` into the even-indexed ones
    /// and the odd-indexed ones, each in order. Pure data movement.
    unsafe fn deinterleave(a: Self, b: Self) -> (Self, Self);
    /// The inverse of [`Lanes::deinterleave`]: `even[0], odd[0], even[1],
    /// …` as two vectors. Pure data movement.
    unsafe fn interleave(even: Self, odd: Self) -> (Self, Self);
}

impl Lanes for f32 {
    const N: usize = 1;
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
    unsafe fn load_first(p: *const f32, w: usize) -> Self {
        if w > 0 {
            *p
        } else {
            0.0
        }
    }
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, w: usize) {
        if w > 0 {
            *p = self;
        }
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        a.mul_add(b, c)
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        a + b
    }
    #[inline(always)]
    unsafe fn sub(a: Self, b: Self) -> Self {
        a - b
    }
    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        a * b
    }
    /// One lane: the block is its own transpose.
    #[inline(always)]
    unsafe fn transpose(_rows: &mut [Self; MAX_LANES]) {}
    /// One lane: `a` is the pair's even float, `b` its odd one.
    #[inline(always)]
    unsafe fn deinterleave(a: Self, b: Self) -> (Self, Self) {
        (a, b)
    }
    #[inline(always)]
    unsafe fn interleave(even: Self, odd: Self) -> (Self, Self) {
        (even, odd)
    }
}

/// The portable vector types: `[f32; 16]` is what the scalar tier runs the
/// register tile at (sixteen one-lane `f32` "vectors" per tile row do not
/// autovectorize; one sixteen-lane array per row does), `[f32; 8]` what it
/// feeds the group-moment chains from. `L <= MAX_LANES`.
impl<const L: usize> Lanes for [f32; L] {
    const N: usize = L;
    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; L]
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; L]
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<Self>().read()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<Self>().write(self)
    }
    #[inline(always)]
    unsafe fn load_first(p: *const f32, w: usize) -> Self {
        let mut v = [0.0; L];
        v[..w].copy_from_slice(std::slice::from_raw_parts(p, w));
        v
    }
    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, w: usize) {
        std::slice::from_raw_parts_mut(p, w).copy_from_slice(&self[..w]);
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
        std::array::from_fn(|l| a[l].mul_add(b[l], c[l]))
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] + b[l])
    }
    #[inline(always)]
    unsafe fn sub(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] - b[l])
    }
    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] * b[l])
    }
    #[inline(always)]
    unsafe fn transpose(rows: &mut [Self; MAX_LANES]) {
        for p in 0..L {
            for l in 0..p {
                let upper = rows[l][p];
                rows[l][p] = rows[p][l];
                rows[p][l] = upper;
            }
        }
    }
    #[inline(always)]
    unsafe fn deinterleave(a: Self, b: Self) -> (Self, Self) {
        let at = |i: usize| if i < L { a[i] } else { b[i - L] };
        (
            std::array::from_fn(|l| at(2 * l)),
            std::array::from_fn(|l| at(2 * l + 1)),
        )
    }
    #[inline(always)]
    unsafe fn interleave(even: Self, odd: Self) -> (Self, Self) {
        let at = |i: usize| {
            if i.is_multiple_of(2) {
                even[i / 2]
            } else {
                odd[i / 2]
            }
        };
        (std::array::from_fn(at), std::array::from_fn(|l| at(L + l)))
    }
}

/// Widest vector any tier uses, in floats. The staged layouts the direct
/// convolution kernels read and write are sized in whole multiples of
/// this on every tier, so buffer shapes do not depend on the tier.
pub(crate) const MAX_LANES: usize = 16;

/// Operands of one `MRL × nr` register tile of a blocked GEMM: `a` is the
/// whole `A` slice (`k×m` when `AT`, else `m×k`, leading dimension `lda`),
/// `bp` the packed or in-place `B` panel whose `kc` rows are `bstride`
/// apart, and the tile covers rows `i0..i0 + MRL`, columns `j0..j0 + nr` of
/// the output at `c` (leading dimension `ldc`), reducing over
/// `p0..p0 + kc`. With `load_c` the chains extend the values already in
/// `C`; without it they start from `+0.0`.
#[derive(Clone, Copy)]
pub(crate) struct Tile<'a> {
    pub a: &'a [f32],
    pub lda: usize,
    pub i0: usize,
    pub p0: usize,
    pub kc: usize,
    pub bp: &'a [f32],
    pub bstride: usize,
    pub c: *mut f32,
    pub ldc: usize,
    pub j0: usize,
    pub nr: usize,
    pub load_c: bool,
}

/// The register tile: `MRL` rows of `VR` vectors (`VR · V::N == NR`, a
/// const parameter because `NR / V::N` cannot size an array in generic
/// code). Loads the current `C` values (or zeros), extends each element's
/// fma chain across the panel in increasing `k`, and stores the tile back —
/// loading-then-storing rather than keeping per-panel partial sums is what
/// keeps the association intact across `KC` blocking. `FULL` tiles
/// (`nr == NR`) move whole vectors of `C`; ragged ones move the first `nr`
/// columns through [`Lanes::load_first`] / [`Lanes::store_first`] and read
/// the zero-padded panel at full width all the same. `FULL` is a const
/// parameter so full-width tiles carry no mask arithmetic: tested per
/// vector at run time it cost AVX2 3–4 % at 256³ and 64×256×256.
#[inline(always)]
unsafe fn tile_kernel<
    V: Lanes,
    const VR: usize,
    const AT: bool,
    const MRL: usize,
    const FULL: bool,
>(
    t: Tile<'_>,
) {
    assert!(VR * V::N == NR, "tile_kernel: VR vectors must span NR");
    debug_assert!(t.nr > 0 && (t.nr == NR) == FULL);
    debug_assert!(t.bp.len() >= (t.kc - 1) * t.bstride + NR);
    // Live columns of vector `v` of a row, and its address in row `r`. A
    // vector wholly past `nr` is skipped: its address may lie outside `C`.
    let live = |v: usize| t.nr.saturating_sub(v * V::N).min(V::N);
    let cvec = |r: usize, v: usize| t.c.add((t.i0 + r) * t.ldc + t.j0 + v * V::N);
    let mut acc = [[V::zero(); VR]; MRL];
    if t.load_c {
        for r in 0..MRL {
            for v in 0..VR {
                if FULL {
                    acc[r][v] = V::load(cvec(r, v));
                } else if live(v) > 0 {
                    acc[r][v] = V::load_first(cvec(r, v), live(v));
                }
            }
        }
    }
    let ap = t.a.as_ptr();
    let mut bk = t.bp.as_ptr();
    for kk in 0..t.kc {
        let bv: [V; VR] = std::array::from_fn(|v| V::load(bk.add(v * V::N)));
        for r in 0..MRL {
            // `A` is k×m when `AT`: the `MRL` values sit side by side in
            // row `p0 + kk`.
            let av = V::splat(*if AT {
                ap.add((t.p0 + kk) * t.lda + t.i0 + r)
            } else {
                ap.add((t.i0 + r) * t.lda + t.p0 + kk)
            });
            for v in 0..VR {
                acc[r][v] = V::fma(av, bv[v], acc[r][v]);
            }
        }
        bk = bk.add(t.bstride);
    }
    for r in 0..MRL {
        for v in 0..VR {
            if FULL {
                acc[r][v].store(cvec(r, v));
            } else if live(v) > 0 {
                acc[r][v].store_first(cvec(r, v), live(v));
            }
        }
    }
}

/// [`tile_kernel`] at full width or ragged, by `nr`.
#[inline(always)]
unsafe fn tile_any<V: Lanes, const VR: usize, const AT: bool, const MRL: usize>(t: Tile<'_>) {
    if t.nr == NR {
        tile_kernel::<V, VR, AT, MRL, true>(t)
    } else {
        tile_kernel::<V, VR, AT, MRL, false>(t)
    }
}

/// The scalar tier's tile. Kept out of line: inlined into the blocked
/// region loop the sixteen independent chains per row stop vectorizing; as
/// a small standalone function the lane loops become packed `vfmadd`.
#[inline(never)]
unsafe fn tile_portable<const AT: bool, const MRL: usize>(t: Tile<'_>) {
    tile_any::<[f32; MAX_LANES], 1, AT, MRL>(t)
}

/// Rows of the register tile on the active tier ([`Lanes::TILE_ROWS`]):
/// the `MRL` a full-height tile of [`tile`] should be run at. Any
/// `MRL` in `1..=8` computes the same bits on any tier; this is speed only.
pub(crate) fn tile_rows() -> usize {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512Fma => <std::arch::x86_64::__m512 as Lanes>::TILE_ROWS,
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2Fma => <std::arch::x86_64::__m256 as Lanes>::TILE_ROWS,
        _ => <[f32; MAX_LANES] as Lanes>::TILE_ROWS,
    }
}

/// Runs one register tile on the active tier.
///
/// # Safety
///
/// `t.bp` must hold `kc >= 1` panel rows of `NR` readable floats at stride
/// `bstride` (a ragged tile's panel is the packed one, zero-padded past
/// `nr`), `A` must be indexable for all `MRL` rows across the `kc` steps,
/// `0 < nr <= NR`, and the `MRL × nr` output tile must lie inside the
/// region of `C` this call may write.
#[inline(always)]
pub(crate) unsafe fn tile<const AT: bool, const MRL: usize>(t: Tile<'_>) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512Fma => x86::tile_avx512::<AT, MRL>(t),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2Fma => x86::tile_avx2::<AT, MRL>(t),
        _ => tile_portable::<AT, MRL>(t),
    }
}

/// The axpy sweep over whole vectors: `c[j] = fma(av, b[j], c[j])` — or
/// `fma(av, b[j], +0.0)` when `ZERO`, a fused multiply-add and not a bare
/// multiply so `−0.0` products round as they do mid-chain — for the
/// `n / V::N` whole vectors of the row. Returns the elements swept. `ZERO`
/// is a const parameter like the tile's `FULL`: as a run-time flag it cost
/// the AVX2 batch-one sweep 7 %.
#[inline(always)]
unsafe fn axpy_kernel<V: Lanes, const ZERO: bool>(
    av: f32,
    b: *const f32,
    c: *mut f32,
    n: usize,
) -> usize {
    let a = V::splat(av);
    let mut j = 0;
    while j + V::N <= n {
        let cv = if ZERO { V::zero() } else { V::load(c.add(j)) };
        V::fma(a, V::load(b.add(j)), cv).store(c.add(j));
        j += V::N;
    }
    j
}

/// [`axpy_kernel`] at `V`, then at `f32` for the tail. Takes slices, and so
/// must the per-tier wrappers: the `noalias` they carry is what lets the
/// compiler keep `b` and `c` apart in the batch-one sweeps.
#[inline(always)]
unsafe fn axpy_sweep<V: Lanes>(av: f32, b: &[f32], c: &mut [f32], zero_init: bool) {
    let (n, bp, cp) = (c.len(), b.as_ptr(), c.as_mut_ptr());
    if zero_init {
        let j = axpy_kernel::<V, true>(av, bp, cp, n);
        axpy_kernel::<f32, true>(av, bp.add(j), cp.add(j), n - j);
    } else {
        let j = axpy_kernel::<V, false>(av, bp, cp, n);
        axpy_kernel::<f32, false>(av, bp.add(j), cp.add(j), n - j);
    }
}

/// One fused-multiply-add axpy sweep of a row on the active tier:
/// `c[j] = fma(av, b[j], c[j])`, from `+0.0` instead of `c[j]` when
/// `zero_init` (the first sweep in overwrite mode). Elements are
/// independent, so the chain an element runs is the caller's order of
/// sweeps — increasing `k` in [`super::gemm`].
///
/// # Panics
///
/// Panics if `b` and `c` differ in length.
#[inline(always)]
pub(crate) fn axpy_row(av: f32, b: &[f32], c: &mut [f32], zero_init: bool) {
    assert_eq!(b.len(), c.len(), "axpy_row: row lengths");
    // SAFETY: `b` and `c` are equal-length slices, which bounds every
    // access of the sweep; the tier match proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::axpy_avx512(av, b, c, zero_init),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::axpy_avx2(av, b, c, zero_init),
            // One lane per step reaches the end of the row on its own (the
            // tail is empty), and is the form of this loop the compiler
            // vectorizes.
            _ => axpy_sweep::<f32>(av, b, c, zero_init),
        }
    }
}

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

/// Operands of one row of `C (+)= A·Bᵀ`; see [`nt_row`]. `b` is `n×k`
/// row-major for `k = a.len()`, `c` the row's `n` outputs.
#[derive(Clone, Copy)]
struct NtArgs<'a> {
    a: &'a [f32],
    b: &'a [f32],
    c: *mut f32,
    n: usize,
}

/// The `V::N × V::N` block of `B` whose first row starts at `p`, rows
/// `stride` apart, transposed: vector `q` of the result holds column `q` of
/// the block, one row of `B` per lane. A ragged block (`!FULL`) reads only
/// the first `w < V::N` columns of each row, the rest come back `+0.0`.
/// Only the first `rows <= V::N` rows are read; lanes past them come back
/// `+0.0`.
#[inline(always)]
unsafe fn load_transposed<V: Lanes, const FULL: bool>(
    p: *const f32,
    stride: usize,
    w: usize,
    rows: usize,
) -> [V; MAX_LANES] {
    debug_assert!(rows <= V::N);
    let mut block = [V::zero(); MAX_LANES];
    for (l, row) in block.iter_mut().enumerate().take(rows) {
        *row = if FULL {
            V::load(p.add(l * stride))
        } else {
            V::load_first(p.add(l * stride), w)
        };
    }
    V::transpose(&mut block);
    block
}

/// One block of an `A·Bᵀ` row folded into `acc`, a lane per output: the
/// `w` columns of `B` at `b` (`V::N` rows, `k` apart) times `a[..w]`, in
/// increasing `k`. Of a ragged block (`!FULL`, `w < V::N`) only the live
/// columns are multiplied in — a `+0.0` product is not a no-op on a `−0.0`
/// sum.
#[inline(always)]
unsafe fn nt_fold<V: Lanes, const FULL: bool>(
    mut acc: V,
    a: *const f32,
    b: *const f32,
    k: usize,
    w: usize,
) -> V {
    let cols = load_transposed::<V, FULL>(b, k, w, V::N);
    for (q, &col) in cols.iter().enumerate().take(w) {
        acc = V::fma(V::splat(*a.add(q)), col, acc);
    }
    acc
}

/// `R` vectors of adjacent outputs `c[j0..j0 + R · V::N]` of an `A·Bᵀ`
/// row, a lane per output: each lane runs the dot of `a` with its own row
/// of `B` as one fma chain in increasing `k` from the existing output
/// value. `B` is read a transposed block at a time, so the loads stay
/// contiguous along `k`; the last `k mod V::N` columns are a ragged block.
#[inline(always)]
unsafe fn nt_block<V: Lanes, const R: usize>(t: NtArgs<'_>, j0: usize) {
    let k = t.a.len();
    let ap = t.a.as_ptr();
    let rows: [*const f32; R] = std::array::from_fn(|r| t.b.as_ptr().add((j0 + r * V::N) * k));
    let mut acc: [V; R] = std::array::from_fn(|r| V::load(t.c.add(j0 + r * V::N)));
    let mut kk = 0;
    while kk + V::N <= k {
        for r in 0..R {
            acc[r] = nt_fold::<V, true>(acc[r], ap.add(kk), rows[r].add(kk), k, V::N);
        }
        kk += V::N;
    }
    if kk < k {
        for r in 0..R {
            acc[r] = nt_fold::<V, false>(acc[r], ap.add(kk), rows[r].add(kk), k, k - kk);
        }
    }
    for r in 0..R {
        acc[r].store(t.c.add(j0 + r * V::N));
    }
}

/// The outputs from `j0` on that fill whole vectors of `V`, a vector at a
/// time: the transpose of the next block overlaps the chain of this one, so
/// one accumulator covers the fma latency. Returns the first output not
/// computed — `j0` itself when the reduction is shorter than a vector.
#[inline(always)]
unsafe fn nt_vectors<V: Lanes>(t: NtArgs<'_>, j0: usize) -> usize {
    let mut j = j0;
    if t.a.len() >= V::N {
        while j + V::N <= t.n {
            nt_block::<V, 1>(t, j);
            j += V::N;
        }
    }
    j
}

/// The outputs from `j0` to the end of the row at the one-lane type: eight
/// independent chains per pass (two fma ports × four cycles of latency),
/// then four, then one. The whole row on the portable tier, and what the
/// vector types leave: fewer than a vector of outputs, or a reduction
/// shorter than one.
#[inline(always)]
unsafe fn nt_one_lane(t: NtArgs<'_>, j0: usize) {
    row_blocks!(f32, t.n - j0, r0, nt_block(t, j0 + r0));
}

/// One row of `C (+)= A·Bᵀ` on the active tier: `c[j] = c[j] + a · b[j]`
/// for row `j` of the `c.len() × a.len()` matrix `b`, each output one
/// left-to-right fma chain in increasing `k` from the value already in
/// `c` — the chain [`super::reference::matmul_nt_acc_ref`] runs. This is
/// every batch-one `Linear::forward`.
///
/// # Panics
///
/// Panics if `b` is not `c.len() × a.len()`.
pub(crate) fn nt_row(a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(b.len(), c.len() * a.len(), "nt_row: B is n×k");
    let t = NtArgs {
        a,
        b,
        c: c.as_mut_ptr(),
        n: c.len(),
    };
    // SAFETY: the assert bounds every access: `a[kk]`, `b[j * k + kk]` and
    // `c[j]` for `j < n`, `kk < k`; a ragged block reads only its live
    // columns; the tier match proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::nt_row_avx512(t),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::nt_row_avx2(t),
            _ => nt_one_lane(t, 0),
        }
    }
}

/// Operands of one `Bᵀ` panel pack; see [`pack_bt`]. `b` is the panel's
/// first float, its `nr` rows `ldb` apart, `bp` the `kc × NR` destination.
#[derive(Clone, Copy)]
struct PackArgs {
    b: *const f32,
    ldb: usize,
    kc: usize,
    nr: usize,
    bp: *mut f32,
}

/// The pack at `V`: each group of `V::N` rows of `B` goes through
/// [`load_transposed`] a block of `V::N` columns at a time, the last
/// `kc mod V::N` a ragged block, and vector `q` of a block is stored as the
/// group's lanes of packed row `kk + q`. Lanes of a group past `nr` come
/// back `+0.0`, and groups wholly past `nr` (a ragged panel's only) are
/// stored `+0.0`: every float of the panel is written.
///
/// # Safety
///
/// `t.b` must point at `nr <= NR` rows of `kc` readable floats, `ldb`
/// apart, and `t.bp` at `kc · NR` writable ones; `FULL` must mean
/// `nr == NR`, and `V`'s CPU feature must be available.
#[inline(always)]
unsafe fn pack_bt_kernel<V: Lanes, const FULL: bool>(t: PackArgs) {
    let mut g = 0;
    while g < t.nr {
        // A constant on a full panel, so the block stays in registers.
        let rows = if FULL { V::N } else { (t.nr - g).min(V::N) };
        let (src, dst) = (t.b.add(g * t.ldb), t.bp.add(g));
        let mut kk = 0;
        while kk + V::N <= t.kc {
            let cols = load_transposed::<V, true>(src.add(kk), t.ldb, V::N, rows);
            for (q, col) in cols.iter().enumerate().take(V::N) {
                col.store(dst.add((kk + q) * NR));
            }
            kk += V::N;
        }
        if kk < t.kc {
            let w = t.kc - kk;
            let cols = load_transposed::<V, false>(src.add(kk), t.ldb, w, rows);
            for (q, col) in cols.iter().enumerate().take(w) {
                col.store(dst.add((kk + q) * NR));
            }
        }
        g += V::N;
    }
    while g < NR {
        for kk in 0..t.kc {
            V::zero().store(t.bp.add(kk * NR + g));
        }
        g += V::N;
    }
}

/// [`pack_bt_kernel`] at full width or ragged, by `nr`.
///
/// # Safety
///
/// As [`pack_bt_kernel`], `FULL` aside.
#[inline(always)]
unsafe fn pack_bt_any<V: Lanes>(t: PackArgs) {
    if t.nr == NR {
        pack_bt_kernel::<V, true>(t)
    } else {
        pack_bt_kernel::<V, false>(t)
    }
}

/// Packs the `kc × nr` panel of `Bᵀ` at (`p0`, `j0`) — rows `j0..j0 + nr`
/// of the row-major `B`, `ldb` floats apart, columns `p0..p0 + kc` — into
/// `bp` as the dense `kc × NR` panel [`tile`] reads:
/// `bp[kk · NR + j] = b[(j0 + j) · ldb + p0 + kk]`, and `+0.0` for
/// `nr <= j < NR`. Register transposes on the vector tiers, a plain copy
/// on the portable one; pure data movement, so every tier writes the
/// source's bits. Nothing past `bp[kc · NR]` is written.
///
/// # Panics
///
/// Panics if `nr` is not in `1..=NR`, the block reaches past a row or past
/// `B`, or `bp` is shorter than the panel.
pub(crate) fn pack_bt(
    b: &[f32],
    ldb: usize,
    (p0, kc): (usize, usize),
    (j0, nr): (usize, usize),
    bp: &mut [f32],
) {
    assert!((1..=NR).contains(&nr), "pack_bt: panel width");
    assert!(p0 + kc <= ldb, "pack_bt: columns past the row");
    assert!((j0 + nr) * ldb <= b.len(), "pack_bt: rows past B");
    assert!(bp.len() >= kc * NR, "pack_bt: panel buffer");
    let t = PackArgs {
        b: b[j0 * ldb + p0..].as_ptr(),
        ldb,
        kc,
        nr,
        bp: bp.as_mut_ptr(),
    };
    // SAFETY: the asserts bound every access: `b[(j0 + j) · ldb + p0 + kk]`
    // for `j < nr`, `kk < kc` (a ragged block reads only its live columns,
    // `load_transposed` only its live rows), and `bp[kk · NR + j]` for
    // `j < NR`; the tier match proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::pack_bt_avx512(t),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::pack_bt_avx2(t),
            _ => pack_bt_any::<f32>(t),
        }
    }
}

/// Arguments of the direct forward kernel; see [`conv_forward`].
#[derive(Clone, Copy)]
struct FwdArgs<'a> {
    xs: &'a [f32],
    off: &'a [usize],
    wt: &'a [f32],
    oc: usize,
    qr: usize,
    yp: *mut f32,
}

/// `R` output channels × one vector of flat output positions: one fma
/// chain per output element over the taps in table order. The bank is
/// tap-major, so a tap's `R` weights sit side by side behind one pointer
/// that steps by `oc` a tap (`R` row pointers, one per channel, cost a
/// register each and spilled the sixteen-row `__m512` block).
#[inline(always)]
unsafe fn fwd_block<V: Lanes, const R: usize>(a: FwdArgs<'_>, oc0: usize, q0: usize) {
    let w = a.wt.as_ptr().add(oc0);
    let mut acc = [V::zero(); R];
    let xq = a.xs.as_ptr().add(q0);
    for (t, &o) in a.off.iter().enumerate() {
        let xv = V::load(xq.add(o));
        let wt = w.add(t * a.oc);
        for r in 0..R {
            acc[r] = V::fma(V::splat(*wt.add(r)), xv, acc[r]);
        }
    }
    for r in 0..R {
        acc[r].store(a.yp.add((oc0 + r) * a.qr + q0));
    }
}

#[inline(always)]
unsafe fn fwd_kernel<V: Lanes>(a: FwdArgs<'_>) {
    let mut q0 = 0;
    while q0 < a.qr {
        row_blocks!(V, a.oc, oc0, fwd_block(a, oc0, q0));
        q0 += V::N;
    }
}

/// Direct convolution forward over a staged image.
///
/// `xs` is the zero-padded, phase-split image (see `ops::conv`), `off` the
/// tap table in `(ci, ki, kj)` order — tap `t` of flat output position `q`
/// reads `xs[off[t] + q]` — and `wt` the kernel bank tap-major,
/// `[taps, oc]`. Writes `yp[o * qr + q] = Σ_t wt[t, o] · xs[off[t] + q]`
/// for every `q < qr`, each element one left-to-right fma chain from
/// `+0.0` in table order: the chain [`super::reference::conv2d_ref`] runs,
/// with the taps that reference skips at the border present as exact zero
/// products.
///
/// # Panics
///
/// Panics if `qr` is not a multiple of [`MAX_LANES`] or a buffer is too
/// short for the addressed region.
pub(crate) fn conv_forward(
    xs: &[f32],
    off: &[usize],
    wt: &[f32],
    oc: usize,
    qr: usize,
    yp: &mut [f32],
) {
    assert_eq!(qr % MAX_LANES, 0, "conv_forward: ragged flat extent");
    assert_eq!(wt.len(), oc * off.len(), "conv_forward: kernel bank");
    assert_eq!(yp.len(), oc * qr, "conv_forward: output");
    let reach = off.iter().max().map_or(0, |&o| o + qr);
    assert!(xs.len() >= reach, "conv_forward: staged image too short");
    let a = FwdArgs {
        xs,
        off,
        wt,
        oc,
        qr,
        yp: yp.as_mut_ptr(),
    };
    // SAFETY: the asserts above bound every access: `xs[off[t] + q]` for
    // `q < qr`, `wt[t * oc + o]`, `yp[o * qr + q]`; `qr` is a whole number
    // of vectors on every tier; the tier match proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::conv_forward_avx512(a),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::conv_forward_avx2(a),
            _ => fwd_kernel::<f32>(a),
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
/// a completed `oc`-chain per element, added into the staged gradient. The
/// bank is tap-major, so an output channel's weights for the `R` input
/// channels sit side by side behind one pointer that steps by `c` a
/// channel, as the forward's do.
#[inline(always)]
unsafe fn bwd_input_block<V: Lanes, const R: usize>(
    a: BwdInputArgs<'_>,
    ci0: usize,
    t: usize,
    q0: usize,
) {
    let mut s = [V::zero(); R];
    let dq = a.dyp.as_ptr().add(q0);
    let wt = a.w.as_ptr().add(t * a.oc * a.c + ci0);
    for o in 0..a.oc {
        let dv = V::load(dq.add(o * a.qr));
        let wo = wt.add(o * a.c);
        for r in 0..R {
            s[r] = V::fma(V::splat(*wo.add(r)), dv, s[r]);
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
/// position that is not an output pixel `+0.0`; `w` the kernel bank
/// tap-major, `[k·k, oc, c]`; `off` the `k·k` per-channel tap offsets in
/// `(ki, kj)` order; `chan` the floats per staged channel. For every
/// channel, tap and flat position,
/// `gxs[ci·chan + off[t] + q] += Σ_o w[t, o, ci] · dyp[o, q]`
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
    // `w[(t * oc + o) * c + ci]`, `gxs[ci * chan + off[t] + q]` for
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

/// Where one image's rows land in the staged layout of the direct
/// convolution kernels (`ops::conv`): `c` channels of `h × w` pixels,
/// stride `s` and padding `p`, each staged channel `chan` floats of `s²`
/// planes of `ph` rows of `pw` columns. Padded row `r` is row `r div s` of
/// row phase `r mod s`; image columns `r, r + s, …` — column stream `r` —
/// are one run of column phase `(r + p) mod s`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Staging {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub s: usize,
    pub p: usize,
    pub ph: usize,
    pub pw: usize,
    pub chan: usize,
}

impl Staging {
    /// Column stream `r` as `(b, j0, n)`: its pixels land in column phase
    /// `b`, at plane columns `j0..j0 + n`; further pixels of the stream
    /// reach no tap. Each phase is one stream's, and the streams' `n`
    /// differ by at most one, longest first, so that together they are the
    /// row's first `Σ n` pixels.
    pub(crate) fn stream(&self, r: usize) -> (usize, usize, usize) {
        let (s, p) = (self.s, self.p);
        let j0 = ((r + p) / s).min(self.pw);
        let n = match r < self.w {
            true => (self.w - r).div_ceil(s).min(self.pw - j0),
            false => 0,
        };
        ((r + p) % s, j0, n)
    }

    /// Staged floats one image takes, the overhang of the kernels' last
    /// vector not included.
    fn len(&self) -> usize {
        self.c * self.chan
    }
}

/// `len` floats of `+0.0` at `p`: whole vectors, the last one moved back
/// to end at `p + len` (overlapping the one before it) rather than masked;
/// one float at a time below a vector.
#[inline(always)]
unsafe fn zero_run<V: Lanes>(p: *mut f32, len: usize) {
    if len < V::N {
        for k in 0..len {
            *p.add(k) = 0.0;
        }
        return;
    }
    let mut k = 0;
    while k + V::N < len {
        V::zero().store(p.add(k));
        k += V::N;
    }
    V::zero().store(p.add(len - V::N));
}

/// `len` floats from `src` to `dst`, as [`zero_run`] writes its zeros.
#[inline(always)]
unsafe fn copy_run<V: Lanes>(src: *const f32, dst: *mut f32, len: usize) {
    if len < V::N {
        for k in 0..len {
            *dst.add(k) = *src.add(k);
        }
        return;
    }
    let mut k = 0;
    while k + V::N < len {
        V::load(src.add(k)).store(dst.add(k));
        k += V::N;
    }
    V::load(src.add(len - V::N)).store(dst.add(len - V::N));
}

/// A stride-2 row's pairs `t < n`, split into (`MERGE` false) or merged
/// from its two column streams, as [`zero_run`] writes its zeros: whole
/// vectors of pairs, the last moved back to end at pair `n`.
#[inline(always)]
unsafe fn pair_run<V: Lanes, const MERGE: bool>(a: PairArgs) {
    if a.n < V::N {
        for t in 0..a.n {
            pair_block::<f32, MERGE>(a, t);
        }
        return;
    }
    let mut t = 0;
    while t + V::N < a.n {
        pair_block::<V, MERGE>(a, t);
        t += V::N;
    }
    pair_block::<V, MERGE>(a, a.n - V::N);
}

/// The staging pass at `V` (`MERGE` false: image to staged) or its inverse
/// (`MERGE`: staged to image, only the pixels some tap reaches written),
/// row by row with no call and no masked store: a staged row is a vector
/// of zeros at each end — the only zeros it has beside its run, padding
/// aside — with the run on top, a vector copy at stride 1 and a vector
/// (de)interleave of the image row's two column streams at stride 2.
/// Wider strides take [`staging_any`].
#[inline(always)]
unsafe fn staging_kernel<V: Lanes, const S: usize, const MERGE: bool>(
    g: Staging,
    image: *mut f32,
    staged: *mut f32,
) {
    let (pw, plane) = (g.pw, g.ph * g.pw);
    let near = [g.stream(0), g.stream(S - 1)];
    // Each end's zeros: at least a vector, when the row is one.
    let edge = V::N.min(pw);
    let zero_ends = |row: *mut f32, (_, j0, n): (usize, usize, usize)| {
        let end = (j0 + n).min(pw - edge);
        zero_run::<V>(row, j0.max(edge));
        zero_run::<V>(row.add(end), pw - end);
    };
    for ci in 0..g.c {
        let chan = staged.add(ci * g.chan);
        let pixels = image.add(ci * g.h * g.w);
        for a in 0..S {
            for i in 0..g.ph {
                // Row `i` of planes `(a, 0)` and, at stride 2, `(a, 1)`.
                let rows = chan.add(a * S * plane + i * pw);
                let ih = (i * S + a).wrapping_sub(g.p);
                if ih >= g.h {
                    if !MERGE {
                        for b in 0..S {
                            zero_run::<V>(rows.add(b * plane), pw);
                        }
                    }
                    continue;
                }
                let px = pixels.add(ih * g.w);
                if S == 1 {
                    let (_, j0, n) = near[0];
                    if MERGE {
                        copy_run::<V>(rows.add(j0), px, n);
                    } else {
                        zero_ends(rows, near[0]);
                        copy_run::<V>(px, rows.add(j0), n);
                    }
                    continue;
                }
                let ((b0, j0, n0), (b1, j1, n1)) = (near[0], near[1]);
                let (even, odd) = (rows.add(b0 * plane + j0), rows.add(b1 * plane + j1));
                if !MERGE {
                    zero_ends(rows.add(b0 * plane), near[0]);
                    zero_ends(rows.add(b1 * plane), near[1]);
                }
                pair_run::<V, MERGE>(PairArgs {
                    pairs: px,
                    even,
                    odd,
                    n: n1,
                });
                if n0 > n1 {
                    if MERGE {
                        *px.add(2 * n1) = *even.add(n1);
                    } else {
                        *even.add(n1) = *px.add(2 * n1);
                    }
                }
            }
        }
    }
}

/// [`staging_kernel`] for any stride, a float at a time.
unsafe fn staging_any<const MERGE: bool>(g: Staging, image: *mut f32, staged: *mut f32) {
    let (s, pw, plane) = (g.s, g.pw, g.ph * g.pw);
    if !MERGE {
        std::slice::from_raw_parts_mut(staged, g.len()).fill(0.0);
    }
    for ci in 0..g.c {
        for ih in 0..g.h {
            let (a, i) = ((ih + g.p) % s, (ih + g.p) / s);
            if i >= g.ph {
                break;
            }
            let px = image.add((ci * g.h + ih) * g.w);
            for r in 0..s {
                let (b, j0, n) = g.stream(r);
                let run = staged.add(ci * g.chan + (a * s + b) * plane + i * pw + j0);
                for t in 0..n {
                    if MERGE {
                        *px.add(r + t * s) = *run.add(t);
                    } else {
                        *run.add(t) = *px.add(r + t * s);
                    }
                }
            }
        }
    }
}

/// Stages one image `[C, H, W]` into `staged` for the direct convolution
/// kernels: padding and the positions no pixel reaches `+0.0`, every
/// other position the pixel it holds. No pass zeroes the whole image
/// first: a row holding pixels gets at most two vectors of zeros.
///
/// # Panics
///
/// Panics unless `image` holds `c·h·w` floats and `staged` at least
/// `c·chan`, with the planes wide enough for their streams.
pub(crate) fn stage_image(g: Staging, image: &[f32], staged: &mut [f32]) {
    let (image_len, staged_len) = (image.len(), staged.len());
    let (image, staged) = (image.as_ptr().cast_mut(), staged.as_mut_ptr());
    // SAFETY: `image` is only read when staging.
    unsafe { staging::<false>(g, image, image_len, staged, staged_len) }
}

/// The inverse of [`stage_image`] for a staged gradient: copies every
/// staged pixel to its place in `image` and leaves the pixels no tap
/// reaches as they are.
///
/// # Panics
///
/// As [`stage_image`].
pub(crate) fn unstage_image(g: Staging, staged: &[f32], image: &mut [f32]) {
    let (image_len, staged_len) = (image.len(), staged.len());
    let (image, staged) = (image.as_mut_ptr(), staged.as_ptr().cast_mut());
    // SAFETY: `staged` is only read when merging.
    unsafe { staging::<true>(g, image, image_len, staged, staged_len) }
}

/// [`stage_image`] or, `MERGE`, [`unstage_image`] on the active tier.
///
/// # Safety
///
/// `image` and `staged` must be valid for `image_len` and `staged_len`
/// floats, the one written (`staged` unless `MERGE`) writable.
unsafe fn staging<const MERGE: bool>(
    g: Staging,
    image: *mut f32,
    image_len: usize,
    staged: *mut f32,
    staged_len: usize,
) {
    assert_eq!(image_len, g.c * g.h * g.w, "staging: image");
    assert!(staged_len >= g.len(), "staging: staged image");
    assert!(
        g.s > 0 && g.chan >= g.s * g.s * g.ph * g.pw,
        "staging: geometry"
    );
    for r in 0..g.s {
        let (b, j0, n) = g.stream(r);
        assert!(b < g.s && j0 + n <= g.pw, "staging: stream {r}");
        assert!(n == 0 || r + (n - 1) * g.s < g.w, "staging: stream {r}");
    }
    // SAFETY: the asserts bound every access: image row `ih < h` of
    // channel `ci < c` and its pixels `r + t·s < w` for `t < n` of stream
    // `r`; plane rows `i < ph` of the `s²` planes of each channel's `chan`
    // floats, columns `j0 + t < pw`; a stride-2 row's vectors cover pairs
    // `t < n` of its second stream only, and `2t + 1 < w` for those. The
    // tier match proves the CPU feature.
    unsafe {
        match (g.s, active_tier()) {
            #[cfg(target_arch = "x86_64")]
            (1, SimdTier::Avx512Fma | SimdTier::Avx2Fma) => {
                x86::staging_avx2::<1, MERGE>(g, image, staged)
            }
            #[cfg(target_arch = "x86_64")]
            (2, SimdTier::Avx512Fma | SimdTier::Avx2Fma) => {
                x86::staging_avx2::<2, MERGE>(g, image, staged)
            }
            (1, _) => staging_kernel::<f32, 1, MERGE>(g, image, staged),
            (2, _) => staging_kernel::<f32, 2, MERGE>(g, image, staged),
            _ => staging_any::<MERGE>(g, image, staged),
        }
    }
}

/// Operands of a stride-2 split or merge of a row's two column streams:
/// `pairs` is the interleaved side, `even` its even-indexed floats, `odd`
/// its odd-indexed ones; the vectors move pairs `t < n`.
#[derive(Clone, Copy)]
struct PairArgs {
    pairs: *mut f32,
    even: *mut f32,
    odd: *mut f32,
    /// Whole pairs: `odd`'s length.
    n: usize,
}

/// Pairs `t..t + V::N`, split (`MERGE` false) or merged.
#[inline(always)]
unsafe fn pair_block<V: Lanes, const MERGE: bool>(a: PairArgs, t: usize) {
    let pairs = a.pairs.add(2 * t);
    if MERGE {
        let (lo, hi) = V::interleave(V::load(a.even.add(t)), V::load(a.odd.add(t)));
        lo.store(pairs);
        hi.store(pairs.add(V::N));
    } else {
        let (even, odd) = V::deinterleave(V::load(pairs), V::load(pairs.add(V::N)));
        even.store(a.even.add(t));
        odd.store(a.odd.add(t));
    }
}

/// Runs in one block of the group-moment kernel: the lanes of one
/// [`Chains`] value.
const CHAINS: usize = 8;

/// Eight `f64` lanes, each the running sum of one run of a group-moment
/// block: `[f64; 8]` on the portable tier, `__m512d` and a pair of
/// `__m256d` on the vector tiers. The only arithmetic is `add`, `sub` and
/// `mul`, each rounded on its own — never fused — so a lane runs the chain
/// a scalar `f64` loop runs, whatever the width.
///
/// # Safety
///
/// `load`/`store` touch eight `f64` at `p`; the SIMD implementations also
/// require their CPU feature.
trait Chains: Copy {
    /// The eight-lane `f32` vector a block's values arrive in, one lane per
    /// chain: [`Lanes::transpose`] turns eight runs' next eight values into
    /// eight vectors of one value from each run.
    type Feed: Lanes;
    unsafe fn splat(v: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    /// The lanes of `v` as `f64`: exact.
    unsafe fn widen(v: Self::Feed) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
    unsafe fn sub(a: Self, b: Self) -> Self;
    unsafe fn mul(a: Self, b: Self) -> Self;
}

impl Chains for [f64; CHAINS] {
    type Feed = [f32; CHAINS];
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        [v; CHAINS]
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        p.cast::<Self>().read()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        p.cast::<Self>().write(self)
    }
    #[inline(always)]
    unsafe fn widen(v: Self::Feed) -> Self {
        v.map(|x| x as f64)
    }
    #[inline(always)]
    unsafe fn add(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] + b[l])
    }
    #[inline(always)]
    unsafe fn sub(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] - b[l])
    }
    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        std::array::from_fn(|l| a[l] * b[l])
    }
}

/// Operands of the group-moment kernel; see [`group_moments`]. `xs` holds
/// `runs` consecutive runs of `len` values; the plain pass writes a sum
/// per run to `means` (then divided into the mean), the `CENTRED` pass
/// reads those means and writes a squared-deviation sum per run to
/// `sq_devs`.
#[derive(Clone, Copy)]
struct MomentArgs {
    xs: *const f32,
    len: usize,
    runs: usize,
    means: *mut f64,
    sq_devs: *mut f64,
}

impl MomentArgs {
    /// Where a pass writes its sums.
    fn sums<const CENTRED: bool>(self) -> *mut f64 {
        if CENTRED {
            self.sq_devs
        } else {
            self.means
        }
    }
}

/// Extends run `j`'s chain `acc` over its values `from..len`, one at a
/// time: the value, or with `CENTRED` its squared deviation from the
/// run's mean.
#[inline(always)]
unsafe fn moment_chain<const CENTRED: bool>(a: MomentArgs, j: usize, from: usize, acc: f64) -> f64 {
    let mean = if CENTRED { *a.means.add(j) } else { 0.0 };
    let run = a.xs.add(j * a.len);
    (from..a.len).fold(acc, |acc, i| {
        let v = *run.add(i) as f64;
        let term = if CENTRED {
            let d = v - mean;
            d * d
        } else {
            v
        };
        acc + term
    })
}

/// `B` blocks of [`CHAINS`] runs from run `j0`, each block's chains in one
/// `C`: eight values of every run of a block are loaded and transposed at
/// a time, and vector `q` of the transpose extends every chain of the block
/// by its run's value `i + q` — widened, and with `CENTRED` its squared
/// deviation from the run's mean, the subtraction and the square each
/// rounded. The blocks' chains are independent, so stepping `B` of them in
/// one loop covers the adder's latency. The last `len mod 8` values of
/// every run are its chain one value at a time.
#[inline(always)]
unsafe fn moment_blocks<C: Chains, const B: usize, const CENTRED: bool>(a: MomentArgs, j0: usize) {
    debug_assert_eq!(C::Feed::N, CHAINS);
    let block = |b: usize| j0 + b * CHAINS;
    let mean: [C; B] = std::array::from_fn(|b| {
        if CENTRED {
            C::load(a.means.add(block(b)))
        } else {
            C::splat(0.0)
        }
    });
    let mut acc = [C::splat(-0.0); B];
    let mut i = 0;
    while i + CHAINS <= a.len {
        for b in 0..B {
            let p = a.xs.add(block(b) * a.len + i);
            let cols = load_transposed::<C::Feed, true>(p, a.len, CHAINS, CHAINS);
            for &col in cols.iter().take(CHAINS) {
                let v = C::widen(col);
                let term = if CENTRED {
                    let d = C::sub(v, mean[b]);
                    C::mul(d, d)
                } else {
                    v
                };
                acc[b] = C::add(acc[b], term);
            }
        }
        i += CHAINS;
    }
    let sums = a.sums::<CENTRED>();
    for (b, acc) in acc.into_iter().enumerate() {
        acc.store(sums.add(block(b)));
    }
    if i < a.len {
        for j in j0..block(B) {
            *sums.add(j) = moment_chain::<CENTRED>(a, j, i, *sums.add(j));
        }
    }
}

/// One pass over every run: two blocks at a time, then one, then the runs
/// that fill no block each as its own chain.
#[inline(always)]
unsafe fn moment_pass<C: Chains, const CENTRED: bool>(a: MomentArgs) {
    let mut j = 0;
    while j + 2 * CHAINS <= a.runs {
        moment_blocks::<C, 2, CENTRED>(a, j);
        j += 2 * CHAINS;
    }
    if j + CHAINS <= a.runs {
        moment_blocks::<C, 1, CENTRED>(a, j);
        j += CHAINS;
    }
    for j in j..a.runs {
        *a.sums::<CENTRED>().add(j) = moment_chain::<CENTRED>(a, j, 0, -0.0);
    }
}

/// The two passes of [`group_moments`] at `C`: the sums, turned into means
/// in place, then the squared deviations from them.
#[inline(always)]
unsafe fn moments_kernel<C: Chains>(a: MomentArgs) {
    moment_pass::<C, false>(a);
    for j in 0..a.runs {
        *a.means.add(j) /= a.len as f64;
    }
    moment_pass::<C, true>(a);
}

/// The moments of every run of `len` consecutive values of `xs` — the
/// groups of a GroupNorm, every sample's in turn: `means[j]` is run `j`'s
/// sum over `len`, `sq_devs[j]` the sum of its values' squared deviations
/// from that mean, both in `f64`. Each sum is one chain from `-0.0` in
/// element order with every operation rounded on its own, so bit for bit
/// `run.iter().map(f).sum::<f64>()` for `f` the value, or its `d * d` for
/// `d = v as f64 - mean`, on every tier and whatever slice of whole runs
/// `xs` is.
///
/// # Panics
///
/// Panics if `len` is zero or `xs`, `means` and `sq_devs` do not hold the
/// same number of runs.
pub fn group_moments(xs: &[f32], len: usize, means: &mut [f64], sq_devs: &mut [f64]) {
    assert!(len > 0, "group_moments: empty runs");
    assert_eq!(xs.len(), means.len() * len, "group_moments: whole runs");
    assert_eq!(sq_devs.len(), means.len(), "group_moments: one sum per run");
    let a = MomentArgs {
        xs: xs.as_ptr(),
        len,
        runs: means.len(),
        means: means.as_mut_ptr(),
        sq_devs: sq_devs.as_mut_ptr(),
    };
    // SAFETY: the asserts bound every access: `xs[j * len + i]` for
    // `i < len`, `means[j]` and `sq_devs[j]` for `j < runs`, a block's
    // eight runs only when they all exist; the centred pass reads the means
    // the first one wrote; the tier match proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::moments_avx512(a),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::moments_avx2(a),
            _ => moments_kernel::<[f64; CHAINS]>(a),
        }
    }
}

/// The scalars of one [`sgdm_sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepScalars {
    /// `s`, the gradient multiplier (gradient shrinking; 1 otherwise).
    pub grad_scale: f32,
    /// `m`.
    pub momentum: f32,
    /// `η`.
    pub lr: f32,
    /// Spike-compensation coefficients (Eqs. 10-12); `a = 1, b = 0` is
    /// plain SGDM.
    pub a: f32,
    pub b: f32,
}

/// The forward weight version an [`sgdm_sweep`] writes beside the update,
/// from the values it just computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predict {
    /// `ŵ = w'`: no prediction, the next version is the updated weights.
    Copy,
    /// `ŵ = w' + alpha·v'` with `alpha = −η·T` (Eq. 18).
    Velocity { alpha: f32 },
    /// `ŵ = w' + T·(w' − w)` (Eq. 19), `w` being the weight the sweep read.
    WeightDiff { horizon: f32 },
}

/// Floats ahead of the element being swept at which the vector tiers
/// prefetch `v`, `w` (to read) and the side outputs (to write): 2 KiB, 32
/// cache lines of every stream. On a two-vCPU AVX-512 Xeon 256 to 1024
/// floats timed the same and 2048 was slower; no lookahead at all (0)
/// timed within the noise of 512 there, in `fc0`'s sweep alone and in the
/// pipeline. The written lines are prefetched into the cache (`prefetchw`)
/// rather than streamed past it: the next forward reads `ŵ`, and from DRAM
/// it would pay for that.
const SWEEP_PREFETCH: usize = 512;

/// Floats the sweep steps between prefetches: one 64-byte cache line.
const LINE: usize = 16;

/// The side output forms of [`sweep_kernel`], as its `NEXT` parameter.
const NO_NEXT: u8 = 0;
const NEXT_COPY: u8 = 1;
const NEXT_VELOCITY: u8 = 2;
const NEXT_WEIGHT_DIFF: u8 = 3;

/// One contiguous run of an [`sgdm_sweep`]: `n` elements of `v` and `w`,
/// and of `prev` and `next` unless they are null, from the dense gradient
/// at `g` or, for a factored row, from `delta` and the `x` at `g`; a
/// factored row also adds `delta·w` into the `n` elements of `gx` unless
/// it is null.
#[derive(Clone, Copy)]
struct SweepArgs {
    k: SweepScalars,
    g: *const f32,
    delta: f32,
    v: *mut f32,
    w: *mut f32,
    prev: *mut f32,
    next: *mut f32,
    gx: *mut f32,
    predict: Option<Predict>,
    n: usize,
}

impl SweepArgs {
    /// The run of `n` elements `at` elements in, reading `g`. `gx` is one
    /// row wide and every row adds into it, so it does not move.
    fn run(self, at: usize, n: usize, g: *const f32, delta: f32) -> SweepArgs {
        // `wrapping_add`: `prev` and `next` may be null, and are then never
        // dereferenced.
        SweepArgs {
            g,
            delta,
            v: self.v.wrapping_add(at),
            w: self.w.wrapping_add(at),
            prev: self.prev.wrapping_add(at),
            next: self.next.wrapping_add(at),
            n,
            ..self
        }
    }
}

/// The scalars of one sweep run, one per lane: `s`, `m`, `η`, `a`, `b`,
/// the side output's `alpha` or `T`, and a factored row's `δ`.
#[derive(Clone, Copy)]
struct SweepLanes<V> {
    s: V,
    m: V,
    lr: V,
    a: V,
    b: V,
    t: V,
    delta: V,
}

/// One vector of the run at element `j`. Every lane computes, each
/// operation rounded on its own and none fused,
///
/// ```text
/// g  = s·∇            ∇ = run[j], or fma(δ, x[j], +0.0) when ROW
/// v' = m·v + g
/// w' = w − η·(a·v' + b·g)
/// ```
///
/// then stores `v'`, `w'`, `w` to `prev` when `PREV`, and `ŵ` to `next` in
/// the form `NEXT` names — the scalar loop's operations in the scalar
/// loop's order. When `GX` (a factored row only) it also stores
/// `fma(δ, w, gx[j])` to `gx[j]`, from the weight it read before the
/// update: one link of `gemm_nn`'s `m = 1` chain for the input gradient
/// `δ·W`. A function and not a closure: a closure does not inherit the
/// `#[target_feature]` of the wrapper it is inlined into, and the
/// intrinsics it called would not be inlined.
#[inline(always)]
unsafe fn sweep_step<
    V: Lanes,
    const ROW: bool,
    const GX: bool,
    const PREV: bool,
    const NEXT: u8,
>(
    a: &SweepArgs,
    c: &SweepLanes<V>,
    j: usize,
) {
    let g = if ROW {
        V::fma(c.delta, V::load(a.g.add(j)), V::zero())
    } else {
        V::load(a.g.add(j))
    };
    let g = V::mul(g, c.s);
    let w_old = V::load(a.w.add(j));
    if GX {
        V::fma(c.delta, w_old, V::load(a.gx.add(j))).store(a.gx.add(j));
    }
    let v = V::add(V::mul(c.m, V::load(a.v.add(j))), g);
    let w = V::sub(w_old, V::mul(c.lr, V::add(V::mul(c.a, v), V::mul(c.b, g))));
    v.store(a.v.add(j));
    w.store(a.w.add(j));
    if PREV {
        w_old.store(a.prev.add(j));
    }
    match NEXT {
        NEXT_COPY => w.store(a.next.add(j)),
        NEXT_VELOCITY => V::add(w, V::mul(c.t, v)).store(a.next.add(j)),
        NEXT_WEIGHT_DIFF => V::add(w, V::mul(c.t, V::sub(w, w_old))).store(a.next.add(j)),
        _ => {}
    }
}

/// [`sweep_step`] over the whole vectors of the run from element `from`
/// on; returns where they end. One cache line of every stream a step,
/// each prefetched [`SWEEP_PREFETCH`] floats ahead.
#[inline(always)]
unsafe fn sweep_kernel<
    V: Lanes,
    const ROW: bool,
    const GX: bool,
    const PREV: bool,
    const NEXT: u8,
>(
    a: SweepArgs,
    from: usize,
) -> usize {
    let t = match a.predict {
        Some(Predict::Velocity { alpha }) => alpha,
        Some(Predict::WeightDiff { horizon }) => horizon,
        _ => 0.0,
    };
    let c = SweepLanes {
        s: V::splat(a.k.grad_scale),
        m: V::splat(a.k.momentum),
        lr: V::splat(a.k.lr),
        a: V::splat(a.k.a),
        b: V::splat(a.k.b),
        t: V::splat(t),
        delta: V::splat(a.delta),
    };
    let mut j = from;
    while j + LINE <= a.n {
        let ahead = j + SWEEP_PREFETCH;
        V::prefetch(a.v.wrapping_add(ahead));
        V::prefetch(a.w.wrapping_add(ahead));
        if PREV {
            V::prefetch_write(a.prev.wrapping_add(ahead));
        }
        if NEXT != NO_NEXT {
            V::prefetch_write(a.next.wrapping_add(ahead));
        }
        for q in 0..LINE / V::N {
            sweep_step::<V, ROW, GX, PREV, NEXT>(&a, &c, j + q * V::N);
        }
        j += LINE;
    }
    while j + V::N <= a.n {
        sweep_step::<V, ROW, GX, PREV, NEXT>(&a, &c, j);
        j += V::N;
    }
    j
}

/// [`sweep_kernel`] at `V`, then at `f32` for the tail.
#[inline(always)]
unsafe fn sweep_whole<
    V: Lanes,
    const ROW: bool,
    const GX: bool,
    const PREV: bool,
    const NEXT: u8,
>(
    a: SweepArgs,
) {
    let j = sweep_kernel::<V, ROW, GX, PREV, NEXT>(a, 0);
    sweep_kernel::<f32, ROW, GX, PREV, NEXT>(a, j);
}

/// [`sweep_whole`] with the side outputs `a` asks for: `prev` when the
/// whole sweep's `prev` is not null (a run's own pointer is offset from it,
/// null or not).
#[inline(always)]
unsafe fn sweep_sides<V: Lanes, const ROW: bool, const GX: bool>(a: SweepArgs, prev: bool) {
    match (a.predict, prev) {
        (None, false) => sweep_whole::<V, ROW, GX, false, NO_NEXT>(a),
        (None, true) => sweep_whole::<V, ROW, GX, true, NO_NEXT>(a),
        (Some(Predict::Copy), false) => sweep_whole::<V, ROW, GX, false, NEXT_COPY>(a),
        (Some(Predict::Copy), true) => sweep_whole::<V, ROW, GX, true, NEXT_COPY>(a),
        (Some(Predict::Velocity { .. }), false) => {
            sweep_whole::<V, ROW, GX, false, NEXT_VELOCITY>(a)
        }
        (Some(Predict::Velocity { .. }), true) => sweep_whole::<V, ROW, GX, true, NEXT_VELOCITY>(a),
        (Some(Predict::WeightDiff { .. }), false) => {
            sweep_whole::<V, ROW, GX, false, NEXT_WEIGHT_DIFF>(a)
        }
        (Some(Predict::WeightDiff { .. }), true) => {
            sweep_whole::<V, ROW, GX, true, NEXT_WEIGHT_DIFF>(a)
        }
    }
}

/// The sweep of one parameter at `V`: its dense gradient as one run, or a
/// factored one row by row, in row order.
#[inline(always)]
unsafe fn sweep_any<V: Lanes>(a: SweepArgs, g: GradView<'_>) {
    let prev = !a.prev.is_null();
    match g {
        GradView::Dense(t) => {
            sweep_sides::<V, false, false>(a.run(0, a.n, t.as_slice().as_ptr(), 0.0), prev)
        }
        GradView::Outer { delta, x } => {
            for (r, &d) in delta.iter().enumerate() {
                let a = a.run(r * x.len(), x.len(), x.as_ptr(), d);
                if a.gx.is_null() {
                    sweep_sides::<V, true, false>(a, prev)
                } else {
                    sweep_sides::<V, true, true>(a, prev)
                }
            }
        }
    }
}

/// The update every optimizer step in the project is (SGDM with spike
/// compensation, Eqs. 7-8 and 10-12): one pass over a parameter's gradient
/// `g` — dense, or factored and formed row by row as
/// [`GradView`]'s contract states — its velocity `v` and weights `w`,
/// writing, when asked, the pre-update weights into `prev` and the forward
/// weight version `next` describes beside them. Each element runs
/// `g = s·∇; v' = m·v + g; w' = w − η(a·v' + b·g)` and its `ŵ`, with no
/// fused multiply-add and in that order, so it is bit for bit the scalar
/// loop that once stood here, on every tier.
///
/// For a factored gradient `δ ⊗ x` the same pass can also produce the
/// input gradient `gx = δ·W` of the layer whose weight `w` is, read from
/// the weights *before* the update: `gx`, `x.len()` wide and zeroed by the
/// caller, gains `fma(δ_r, w_r[j], gx[j])` row by row, in row order — the
/// chain `gemm_nn` runs at `m = 1`, so `gx` is bit for bit `δ·W`, and the
/// weights are read once for both.
///
/// # Panics
///
/// Panics if `g`, `w`, `prev` or `next` differs in length from `v`, or if
/// `gx` is given for a dense gradient or differs in length from `x`.
pub fn sgdm_sweep(
    k: SweepScalars,
    g: GradView<'_>,
    v: &mut [f32],
    w: &mut [f32],
    prev: Option<&mut [f32]>,
    next: Option<(&mut [f32], Predict)>,
    gx: Option<&mut [f32]>,
) {
    let n = v.len();
    assert_eq!(w.len(), n, "sgdm_sweep: param/velocity shape mismatch");
    assert_eq!(g.len(), n, "sgdm_sweep: grad/velocity shape mismatch");
    let prev = prev.map_or(std::ptr::null_mut(), |p| {
        assert_eq!(p.len(), n, "sgdm_sweep: prev shape mismatch");
        p.as_mut_ptr()
    });
    let (next, predict) = match next {
        Some((next, predict)) => {
            assert_eq!(next.len(), n, "sgdm_sweep: next shape mismatch");
            (next.as_mut_ptr(), Some(predict))
        }
        None => (std::ptr::null_mut(), None),
    };
    let gx = gx.map_or(std::ptr::null_mut(), |gx| {
        match g {
            GradView::Outer { x, .. } => {
                assert_eq!(gx.len(), x.len(), "sgdm_sweep: gx/x shape mismatch")
            }
            GradView::Dense(_) => panic!("sgdm_sweep: gx needs a factored gradient"),
        }
        gx.as_mut_ptr()
    });
    let a = SweepArgs {
        k,
        g: std::ptr::null(),
        delta: 0.0,
        v: v.as_mut_ptr(),
        w: w.as_mut_ptr(),
        prev,
        next,
        gx,
        predict,
        n,
    };
    // SAFETY: the asserts bound every access: element `j < n` of `v`, `w`
    // and of `prev` / `next` when given, of a dense `g`, and for a factored
    // row `r` elements `r·cols + j` with `j < cols`, `x[j]` and `gx[j]`
    // when given; a null side output is never dereferenced; the tier match
    // proves the CPU feature.
    unsafe {
        match active_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512Fma => x86::sweep_avx512(a, g),
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2Fma => x86::sweep_avx2(a, g),
            // One lane per step, as the axpy sweep: the form the compiler
            // vectorizes.
            _ => sweep_any::<f32>(a, g),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        BwdInputArgs, BwdWeightArgs, Chains, FwdArgs, Lanes, MomentArgs, NtArgs, PackArgs, Staging,
        SweepArgs, Tile, MAX_LANES,
    };
    use crate::GradView;
    use std::arch::x86_64::*;

    /// `MASK_TABLE[8 - w..][..8]` is `w` all-ones lanes then zeros: the
    /// mask `vmaskmovps` wants for the first `w <= 8` lanes.
    const MASK_TABLE: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    #[inline(always)]
    unsafe fn first_lanes_256(w: usize) -> __m256i {
        debug_assert!(w <= 8);
        _mm256_loadu_si256(MASK_TABLE.as_ptr().add(8 - w).cast())
    }

    #[inline(always)]
    fn first_lanes_512(w: usize) -> __mmask16 {
        debug_assert!(w <= 16);
        ((1u32 << w) - 1) as __mmask16
    }

    /// The one prefetch both vector types issue: `T0` to read,
    /// `_MM_HINT_ET0` (`prefetchw`) to own the line for a write. A
    /// prefetch neither faults nor dereferences, so `p` may point anywhere.
    #[inline(always)]
    unsafe fn prefetch_line<const HINT: i32>(p: *const f32) {
        _mm_prefetch::<HINT>(p.cast())
    }

    impl Lanes for __m256 {
        const N: usize = 8;
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
        unsafe fn load_first(p: *const f32, w: usize) -> Self {
            _mm256_maskload_ps(p, first_lanes_256(w))
        }
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, w: usize) {
            _mm256_maskstore_ps(p, first_lanes_256(w), self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn prefetch(p: *const f32) {
            prefetch_line::<_MM_HINT_T0>(p)
        }
        #[inline(always)]
        unsafe fn prefetch_write(p: *mut f32) {
            prefetch_line::<_MM_HINT_ET0>(p)
        }
        /// 8×8: 4×4 transposes inside the 128-bit halves (unpack, then
        /// shuffle), then the halves of rows `c` and `4 + c` regrouped.
        #[inline(always)]
        unsafe fn transpose(rows: &mut [Self; MAX_LANES]) {
            let mut cols = [_mm256_setzero_ps(); 8];
            for g in 0..2 {
                let r = &rows[4 * g..4 * g + 4];
                let (t0, t1) = (
                    _mm256_unpacklo_ps(r[0], r[1]),
                    _mm256_unpackhi_ps(r[0], r[1]),
                );
                let (t2, t3) = (
                    _mm256_unpacklo_ps(r[2], r[3]),
                    _mm256_unpackhi_ps(r[2], r[3]),
                );
                cols[4 * g] = _mm256_shuffle_ps::<0x44>(t0, t2);
                cols[4 * g + 1] = _mm256_shuffle_ps::<0xEE>(t0, t2);
                cols[4 * g + 2] = _mm256_shuffle_ps::<0x44>(t1, t3);
                cols[4 * g + 3] = _mm256_shuffle_ps::<0xEE>(t1, t3);
            }
            for c in 0..4 {
                rows[c] = _mm256_permute2f128_ps::<0x20>(cols[c], cols[4 + c]);
                rows[4 + c] = _mm256_permute2f128_ps::<0x31>(cols[c], cols[4 + c]);
            }
        }
        /// Pairs picked inside each 128-bit half (`a`'s two, then `b`'s),
        /// then the 64-bit quarters put in order: 0, 2, 1, 3.
        #[inline(always)]
        unsafe fn deinterleave(a: Self, b: Self) -> (Self, Self) {
            let order =
                |v: Self| _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(v)));
            (
                order(_mm256_shuffle_ps::<0x88>(a, b)),
                order(_mm256_shuffle_ps::<0xDD>(a, b)),
            )
        }
        /// Unpacked inside each 128-bit half, then the halves regrouped.
        #[inline(always)]
        unsafe fn interleave(even: Self, odd: Self) -> (Self, Self) {
            let (lo, hi) = (_mm256_unpacklo_ps(even, odd), _mm256_unpackhi_ps(even, odd));
            (
                _mm256_permute2f128_ps::<0x20>(lo, hi),
                _mm256_permute2f128_ps::<0x31>(lo, hi),
            )
        }
    }

    impl Lanes for __m512 {
        const N: usize = 16;
        /// Thirty-two registers: twice the chains.
        const ROWS: usize = 16;
        /// One `__m512` per row: eight rows are the eight chains, in eight
        /// of thirty-two zmm.
        const TILE_ROWS: usize = 8;
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
        unsafe fn load_first(p: *const f32, w: usize) -> Self {
            _mm512_maskz_loadu_ps(first_lanes_512(w), p)
        }
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, w: usize) {
            _mm512_mask_storeu_ps(p, first_lanes_512(w), self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            _mm512_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm512_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm512_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm512_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn prefetch(p: *const f32) {
            prefetch_line::<_MM_HINT_T0>(p)
        }
        #[inline(always)]
        unsafe fn prefetch_write(p: *mut f32) {
            prefetch_line::<_MM_HINT_ET0>(p)
        }
        /// 16×16: 4×4 transposes inside the 128-bit quarters (unpack, then
        /// shuffle), then a 4×4 transpose of whole quarters among rows
        /// `c`, `4 + c`, `8 + c`, `12 + c` — 64 shuffles for 256 floats.
        #[inline(always)]
        unsafe fn transpose(rows: &mut [Self; MAX_LANES]) {
            let mut cols = [_mm512_setzero_ps(); 16];
            for g in 0..4 {
                let r = &rows[4 * g..4 * g + 4];
                let (t0, t1) = (
                    _mm512_unpacklo_ps(r[0], r[1]),
                    _mm512_unpackhi_ps(r[0], r[1]),
                );
                let (t2, t3) = (
                    _mm512_unpacklo_ps(r[2], r[3]),
                    _mm512_unpackhi_ps(r[2], r[3]),
                );
                cols[4 * g] = _mm512_shuffle_ps::<0x44>(t0, t2);
                cols[4 * g + 1] = _mm512_shuffle_ps::<0xEE>(t0, t2);
                cols[4 * g + 2] = _mm512_shuffle_ps::<0x44>(t1, t3);
                cols[4 * g + 3] = _mm512_shuffle_ps::<0xEE>(t1, t3);
            }
            for c in 0..4 {
                let even_lo = _mm512_shuffle_f32x4::<0x88>(cols[c], cols[4 + c]);
                let odd_lo = _mm512_shuffle_f32x4::<0xDD>(cols[c], cols[4 + c]);
                let even_hi = _mm512_shuffle_f32x4::<0x88>(cols[8 + c], cols[12 + c]);
                let odd_hi = _mm512_shuffle_f32x4::<0xDD>(cols[8 + c], cols[12 + c]);
                rows[c] = _mm512_shuffle_f32x4::<0x88>(even_lo, even_hi);
                rows[4 + c] = _mm512_shuffle_f32x4::<0x88>(odd_lo, odd_hi);
                rows[8 + c] = _mm512_shuffle_f32x4::<0xDD>(even_lo, even_hi);
                rows[12 + c] = _mm512_shuffle_f32x4::<0xDD>(odd_lo, odd_hi);
            }
        }
        /// One two-source permute per output.
        #[inline(always)]
        unsafe fn deinterleave(a: Self, b: Self) -> (Self, Self) {
            (
                _mm512_permutex2var_ps(a, pick(&EVENS), b),
                _mm512_permutex2var_ps(a, pick(&ODDS), b),
            )
        }
        #[inline(always)]
        unsafe fn interleave(even: Self, odd: Self) -> (Self, Self) {
            (
                _mm512_permutex2var_ps(even, pick(&ZIP_LO), odd),
                _mm512_permutex2var_ps(even, pick(&ZIP_HI), odd),
            )
        }
    }

    /// Two-source permute indices: `0..16` name the first operand's lanes,
    /// `16..32` the second's.
    const EVENS: [i32; 16] = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30];
    const ODDS: [i32; 16] = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31];
    const ZIP_LO: [i32; 16] = [0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23];
    const ZIP_HI: [i32; 16] = [8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31];

    #[inline(always)]
    unsafe fn pick(index: &[i32; 16]) -> __m512i {
        _mm512_loadu_si512(index.as_ptr().cast())
    }

    /// Eight chains in one vector.
    impl Chains for __m512d {
        type Feed = __m256;
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            _mm512_set1_pd(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self)
        }
        #[inline(always)]
        unsafe fn widen(v: __m256) -> Self {
            _mm512_cvtps_pd(v)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm512_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm512_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm512_mul_pd(a, b)
        }
    }

    /// Eight chains in two vectors of four: chains `0..4` in the first,
    /// `4..8` in the second.
    impl Chains for [__m256d; 2] {
        type Feed = __m256;
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            [_mm256_set1_pd(v); 2]
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))]
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self[0]);
            _mm256_storeu_pd(p.add(4), self[1]);
        }
        #[inline(always)]
        unsafe fn widen(v: __m256) -> Self {
            [
                _mm256_cvtps_pd(_mm256_castps256_ps128(v)),
                _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)),
            ]
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            [_mm256_add_pd(a[0], b[0]), _mm256_add_pd(a[1], b[1])]
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            [_mm256_sub_pd(a[0], b[0]), _mm256_sub_pd(a[1], b[1])]
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            [_mm256_mul_pd(a[0], b[0]), _mm256_mul_pd(a[1], b[1])]
        }
    }

    /// The kernels of [`super`] instantiated per tier.
    ///
    /// # Safety
    ///
    /// The named CPU features must be available at runtime, and the bounds
    /// the entry points in [`super`] assert or require must hold.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn conv_forward_avx2(a: FwdArgs<'_>) {
        super::fwd_kernel::<__m256>(a)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn conv_forward_avx512(a: FwdArgs<'_>) {
        super::fwd_kernel::<__m512>(a)
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

    /// See [`conv_forward_avx2`]. At `__m256` on the AVX-512 tier too: a
    /// staged row is a few vectors long, and a stride-2 row's streams are
    /// rarely sixteen pixels.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn staging_avx2<const S: usize, const MERGE: bool>(
        g: Staging,
        image: *mut f32,
        staged: *mut f32,
    ) {
        super::staging_kernel::<__m256, S, MERGE>(g, image, staged)
    }

    /// See [`conv_forward_avx2`]. Outputs sixteen at a time while a whole
    /// `__m512` of them (and of `k`) is left, then eight, then one lane.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn nt_row_avx512(t: NtArgs<'_>) {
        let j = super::nt_vectors::<__m512>(t, 0);
        let j = super::nt_vectors::<__m256>(t, j);
        super::nt_one_lane(t, j)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn nt_row_avx2(t: NtArgs<'_>) {
        let j = super::nt_vectors::<__m256>(t, 0);
        super::nt_one_lane(t, j)
    }

    /// See [`conv_forward_avx2`]. Sixteen rows of `B` a block.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn pack_bt_avx512(t: PackArgs) {
        super::pack_bt_any::<__m512>(t)
    }

    /// See [`conv_forward_avx2`]. Two groups of eight rows of `B`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn pack_bt_avx2(t: PackArgs) {
        super::pack_bt_any::<__m256>(t)
    }

    /// See [`conv_forward_avx2`]. Two `__m256` per tile row. The inline hint
    /// lets a build whose baseline already has the feature fold the tile
    /// into the region loop, as it did the hand-written ones: out of line
    /// the call costs 2 % at 64×256×256.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile_avx2<const AT: bool, const MRL: usize>(t: Tile<'_>) {
        super::tile_any::<__m256, 2, AT, MRL>(t)
    }

    /// See [`conv_forward_avx2`]. `NR` is exactly one `__m512`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_avx512<const AT: bool, const MRL: usize>(t: Tile<'_>) {
        super::tile_any::<__m512, 1, AT, MRL>(t)
    }

    /// See [`conv_forward_avx2`]. A block's chains in one `__m512d`, fed
    /// by `__m256` transposes.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn moments_avx512(a: MomentArgs) {
        super::moments_kernel::<__m512d>(a)
    }

    /// See [`conv_forward_avx2`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn moments_avx2(a: MomentArgs) {
        super::moments_kernel::<[__m256d; 2]>(a)
    }

    /// See [`conv_forward_avx2`]; `b.len() == c.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy_avx2(av: f32, b: &[f32], c: &mut [f32], zero_init: bool) {
        super::axpy_sweep::<__m256>(av, b, c, zero_init)
    }

    /// See [`conv_forward_avx2`]; `b.len() == c.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn axpy_avx512(av: f32, b: &[f32], c: &mut [f32], zero_init: bool) {
        super::axpy_sweep::<__m512>(av, b, c, zero_init)
    }

    /// See [`conv_forward_avx2`]. Two `__m256` a cache line.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn sweep_avx2(a: SweepArgs, g: GradView<'_>) {
        super::sweep_any::<__m256>(a, g)
    }

    /// See [`conv_forward_avx2`]. One `__m512` a cache line.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn sweep_avx512(a: SweepArgs, g: GradView<'_>) {
        super::sweep_any::<__m512>(a, g)
    }
}

#[cfg(test)]
mod tests {
    use super::super::gemm::tests::{assert_bits_eq, rand_vec};
    use super::*;
    use crate::Tensor;

    #[test]
    fn tiers_order_and_clamp() {
        let _g = tier_lock();
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

    /// Written where no kernel may write, and never a value a kernel
    /// computes from the inputs below.
    const SENTINEL: f32 = -12345.0;

    /// Runs a check at every lane type this CPU supports, with the
    /// vectors-per-tile-row each one takes.
    macro_rules! on_every_lane_type {
        ($check:ident) => {{
            $check::<f32, NR>("f32");
            $check::<[f32; MAX_LANES], 1>("[f32; 16]");
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::x86_64::{__m256, __m512};
                if detected_tier() >= SimdTier::Avx2Fma {
                    $check::<__m256, 2>("__m256");
                }
                if detected_tier() >= SimdTier::Avx512Fma {
                    $check::<__m512, 1>("__m512");
                }
            }
        }};
    }

    fn masked_pair_stays_inside_w<V: Lanes, const VR: usize>(ty: &str) {
        let n = V::N;
        let src = rand_vec(n, 1);
        for w in 0..=n {
            // Past `p + w` the source holds NaN: a lane read from there
            // would not come back `+0.0`.
            let mut from = vec![f32::NAN; 3 * n];
            from[n..n + w].copy_from_slice(&src[..w]);
            let mut lanes = vec![SENTINEL; n];
            let mut to = vec![SENTINEL; 3 * n];
            // SAFETY: `from` and `to` hold a whole vector either side of
            // `n`, `lanes` exactly one; the macro proved the CPU feature.
            unsafe {
                let v = V::load_first(from.as_ptr().add(n), w);
                v.store(lanes.as_mut_ptr());
                V::load(src.as_ptr()).store_first(to.as_mut_ptr().add(n), w);
            }
            let mut want = vec![0.0; n];
            want[..w].copy_from_slice(&src[..w]);
            assert_bits_eq(&lanes, &want, &format!("{ty} load_first w={w}"));
            let mut want = vec![SENTINEL; 3 * n];
            want[n..n + w].copy_from_slice(&src[..w]);
            assert_bits_eq(&to, &want, &format!("{ty} store_first w={w}"));
        }
    }

    #[test]
    fn load_first_and_store_first_touch_exactly_w_lanes() {
        on_every_lane_type!(masked_pair_stays_inside_w);
    }

    /// The stride-2 staging shuffles at `V`: a deinterleave of two vectors
    /// is their even- and odd-indexed floats in order, and an interleave
    /// puts them back.
    fn pairs_split_and_merge<V: Lanes, const VR: usize>(ty: &str) {
        let n = V::N;
        let src = rand_vec(2 * n, 3);
        let (mut even, mut odd) = (vec![SENTINEL; n], vec![SENTINEL; n]);
        let mut back = vec![SENTINEL; 2 * n];
        // SAFETY: `src` and `back` hold two vectors, `even` and `odd` one
        // each; the macro proved the CPU feature.
        unsafe {
            let (e, o) = V::deinterleave(V::load(src.as_ptr()), V::load(src.as_ptr().add(n)));
            e.store(even.as_mut_ptr());
            o.store(odd.as_mut_ptr());
            let (lo, hi) = V::interleave(e, o);
            lo.store(back.as_mut_ptr());
            hi.store(back.as_mut_ptr().add(n));
        }
        let want_even: Vec<f32> = src.iter().step_by(2).copied().collect();
        let want_odd: Vec<f32> = src.iter().skip(1).step_by(2).copied().collect();
        assert_bits_eq(&even, &want_even, &format!("{ty} deinterleave: evens"));
        assert_bits_eq(&odd, &want_odd, &format!("{ty} deinterleave: odds"));
        assert_bits_eq(&back, &src, &format!("{ty} interleave"));
    }

    #[test]
    fn deinterleave_and_interleave_are_inverse_at_every_lane_type() {
        on_every_lane_type!(pairs_split_and_merge);
    }

    /// The transposing block load at `V` against a one-lane gather of the
    /// same block, full and at every ragged width and row count: vector
    /// `q` is column `q`, dead columns and dead rows' lanes `+0.0`, and
    /// nothing outside the live block is read — everything around it is
    /// NaN.
    fn block_load_matches_the_gather<V: Lanes, const VR: usize>(ty: &str) {
        let n = V::N;
        // Rows `stride` apart, the block one float in from the left edge.
        let stride = n + 3;
        let src = rand_vec(n * n, 7);
        for rows in 0..=n {
            for w in 0..=n {
                let mut b = vec![f32::NAN; (n + 1) * stride];
                for (l, row) in src.chunks_exact(n).enumerate().take(rows) {
                    b[l * stride + 1..][..w].copy_from_slice(&row[..w]);
                }
                let mut got = vec![SENTINEL; n * n];
                // SAFETY: rows `0..n` of `b` hold `1 + w <= stride` floats
                // each, `got` a whole vector per column; the macro proved
                // the CPU feature.
                unsafe {
                    let p = b.as_ptr().add(1);
                    let cols = if w == n {
                        load_transposed::<V, true>(p, stride, w, rows)
                    } else {
                        load_transposed::<V, false>(p, stride, w, rows)
                    };
                    for (q, col) in cols.iter().enumerate().take(n) {
                        col.store(got.as_mut_ptr().add(q * n));
                    }
                }
                let want: Vec<f32> = (0..n * n)
                    .map(|i| {
                        let (q, l) = (i / n, i % n);
                        if q < w && l < rows {
                            src[l * n + q]
                        } else {
                            0.0
                        }
                    })
                    .collect();
                assert_bits_eq(&got, &want, &format!("{ty} block load rows={rows} w={w}"));
            }
        }
    }

    /// The `Bᵀ` pack at `V` against the scalar loop it replaced, on one
    /// `B` whose panel sits inside NaN rows and columns (`ldb > kc`), into
    /// a buffer that runs on past the panel: same bits as the loop, `+0.0`
    /// past `nr`, nothing written past `kc · NR`.
    fn bt_pack_matches_the_scalar_pack<V: Lanes, const VR: usize>(ty: &str) {
        let (j0, p0) = (2, 3);
        for nr in 1..=NR {
            for kc in [1, 7, 15, 16, 17, 33, 256] {
                let ldb = p0 + kc + 5;
                let mut b = vec![f32::NAN; (j0 + nr + 2) * ldb];
                let src = rand_vec(nr * kc, 11);
                for (j, row) in src.chunks_exact(kc).enumerate() {
                    b[(j0 + j) * ldb + p0..][..kc].copy_from_slice(row);
                }
                // The scalar reference: a zeroed panel, one strided store
                // per element.
                let mut want = vec![0.0; kc * NR];
                for j in 0..nr {
                    let col = &b[(j0 + j) * ldb + p0..][..kc];
                    for (dst, &v) in want.chunks_exact_mut(NR).zip(col) {
                        dst[j] = v;
                    }
                }
                want.extend([SENTINEL; NR]);
                // Stale values all over the panel, padding included: the
                // pack writes every float of it and nothing is zeroed
                // first.
                let mut got = rand_vec(kc * NR, 12);
                got.extend([SENTINEL; NR]);
                let t = PackArgs {
                    b: b[j0 * ldb + p0..].as_ptr(),
                    ldb,
                    kc,
                    nr,
                    bp: got.as_mut_ptr(),
                };
                // SAFETY: rows `j0..j0 + nr` of `b` hold columns
                // `p0..p0 + kc`, `got` a `kc × NR` panel; the macro proved
                // the CPU feature.
                unsafe { pack_bt_any::<V>(t) };
                let context = format!("{ty} nr={nr} kc={kc}");
                assert_bits_eq(&got, &want, &context);
                for (i, x) in got[..kc * NR].iter().enumerate() {
                    if i % NR >= nr {
                        assert_eq!(x.to_bits(), 0, "{context}: padding [{i}]");
                    }
                }
            }
        }
    }

    #[test]
    fn bt_pack_matches_the_scalar_pack_at_every_lane_type() {
        on_every_lane_type!(bt_pack_matches_the_scalar_pack);
    }

    #[test]
    fn transposing_block_load_equals_the_gather_and_stays_inside_the_block() {
        on_every_lane_type!(block_load_matches_the_gather);
    }

    /// An `A·Bᵀ` row with its whole vectors of outputs at `V` (the rest at
    /// one lane) against the whole row at one lane.
    fn nt_row_matches_the_one_lane_row<V: Lanes, const VR: usize>(ty: &str) {
        for k in [1, V::N - 1, V::N, V::N + 1, 2 * V::N + 3] {
            for n in [1, V::N, 2 * V::N + 1] {
                let (a, b) = (rand_vec(k, 8), rand_vec(n * k, 9));
                let mut c0 = rand_vec(n + 1, 10);
                c0[n] = SENTINEL;
                let (mut got, mut want) = (c0.clone(), c0);
                let row = |c: &mut [f32]| NtArgs {
                    a: &a,
                    b: &b,
                    c: c.as_mut_ptr(),
                    n,
                };
                // SAFETY: `b` is `n×k` and both outputs hold `n` floats;
                // the macro proved the CPU feature.
                unsafe {
                    let t = row(&mut got);
                    nt_one_lane(t, nt_vectors::<V>(t, 0));
                    nt_one_lane(row(&mut want), 0);
                }
                let context = format!("{ty} k={k} n={n}");
                assert_bits_eq(&got, &want, &context);
                assert_eq!(want[n], SENTINEL, "{context}: wrote past the row");
            }
        }
    }

    #[test]
    fn nt_row_kernel_is_bit_identical_at_every_lane_type() {
        on_every_lane_type!(nt_row_matches_the_one_lane_row);
    }

    /// [`tile_any`] with `AT` and `MRL` chosen at run time.
    unsafe fn tile_at<V: Lanes, const VR: usize>(at: bool, mrl: usize, t: Tile<'_>) {
        match (at, mrl) {
            (false, 1) => tile_any::<V, VR, false, 1>(t),
            (false, 2) => tile_any::<V, VR, false, 2>(t),
            (false, 3) => tile_any::<V, VR, false, 3>(t),
            (false, 4) => tile_any::<V, VR, false, 4>(t),
            (false, 5) => tile_any::<V, VR, false, 5>(t),
            (false, 6) => tile_any::<V, VR, false, 6>(t),
            (false, 7) => tile_any::<V, VR, false, 7>(t),
            (false, 8) => tile_any::<V, VR, false, 8>(t),
            (true, 1) => tile_any::<V, VR, true, 1>(t),
            (true, 2) => tile_any::<V, VR, true, 2>(t),
            (true, 3) => tile_any::<V, VR, true, 3>(t),
            (true, 4) => tile_any::<V, VR, true, 4>(t),
            (true, 5) => tile_any::<V, VR, true, 5>(t),
            (true, 6) => tile_any::<V, VR, true, 6>(t),
            (true, 7) => tile_any::<V, VR, true, 7>(t),
            (true, 8) => tile_any::<V, VR, true, 8>(t),
            _ => unreachable!("MRL is 1..=8"),
        }
    }

    /// The tile at `V` against the tile at sixteen one-lane `f32` vectors
    /// per row, on one set of operands: same bits inside the tile, nothing
    /// written outside it.
    fn tile_matches_the_one_lane_tile<V: Lanes, const VR: usize>(ty: &str) {
        // The tile sits at an offset in every operand; `C` is wider than
        // the tile and one row taller either side.
        let (i0, p0, j0, kc, ldc) = (1, 2, 3, 7, NR + 5);
        for nr in 1..=NR {
            for mrl in 1..=8 {
                for at in [false, true] {
                    for load_c in [false, true] {
                        let (m, k) = (i0 + mrl, p0 + kc);
                        let a = rand_vec(m * k, 2);
                        // The packed panel: zero-padded past `nr`.
                        let mut bp = rand_vec(kc * NR, 3);
                        for row in bp.chunks_exact_mut(NR) {
                            row[nr..].fill(0.0);
                        }
                        let mut c0 = rand_vec((m + 1) * ldc, 4);
                        for (i, row) in c0.chunks_exact_mut(ldc).enumerate() {
                            for (j, x) in row.iter_mut().enumerate() {
                                if !(i0..m).contains(&i) || !(j0..j0 + nr).contains(&j) {
                                    *x = SENTINEL;
                                }
                            }
                        }
                        let run = |c: &mut [f32], one_lane: bool| {
                            let t = Tile {
                                a: &a,
                                lda: if at { m } else { k },
                                i0,
                                p0,
                                kc,
                                bp: &bp,
                                bstride: NR,
                                c: c.as_mut_ptr(),
                                ldc,
                                j0,
                                nr,
                                load_c,
                            };
                            // SAFETY: `a` is `m×k` (or `k×m`), `bp` a packed
                            // `kc × NR` panel, and the tile's rows
                            // `i0..m` and columns `j0..j0 + nr <= ldc` lie
                            // inside `c`; the macro proved the CPU feature.
                            unsafe {
                                if one_lane {
                                    tile_at::<f32, NR>(at, mrl, t)
                                } else {
                                    tile_at::<V, VR>(at, mrl, t)
                                }
                            }
                        };
                        let (mut got, mut want) = (c0.clone(), c0.clone());
                        run(&mut got, false);
                        run(&mut want, true);
                        let context = format!("{ty} nr={nr} MRL={mrl} AT={at} load_c={load_c}");
                        assert_bits_eq(&got, &want, &context);
                        for (i, x) in want.iter().enumerate() {
                            let inside =
                                (i0..m).contains(&(i / ldc)) && (j0..j0 + nr).contains(&(i % ldc));
                            assert_eq!(*x == SENTINEL, !inside, "{context}: [{i}]");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_kernel_is_bit_identical_at_every_lane_type() {
        on_every_lane_type!(tile_matches_the_one_lane_tile);
    }

    /// The sweep at `V` (whole vectors, then the `f32` tail) against the
    /// kernel at `f32` over the whole row.
    fn axpy_matches_the_one_lane_sweep<V: Lanes, const VR: usize>(ty: &str) {
        for n in 0..=2 * V::N + 1 {
            for zero_init in [false, true] {
                let b = rand_vec(n, 5);
                let mut c0 = rand_vec(n + 1, 6);
                c0[n] = SENTINEL;
                let (mut got, mut want) = (c0.clone(), c0);
                // SAFETY: `b` and the first `n` floats of both outputs are
                // in bounds; the macro proved the CPU feature.
                unsafe {
                    axpy_sweep::<V>(0.75, &b, &mut got[..n], zero_init);
                    axpy_sweep::<f32>(0.75, &b, &mut want[..n], zero_init);
                }
                let context = format!("{ty} n={n} zero_init={zero_init}");
                assert_bits_eq(&got, &want, &context);
                assert_eq!(want[n], SENTINEL, "{context}: wrote past the row");
                if zero_init && n > 0 {
                    assert_eq!(want[0].to_bits(), 0.75f32.mul_add(b[0], 0.0).to_bits());
                }
            }
        }
    }

    #[test]
    fn axpy_kernel_is_bit_identical_at_every_lane_type() {
        on_every_lane_type!(axpy_matches_the_one_lane_sweep);
    }

    /// Serializes the tests that flip the process's tier, so each checks
    /// the tier it set.
    static TIER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tier_lock() -> std::sync::MutexGuard<'static, ()> {
        TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The NaN an x86 core makes itself (`0·∞`, `∞ − ∞`), and the only one
    /// the sweep's inputs hold: which of two NaN operands an operation
    /// returns follows its operand order, which the compiler may swap for a
    /// product or a sum, so with one NaN in play every lane's bits are
    /// fixed.
    const NAN: f32 = f32::from_bits(0xFFC0_0000);

    /// Ordinary values with every eighth one an edge case: ±0, a
    /// subnormal, ±∞ or NaN.
    fn with_edges(len: usize, seed: u64) -> Vec<f32> {
        let edges = [
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-41,
            f32::INFINITY,
            f32::NEG_INFINITY,
            NAN,
        ];
        let mut xs = rand_vec(len, seed);
        for (i, x) in xs.iter_mut().enumerate().skip(seed as usize % 8).step_by(8) {
            *x = edges[(i / 8) % edges.len()];
        }
        xs
    }

    /// The scalar loop the sweep kernel replaced: the reference it answers
    /// to, operation for operation.
    fn reference_sweep(
        k: SweepScalars,
        g: &[f32],
        v: &mut [f32],
        w: &mut [f32],
        mut prev: Option<&mut [f32]>,
        mut next: Option<(&mut [f32], Predict)>,
    ) {
        for i in 0..g.len() {
            let gi = g[i] * k.grad_scale;
            let w_old = w[i];
            let vi = k.momentum * v[i] + gi;
            let wi = w_old - k.lr * (k.a * vi + k.b * gi);
            v[i] = vi;
            w[i] = wi;
            if let Some(prev) = prev.as_deref_mut() {
                prev[i] = w_old;
            }
            if let Some((next, predict)) = next.as_mut() {
                next[i] = match *predict {
                    Predict::Copy => wi,
                    Predict::Velocity { alpha } => wi + alpha * vi,
                    Predict::WeightDiff { horizon } => wi + horizon * (wi - w_old),
                };
            }
        }
    }

    /// Fresh `v`, `w`, `prev` and `next` buffers of `n` floats, each with a
    /// sentinel one float past its end, after `sweep` has run on the first
    /// `n` of each.
    fn swept(
        n: usize,
        sweep: impl FnOnce(&mut [f32], &mut [f32], &mut [f32], &mut [f32]),
    ) -> [Vec<f32>; 4] {
        let mut bufs = [
            with_edges(n, 4),
            with_edges(n, 5),
            rand_vec(n, 6),
            rand_vec(n, 6),
        ];
        for b in &mut bufs {
            b.push(SENTINEL);
        }
        let [v, w, prev, next] = &mut bufs;
        sweep(&mut v[..n], &mut w[..n], &mut prev[..n], &mut next[..n]);
        bufs
    }

    /// [`sgdm_sweep`] on every tier the CPU has, through `set_tier`,
    /// against [`reference_sweep`]: every side output with and without the
    /// `prev` copy, dense runs and factored rows, runs of every length to
    /// past two `__m512` cache lines and one long enough to reach the
    /// prefetch distance, edge-case inputs, a gradient scale of one and of
    /// 0.3, and plain SGDM's and SCD's `a`, `b`. Same bits everywhere,
    /// nothing written past the run.
    #[test]
    fn sgdm_sweep_matches_the_scalar_loop_on_every_tier() {
        let _g = tier_lock();
        let tiers: Vec<SimdTier> = [SimdTier::Scalar, SimdTier::Avx2Fma, SimdTier::Avx512Fma]
            .into_iter()
            .filter(|&t| t <= detected_tier())
            .collect();
        let predicts = [
            None,
            Some(Predict::Copy),
            Some(Predict::Velocity { alpha: -0.35 }),
            Some(Predict::WeightDiff { horizon: 2.0 }),
        ];
        // Plain SGDM, then SCD's coefficients at m = 0.9 and a delay of 4.
        let coeffs = [(1.0, 0.0), (0.6561, 3.439)];
        let mut cases = Vec::new();
        for grad_scale in [1.0, 0.3] {
            for (a, b) in coeffs {
                for with_prev in [false, true] {
                    for predict in predicts {
                        let k = SweepScalars {
                            grad_scale,
                            momentum: 0.9,
                            lr: 0.05,
                            a,
                            b,
                        };
                        cases.push((k, with_prev, predict));
                    }
                }
            }
        }
        for cols in (0..=40).chain([1031]) {
            for rows in [None, Some(3)] {
                let n = rows.unwrap_or(1) * cols;
                let (delta, x) = (with_edges(rows.unwrap_or(0), 1), with_edges(cols, 2));
                let dense = Tensor::from_vec(with_edges(n, 3), &[n]).expect("n values");
                let g = match rows {
                    Some(_) => GradView::Outer {
                        delta: &delta,
                        x: &x,
                    },
                    None => GradView::Dense(&dense),
                };
                let g_ref = g.dense();
                for &(k, with_prev, predict) in &cases {
                    let want = swept(n, |v, w, prev, next| {
                        let prev = with_prev.then_some(prev);
                        let next = predict.map(|p| (next, p));
                        reference_sweep(k, g_ref.as_slice(), v, w, prev, next)
                    });
                    for &tier in &tiers {
                        set_tier(tier);
                        assert_eq!(active_tier(), tier);
                        let got = swept(n, |v, w, prev, next| {
                            let prev = with_prev.then_some(prev);
                            sgdm_sweep(k, g, v, w, prev, predict.map(|p| (next, p)), None)
                        });
                        let context = format!(
                            "{} rows={rows:?} cols={cols} {k:?} prev={with_prev} next={predict:?}",
                            tier.name()
                        );
                        for (buf, (got, want)) in
                            ["v", "w", "prev", "next"].iter().zip(got.iter().zip(&want))
                        {
                            assert_bits_eq(got, want, &format!("{context}: {buf}"));
                        }
                    }
                }
            }
        }
        set_tier(detected_tier());
    }
}
