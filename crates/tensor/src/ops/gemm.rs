//! Cache-blocked, register-tiled GEMM kernels with deterministic
//! parallelism.
//!
//! Three layouts cover every product the layers need, all over flat
//! row-major slices:
//!
//! * [`gemm_nn`] — `C (+)= A·B`   with `A: m×k`, `B: k×n`;
//! * [`gemm_nt`] — `C (+)= A·Bᵀ`  with `A: m×k`, `B: n×k`;
//! * [`gemm_tn`] — `C (+)= Aᵀ·B`  with `A: k×m`, `B: k×n`.
//!
//! Each dispatches by problem size: small products use simple loops tuned
//! for the tiny per-stage matrices the pipeline trains at batch size one;
//! larger ones take a packed, blocked path (`KC`-blocked panels of `B`
//! packed into an L1-resident tile, register tiles of `NR` columns and
//! [`simd::tile_rows`] rows); the largest are additionally partitioned
//! across the [`crate::pool`] worker pool along whichever output dimension
//! is longer.
//!
//! This file is the policy: size dispatch, `KC` blocking, the plain
//! `B` pack and the chunk grid. The arithmetic of every path is three
//! micro-kernels of [`super::simd`] — the register tile ([`simd::tile`]),
//! the row axpy sweep ([`simd::axpy_row`]) and the lane-per-output `A·Bᵀ`
//! row ([`simd::nt_row`]) — each written once and instantiated per SIMD
//! tier, and so is the register-transposing `Bᵀ` pack ([`simd::pack_bt`]).
//!
//! # Bit-exact accumulation contract
//!
//! Every path — naive reference, simple, tiled, SIMD, parallel at any
//! thread count — computes each output element as a single left-to-right
//! chain of *fused* multiply-adds (`f32::mul_add`) in increasing `k` order,
//! starting from the existing value of `C` (accumulate mode) or from `0.0`
//! (overwrite mode). An IEEE 754 fma rounds exactly once, so `mul_add` and
//! `vfmadd` — the lane types the [`super::simd`] micro-kernels are
//! instantiated at — compute the same function bit for bit: there is no
//! contracted-vs-uncontracted ambiguity for the compiler to exploit.
//! Blocking and packing only reorder *memory traffic*, never the
//! per-element floating-point association; partitions split the *output*
//! (never the `k` reduction); and SIMD tier selection (see `PBP_SIMD` in
//! [`super::simd`]) picks among bit-identical implementations. Results are
//! therefore bit-identical across every dispatch path, SIMD tier, and
//! thread count. `tests/proptest_kernels.rs` enforces this against the
//! retained naive reference in [`super::reference`].

use super::simd;
use crate::pool;
use std::cell::RefCell;

/// Columns of `C` computed per register tile: one `__m512`, two `__m256`,
/// one portable `[f32; 16]`. A ragged right edge (`nr < NR`) is the same
/// tile with masked loads and stores of `C`, on every tier.
pub(crate) const NR: usize = 16;
/// `k`-panel depth: a packed `KC × NR` tile of `B` stays L1-resident.
const KC: usize = 256;
/// Below this many output-times-reduction elements (`m·k·n`) the simple
/// loops win (no packing overhead).
const TILED_MIN_ELEMS: usize = 16 * 1024;
/// Minimum `m·k·n` elements *per resolved thread* before parallel dispatch
/// pays for its synchronization. Scaling the cutoff with the thread count
/// keeps small products serial on wide machines (the pool lost to
/// single-threaded tiled up to n=128 GEMM at 8 threads when this was
/// tuned) while still splitting mid-size work on narrow ones.
const PAR_MIN_ELEMS_PER_THREAD: usize = 512 * 1024;
/// Rows (or columns) of `C` per parallel chunk. Shape-derived only, so the
/// partition — and therefore the result — is independent of thread count.
const PAR_CHUNK: usize = 32;
/// `Aᵀ·B` products with a reduction this short (conv input gradients have
/// `k = out_channels`; the deferred weight-grad GEMMs of split-backward
/// schedules have `k = microbatch rows`) skip the register-tiling
/// machinery: a row-wise axpy keeps the whole working set L1-resident and
/// avoids hundreds of short-panel micro-kernel invocations.
const TN_AXPY_MAX_K: usize = 24;

thread_local! {
    /// Per-thread reusable packing buffer (`KC × NR` floats when full). It
    /// only grows: every pack writes each float of the panel it hands on.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C (+)= A·B` for row-major `A: m×k`, `B: k×n`, `C: m×n`.
///
/// With `acc == false` the destination is overwritten; with `acc == true`
/// products accumulate onto the existing values (chain-extending, see the
/// module docs for the exact association).
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    assert_eq!(a.len(), m * k, "gemm_nn: A is m×k");
    assert_eq!(b.len(), k * n, "gemm_nn: B is k×n");
    assert_eq!(c.len(), m * n, "gemm_nn: C is m×n");
    gemm_dispatch::<false, false>(a, b, c, m, k, n, acc);
}

/// `C (+)= A·Bᵀ` for row-major `A: m×k`, `B: n×k`, `C: m×n`.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    assert_eq!(a.len(), m * k, "gemm_nt: A is m×k");
    assert_eq!(b.len(), n * k, "gemm_nt: B is n×k");
    assert_eq!(c.len(), m * n, "gemm_nt: C is m×n");
    gemm_dispatch::<false, true>(a, b, c, m, k, n, acc);
}

/// `C (+)= Aᵀ·B` for row-major `A: k×m`, `B: k×n`, `C: m×n`.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, acc: bool) {
    assert_eq!(a.len(), k * m, "gemm_tn: A is k×m");
    assert_eq!(b.len(), k * n, "gemm_tn: B is k×n");
    assert_eq!(c.len(), m * n, "gemm_tn: C is m×n");
    gemm_dispatch::<true, false>(a, b, c, m, k, n, acc);
}

/// Raw pointer to `C` that may cross into pool workers. Chunks write
/// disjoint regions, so sharing the base pointer is sound.
#[derive(Clone, Copy)]
struct CPtr(*mut f32);
// SAFETY: see `CPtr` — each chunk dereferences only its own disjoint region
// of the output, and `parallel_for` joins all chunks before the borrow ends.
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

fn gemm_dispatch<const AT: bool, const BT: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            c.fill(0.0);
        }
        return;
    }
    let elems = m * k * n;
    if elems < TILED_MIN_ELEMS || n < NR / 2 || m < 2 {
        if !acc {
            c.fill(0.0);
        }
        simple::<AT, BT>(a, b, c, m, k, n);
        return;
    }
    // Partition the longer output dimension into fixed-size chunks. The
    // chunk grid depends only on (m, n) — never on the thread count — so
    // parallel and serial execution produce identical bytes.
    let by_rows = m >= n;
    let extent = if by_rows { m } else { n };
    let chunks = extent.div_ceil(PAR_CHUNK);
    let cp = CPtr(c.as_mut_ptr());
    let short_tn = AT && !BT && k <= TN_AXPY_MAX_K;
    let run_region = |rows: (usize, usize), cols: (usize, usize)| {
        if short_tn {
            tn_axpy_region(a, b, cp, m, k, n, rows, cols, acc);
        } else {
            tiled_region::<AT, BT>(a, b, cp, m, k, n, rows, cols, acc);
        }
    };
    let run_chunk = |ci: usize| {
        let lo = ci * PAR_CHUNK;
        let hi = extent.min(lo + PAR_CHUNK);
        if by_rows {
            run_region((lo, hi), (0, n));
        } else {
            run_region((0, m), (lo, hi));
        }
    };
    let threads = pool::max_threads();
    if threads > 1 && chunks > 1 && elems >= PAR_MIN_ELEMS_PER_THREAD.saturating_mul(threads) {
        pool::parallel_for(chunks, &run_chunk);
    } else if short_tn {
        // Serial short-reduction product: the chunk grid only partitions
        // output columns, so one region over the whole extent runs the
        // same chain per element while each axpy sweeps a full row rather
        // than a `PAR_CHUNK`-wide sliver of it.
        run_region((0, m), (0, n));
    } else {
        for ci in 0..chunks {
            run_chunk(ci);
        }
    }
}

/// Short-reduction `Aᵀ·B` kernel over the output region `rows × cols`:
/// each `C` row is swept `k` times by fma axpys while it (and all `k` rows
/// of `B`) stay L1-resident. Per element the fused multiply-add chain still
/// runs in increasing `k` order from `+0.0` (overwrite) or the existing
/// value (accumulate), so results match the tiled path bit for bit.
#[allow(clippy::too_many_arguments)]
fn tn_axpy_region(
    a: &[f32],
    b: &[f32],
    c: CPtr,
    m: usize,
    k: usize,
    n: usize,
    rows: (usize, usize),
    cols: (usize, usize),
    acc: bool,
) {
    let (row0, row1) = rows;
    let (col0, col1) = cols;
    let width = col1 - col0;
    for i in row0..row1 {
        // SAFETY: rows/cols lie inside this chunk's output region; regions
        // are disjoint across pool chunks and joined before the borrow ends.
        let crow = unsafe { std::slice::from_raw_parts_mut(c.0.add(i * n + col0), width) };
        let mut kk = 0;
        if !acc {
            // The `kk == 0` sweep starts every chain at literal `+0.0`,
            // replacing a separate zero-fill pass over `C`.
            simd::axpy_row(a[i], &b[col0..col0 + width], crow, true);
            kk = 1;
        }
        while kk < k {
            simd::axpy_row(a[kk * m + i], &b[kk * n + col0..][..width], crow, false);
            kk += 1;
        }
    }
}

/// Blocked kernel over the output region `rows × cols` of `C`.
///
/// `B` panels are packed per (`j`-tile, `k`-panel) into an L1-resident
/// `kc × NR` buffer — a transposed `B` by [`simd::pack_bt`]'s register
/// transposes — and `A` is read in place (its accesses are contiguous in
/// the non-transposed case and tile-row-wide contiguous in the transposed
/// case). Each `mr × nr` register tile of the region, `mr` up to the active
/// tier's [`simd::tile_rows`], is one [`simd::tile`] call; which tier runs
/// is unobservable in the output bits.
///
/// In overwrite mode (`acc == false`) the first `k`-panel starts its
/// register tile from literal zeros instead of reading freshly-zeroed `C`
/// memory — same bits (the chain starts at `+0.0` either way), but the
/// pre-fill and one full read of `C` disappear.
#[allow(clippy::too_many_arguments)]
fn tiled_region<const AT: bool, const BT: bool>(
    a: &[f32],
    b: &[f32],
    c: CPtr,
    m: usize,
    k: usize,
    n: usize,
    rows: (usize, usize),
    cols: (usize, usize),
    acc: bool,
) {
    let lda = if AT { m } else { k };
    let ldb = if BT { k } else { n };
    let (row0, row1) = rows;
    let (col0, col1) = cols;
    let tile_rows = simd::tile_rows();
    PACK_BUF.with(|buf| {
        let bp = &mut *buf.borrow_mut();
        let mut j0 = col0;
        while j0 < col1 {
            let nr = NR.min(col1 - j0);
            let mut p0 = 0;
            while p0 < k {
                let kc = KC.min(k - p0);
                let load_c = acc || p0 > 0;
                // Full-width tiles of a non-transposed `B` read their panel
                // rows in place (they are already contiguous `NR`-slices at
                // stride `ldb`); packing is pure overhead there. Transposed
                // `B` and ragged right-edge tiles still pack.
                let (panel, bstride): (&[f32], usize) = if !BT && nr == NR {
                    (&b[p0 * ldb + j0..], ldb)
                } else {
                    if bp.len() < kc * NR {
                        bp.resize(kc * NR, 0.0);
                    }
                    let panel = &mut bp[..kc * NR];
                    if BT {
                        simd::pack_bt(b, ldb, (p0, kc), (j0, nr), panel);
                    } else {
                        pack_b(b, ldb, p0, j0, nr, panel);
                    }
                    (panel, NR)
                };
                let mut i0 = row0;
                while i0 < row1 {
                    let mr = tile_rows.min(row1 - i0);
                    let tile = simd::Tile {
                        a,
                        lda,
                        i0,
                        p0,
                        kc,
                        bp: panel,
                        bstride,
                        c: c.0,
                        ldc: n,
                        j0,
                        nr,
                        load_c,
                    };
                    // SAFETY: rows `i0..i0 + mr` and columns `j0..j0 + nr`
                    // lie inside this call's region of `C`, whose length
                    // the public entry points assert along with `A`'s and
                    // `B`'s, so `A` is indexable at every (`i0 + r`,
                    // `p0 + kk`); `panel` holds `kc` rows of `NR` floats at
                    // stride `bstride` — in place only when `nr == NR`,
                    // otherwise the zero-padded pack.
                    unsafe {
                        match mr {
                            8 => simd::tile::<AT, 8>(tile),
                            7 => simd::tile::<AT, 7>(tile),
                            6 => simd::tile::<AT, 6>(tile),
                            5 => simd::tile::<AT, 5>(tile),
                            4 => simd::tile::<AT, 4>(tile),
                            3 => simd::tile::<AT, 3>(tile),
                            2 => simd::tile::<AT, 2>(tile),
                            _ => simd::tile::<AT, 1>(tile),
                        }
                    }
                    i0 += mr;
                }
                p0 += kc;
            }
            j0 += nr;
        }
    });
}

/// Packs the `kc × nr` panel of a row-major `k × n` `B` starting at (`p0`,
/// `j0`) into `bp`, `kc` rows of `NR` floats, zero-padding columns past
/// `nr`. Pure data movement: values are copied bit-exactly.
fn pack_b(b: &[f32], ldb: usize, p0: usize, j0: usize, nr: usize, bp: &mut [f32]) {
    for (dst, src) in bp.chunks_exact_mut(NR).zip(b[p0 * ldb..].chunks_exact(ldb)) {
        dst[..nr].copy_from_slice(&src[j0..j0 + nr]);
        dst[nr..].fill(0.0);
    }
}

/// Simple accumulating kernels for small products. Loop orders are chosen
/// per layout so the innermost loop vectorizes across the outputs `j`
/// while each element still accumulates in increasing `k` order: the `nn`
/// and `tn` row sweeps are [`simd::axpy_row`] and an `nt` row is
/// [`simd::nt_row`], so small (batch-1-sized) products run on the active
/// tier in every layout. The `nt` dots vectorize across `j` too — a lane
/// per output over transposed blocks of `B` — never across `k`, which
/// would break the single-chain accumulation contract.
fn simple<const AT: bool, const BT: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if BT {
        // A·Bᵀ: per output element a dot of two contiguous rows, a lane
        // per output. At `m = 1` this is every batch-1 `Linear::forward`.
        for i in 0..m {
            simd::nt_row(&a[i * k..][..k], b, &mut c[i * n..][..n]);
        }
    } else if AT {
        // Aᵀ·B: axpy with `k` outermost, so each element's chain still runs
        // in increasing `k`.
        for kk in 0..k {
            let arow = &a[kk * m..][..m];
            let brow = &b[kk * n..][..n];
            for (i, &av) in arow.iter().enumerate() {
                simd::axpy_row(av, brow, &mut c[i * n..][..n], false);
            }
        }
    } else {
        // A·B: the classic i-k-j axpy order. At `m = 1` this is every
        // batch-1 `Linear::backward_input`, `δ·W`.
        for i in 0..m {
            let arow = &a[i * k..][..k];
            let crow = &mut c[i * n..][..n];
            for (kk, &av) in arow.iter().enumerate() {
                simd::axpy_row(av, &b[kk * n..][..n], crow, false);
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::ops::reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    pub(crate) fn assert_bits_eq(got: &[f32], want: &[f32], context: &str) {
        assert_eq!(got.len(), want.len(), "{context}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{context}: element {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn nn_matches_reference_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 9, 33),
            (40, 64, 48),
            (64, 64, 64),
        ] {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            let mut c = vec![0.0; m * n];
            let mut want = vec![0.0; m * n];
            gemm_nn(&a, &b, &mut c, m, k, n, false);
            reference::matmul_ref(&a, &b, &mut want, m, k, n);
            assert_bits_eq(&c, &want, &format!("nn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn nt_and_tn_match_reference() {
        let (m, k, n) = (21, 33, 29);
        let a = rand_vec(m * k, 3);
        let bt = rand_vec(n * k, 4);
        let mut c = vec![0.0; m * n];
        let mut want = vec![0.0; m * n];
        gemm_nt(&a, &bt, &mut c, m, k, n, false);
        reference::matmul_nt_ref(&a, &bt, &mut want, m, k, n);
        assert_bits_eq(&c, &want, "nt");

        let at = rand_vec(k * m, 5);
        let b = rand_vec(k * n, 6);
        gemm_tn(&at, &b, &mut c, m, k, n, false);
        reference::matmul_tn_ref(&at, &b, &mut want, m, k, n);
        assert_bits_eq(&c, &want, "tn");
    }

    #[test]
    fn accumulate_extends_the_chain() {
        let (m, k, n) = (6, 11, 10);
        let a = rand_vec(m * k, 7);
        let b = rand_vec(k * n, 8);
        let init = rand_vec(m * n, 9);
        let mut c = init.clone();
        gemm_nn(&a, &b, &mut c, m, k, n, true);
        let mut want = init;
        reference::matmul_acc_ref(&a, &b, &mut want, m, k, n);
        assert_bits_eq(&c, &want, "nn acc");
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Large enough that 8 threads clear the per-thread cutoff
        // (m·k·n ≥ 8 × PAR_MIN_ELEMS_PER_THREAD).
        let (m, k, n) = (260, 100, 260);
        let a = rand_vec(m * k, 10);
        let b = rand_vec(k * n, 11);
        let mut serial = vec![0.0; m * n];
        let _cap = pool::tests::cap_lock();
        pool::set_max_threads(1);
        gemm_nn(&a, &b, &mut serial, m, k, n, false);
        for threads in [2, 4, 8] {
            pool::set_max_threads(threads);
            let mut par = vec![0.0; m * n];
            gemm_nn(&a, &b, &mut par, m, k, n, false);
            assert_bits_eq(&par, &serial, &format!("threads={threads}"));
        }
        pool::set_max_threads(1);
    }

    // The tiled path ends in raw-pointer tile writes: a slice shorter than
    // `m`, `k`, `n` promise must stop at the entry point, in release too.
    #[test]
    #[should_panic(expected = "gemm_nn: A is m×k")]
    fn short_a_panics() {
        let (m, k, n) = (32, 32, 32);
        let mut c = vec![0.0; m * n];
        gemm_nn(
            &vec![0.0; m * k - 1],
            &vec![0.0; k * n],
            &mut c,
            m,
            k,
            n,
            false,
        );
    }

    #[test]
    #[should_panic(expected = "gemm_nt: B is n×k")]
    fn short_b_panics() {
        let (m, k, n) = (32, 32, 32);
        let mut c = vec![0.0; m * n];
        gemm_nt(
            &vec![0.0; m * k],
            &vec![0.0; n * k - 1],
            &mut c,
            m,
            k,
            n,
            false,
        );
    }

    #[test]
    #[should_panic(expected = "gemm_tn: C is m×n")]
    fn short_c_panics() {
        let (m, k, n) = (32, 32, 32);
        let mut c = vec![0.0; m * n - 1];
        gemm_tn(&vec![0.0; k * m], &vec![0.0; k * n], &mut c, m, k, n, true);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![7.0f32; 0];
        gemm_nn(&[], &[], &mut c, 0, 3, 0, false);
        let mut c = vec![5.0f32; 6];
        gemm_nn(&[], &[], &mut c, 2, 0, 3, false);
        assert!(c.iter().all(|&x| x == 0.0), "k=0 overwrite zeroes C");
        let mut c = vec![5.0f32; 6];
        gemm_nn(&[], &[], &mut c, 2, 0, 3, true);
        assert!(c.iter().all(|&x| x == 5.0), "k=0 accumulate keeps C");
    }
}
