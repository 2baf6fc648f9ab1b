//! 2-D convolution: the im2col/col2im lowering and the direct batch-of-one
//! kernels.
//!
//! Layout is NCHW. The *direct* path ([`conv2d_direct`],
//! [`conv2d_direct_backward_input`], [`conv2d_direct_backward_weight`]) is
//! the one every layer runs, training, evaluation and serving alike, one
//! image of the batch after another (the forward over a batch: chunks of
//! images at once on the kernel pool): no column matrix is built, written or
//! stashed. Each kernel works on a *staged* copy of one image — zero-padded,
//! and for `stride > 1` split into `stride²` phase planes so that every tap
//! of every output pixel is a unit-stride read — which costs one pass over
//! the image instead of `k²` and turns kernel size, stride and padding into
//! entries of a tap-offset table rather than cases. The staging pass is a
//! vector kernel ([`simd`]'s `stage_image`): a stride-1 row a vector copy,
//! a stride-2 row one deinterleave of the image row into its two column
//! phases, and no pass that zeroes the whole image first.
//!
//! A training forward stages each image once: [`conv2d_direct_staging`]
//! returns the [`StagedImages`] beside the output, the layer stashes them
//! in place of its input, and [`conv2d_direct_backward_weight_staged`]
//! reads them and adds the weight gradient straight into the layer's.
//! Their buffers circulate through a per-thread spare list, so a running
//! pipeline allocates none. The input half transposes the kernel bank
//! tap-major once per call, as the forward does.
//!
//! The *lowered* path ([`conv2d`], [`conv2d_backward`]) turns each image
//! into a column matrix and multiplies by the flattened kernel bank,
//! mirroring how cuDNN implements the convolutions used in the paper's
//! GProp framework; its backward produces the input gradient as col2im of
//! `Wᵀ·dY` and the weight gradient as `dY·colsᵀ`. No layer calls it: it is
//! the second implementation the differential tests hold the direct kernels
//! to and the one the ledger's `tensor.conv_*_cnn` probes time. Both paths
//! compute each result element as the same fma chain (see [`super::gemm`]
//! for the contract), so they are bit-identical to one another and to
//! [`super::reference`].

use super::gemm::{gemm_nn, gemm_nt, gemm_tn};
use super::simd::{self, MAX_LANES};
use crate::{pool, Result, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// Per-thread scratch for the `Wᵀ·dY` column gradient in
    /// [`conv2d_backward`] — overwritten by the GEMM each call, so reuse
    /// across calls (and across pipeline stages on the same thread) is free.
    static DCOLS_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };

    /// Per-thread scratch of the direct kernels, grown to the largest
    /// geometry the thread has run and reused verbatim afterwards — by
    /// every chunk of a batch-parallel forward that lands on the thread.
    static DIRECT_BUF: RefCell<DirectScratch> = const {
        RefCell::new(DirectScratch {
            staged: Vec::new(),
            side: Vec::new(),
            gwt: Vec::new(),
            gsum: Vec::new(),
            bank: Vec::new(),
            off: Vec::new(),
        })
    };

    /// Buffers of dropped [`StagedImages`], for the thread's next training
    /// forward to stage into: a running pipeline stashes one per sample in
    /// flight and hands it back at that sample's weight half, so in steady
    /// state it allocates none.
    static SPARE_STAGED: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Most spare staged-image buffers a thread keeps: more than the ledger's
/// deepest pipeline has in flight on one thread (40 under PB's Eq. 5 lags
/// for its four conv stages).
const SPARE_STAGED_MAX: usize = 64;

/// A spare staged-image buffer of `len` floats: the shortest spare that is
/// long enough, so each conv stage keeps drawing buffers its own size, else
/// a new one. Its contents are stale; staging overwrites every float.
fn take_spare(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let spare = SPARE_STAGED.with(|spare| {
        let mut spare = spare.borrow_mut();
        let fits = spare.iter().enumerate().filter(|(_, b)| b.len() >= len);
        let best = fits.min_by_key(|(_, b)| b.len()).map(|(i, _)| i);
        best.map(|i| spare.swap_remove(i))
    });
    match spare {
        Some(mut buf) => {
            buf.truncate(len);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec, validating the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero-sized kernel,
    /// zero stride or zero channel counts.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if kernel == 0 || stride == 0 || in_channels == 0 || out_channels == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "conv2d spec must be positive: in={in_channels} out={out_channels} \
                 k={kernel} stride={stride}"
            )));
        }
        Ok(Conv2dSpec {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        })
    }

    /// Output spatial size for an input of side `h`.
    pub fn out_size(&self, h: usize) -> usize {
        (h + 2 * self.padding).saturating_sub(self.kernel) / self.stride + 1
    }

    /// Shape of the weight tensor: `[out_channels, in_channels, k, k]`.
    pub fn weight_shape(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.kernel,
        ]
    }

    /// Fan-in of the convolution (`in_channels * k * k`), used by He init.
    pub fn fan_in(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// The output indices `o` with `0 <= o·stride + kofs − padding < limit`,
/// as a half-open range clamped to `0..out_extent`. Hoisting this out of the
/// per-pixel loops lets [`im2col`]/[`col2im`] run bounds-check-free inner
/// loops (contiguous `copy_from_slice`/add runs when `stride == 1`).
fn valid_out_range(
    limit: usize,
    kofs: usize,
    stride: usize,
    padding: usize,
    out_extent: usize,
) -> (usize, usize) {
    let lo = padding.saturating_sub(kofs).div_ceil(stride);
    let hi = if limit + padding > kofs {
        out_extent.min((limit + padding - kofs - 1) / stride + 1)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Lowers one image `[C, H, W]` (flat slice) to columns
/// `[C*k*k, OH*OW]` (flat, row-major), honoring stride and zero padding.
pub fn im2col(input: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, cols: &mut Vec<f32>) {
    let k = spec.kernel;
    let s = spec.stride;
    let p = spec.padding;
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    // Zero-fill then overwrite the valid windows: the zeros a padded window
    // contributes are part of the column matrix.
    cols.clear();
    cols.resize(c * k * k * oh * ow, 0.0);
    for ci in 0..c {
        let chan = &input[ci * h * w..(ci + 1) * h * w];
        for ki in 0..k {
            let (oi_lo, oi_hi) = valid_out_range(h, ki, s, p, oh);
            for kj in 0..k {
                let (oj_lo, oj_hi) = valid_out_range(w, kj, s, p, ow);
                let row = (ci * k + ki) * k + kj;
                let out_row = &mut cols[row * oh * ow..][..oh * ow];
                for oi in oi_lo..oi_hi {
                    let ii = oi * s + ki - p;
                    let irow = &chan[ii * w..(ii + 1) * w];
                    let dst = &mut out_row[oi * ow..][..ow];
                    if s == 1 {
                        let j0 = oj_lo + kj - p;
                        dst[oj_lo..oj_hi].copy_from_slice(&irow[j0..j0 + (oj_hi - oj_lo)]);
                    } else {
                        for oj in oj_lo..oj_hi {
                            dst[oj] = irow[oj * s + kj - p];
                        }
                    }
                }
            }
        }
    }
}

/// Scatters columns `[C*k*k, OH*OW]` back to an image `[C, H, W]`,
/// accumulating overlapping contributions (the adjoint of [`im2col`]).
///
/// Accumulation order is `(ci, ki, kj, oi, oj)` lexicographic — part of the
/// bit-exactness contract with `reference::conv2d_backward_ref`.
pub fn col2im(cols: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec, out: &mut [f32]) {
    let k = spec.kernel;
    let s = spec.stride;
    let p = spec.padding;
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    out.iter_mut().for_each(|x| *x = 0.0);
    for ci in 0..c {
        let chan = &mut out[ci * h * w..(ci + 1) * h * w];
        for ki in 0..k {
            let (oi_lo, oi_hi) = valid_out_range(h, ki, s, p, oh);
            for kj in 0..k {
                let (oj_lo, oj_hi) = valid_out_range(w, kj, s, p, ow);
                let row = (ci * k + ki) * k + kj;
                let col_row = &cols[row * oh * ow..(row + 1) * oh * ow];
                for oi in oi_lo..oi_hi {
                    let ii = oi * s + ki - p;
                    let dst = &mut chan[ii * w..(ii + 1) * w];
                    let src = &col_row[oi * ow..][..ow];
                    if s == 1 {
                        let j0 = oj_lo + kj - p;
                        for (d, v) in dst[j0..j0 + (oj_hi - oj_lo)]
                            .iter_mut()
                            .zip(&src[oj_lo..oj_hi])
                        {
                            *d += v;
                        }
                    } else {
                        for oj in oj_lo..oj_hi {
                            dst[oj * s + kj - p] += src[oj];
                        }
                    }
                }
            }
        }
    }
}

/// `[N, C, H, W]` of a convolution input, checked against `spec` and the
/// kernel bank.
fn input_dims(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    op: &'static str,
) -> Result<[usize; 4]> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
            op,
        });
    }
    let dims = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    if dims[1] != spec.in_channels || weight.shape() != spec.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: weight.shape().to_vec(),
            op,
        });
    }
    Ok(dims)
}

/// Batch size of an output gradient, checked to be `[N, OC, OH, OW]` for
/// `spec` over an `h×w` input.
fn grad_batch(
    grad_out: &Tensor,
    (h, w): (usize, usize),
    spec: &Conv2dSpec,
    op: &'static str,
) -> Result<usize> {
    if grad_out.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: grad_out.rank(),
            op,
        });
    }
    let n = grad_out.shape()[0];
    let want = [n, spec.out_channels, spec.out_size(h), spec.out_size(w)];
    if grad_out.shape() != want {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: want.to_vec(),
            op,
        });
    }
    Ok(n)
}

/// Forward 2-D convolution, lowered to one GEMM per sample.
///
/// `input` is `[N, C, H, W]`, `weight` is `[OC, C, k, k]`; the result is
/// `[N, OC, OH, OW]`. Also returns the per-sample im2col buffers so the
/// caller can reuse them in [`conv2d_backward`] (C-INTERMEDIATE).
///
/// # Errors
///
/// Returns a shape error if `input`/`weight` disagree with `spec`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Vec<Vec<f32>>)> {
    let [n, c, h, w] = input_dims(input, weight, spec, "conv2d")?;
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let rows = spec.fan_in();
    let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
    let mut all_cols = Vec::with_capacity(n);
    let wslice = weight.as_slice();
    for ni in 0..n {
        let img = &input.as_slice()[ni * c * h * w..(ni + 1) * c * h * w];
        let mut cols = Vec::new();
        im2col(img, c, h, w, spec, &mut cols);
        let dst = &mut out.as_mut_slice()
            [ni * spec.out_channels * oh * ow..(ni + 1) * spec.out_channels * oh * ow];
        gemm_nn(wslice, &cols, dst, spec.out_channels, rows, oh * ow, false);
        all_cols.push(cols);
    }
    Ok((out, all_cols))
}

/// Batched forward 2-D convolution: [`conv2d_direct`] under the name the
/// ledger's `tensor.conv_batched_gflops_b64` probe calls, so that the probe
/// times what evaluation and serving run.
///
/// # Errors
///
/// Returns a shape error if `input`/`weight` disagree with `spec`.
pub fn conv2d_batched(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    conv2d_direct(input, weight, spec)
}

/// Backward 2-D convolution.
///
/// Given `grad_out` `[N, OC, OH, OW]`, the forward weights and the im2col
/// buffers produced by [`conv2d`], returns `(grad_input, grad_weight)`.
///
/// The two halves are independent and exposed separately as
/// [`conv2d_backward_input`] / [`conv2d_backward_weight`] for schedules
/// that split backward into grad-input and deferred grad-weight passes
/// (2BP); this fused entry point composes them and is bit-identical to
/// running the halves at different times.
///
/// # Errors
///
/// Returns a shape error if the gradient shape disagrees with `spec`.
pub fn conv2d_backward(
    grad_out: &Tensor,
    weight: &Tensor,
    cols: &[Vec<f32>],
    input_hw: (usize, usize),
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor)> {
    let grad_in = conv2d_backward_input(grad_out, weight, input_hw, spec)?;
    let grad_w = conv2d_backward_weight(grad_out, cols, spec)?;
    Ok((grad_in, grad_w))
}

/// Input-gradient half of [`conv2d_backward`]: `col2im(Wᵀ·dY)` per sample.
///
/// Reads only the forward weights and the output gradient — no stashed
/// activations — so it can run on the critical path while the weight half
/// waits for the update boundary. The `k = out_channels` transpose-A GEMM
/// is the short-reduction axpy path of [`super::gemm`].
///
/// # Errors
///
/// Returns a shape error if the gradient shape disagrees with `spec`.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_hw: (usize, usize),
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let n = grad_batch(grad_out, input_hw, spec, "conv2d_backward")?;
    let (h, w) = input_hw;
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let rows = spec.fan_in();
    let c = spec.in_channels;
    let p = oh * ow;
    let mut grad_in = Tensor::zeros(&[n, c, h, w]);
    let wslice = weight.as_slice();
    DCOLS_BUF.with(|buf| {
        let dcols = &mut *buf.borrow_mut();
        dcols.resize(rows * p, 0.0);
        for ni in 0..n {
            let dy =
                &grad_out.as_slice()[ni * spec.out_channels * p..(ni + 1) * spec.out_channels * p];
            // dcols = Wᵀ · dY (transpose-A GEMM, no explicit Wᵀ), then col2im.
            gemm_tn(
                wslice,
                dy,
                &mut dcols[..rows * p],
                rows,
                spec.out_channels,
                p,
                false,
            );
            let gi = &mut grad_in.as_mut_slice()[ni * c * h * w..(ni + 1) * c * h * w];
            col2im(&dcols[..rows * p], c, h, w, spec, gi);
        }
    });
    Ok(grad_in)
}

/// Weight-gradient half of [`conv2d_backward`]: `Σᵢ dYᵢ · colsᵢᵀ`.
///
/// Reads only the output gradient and the stashed im2col buffers — not the
/// (possibly since-updated) weights — which is what makes deferring it to
/// the update boundary exact rather than an approximation.
///
/// # Errors
///
/// Returns a shape error if `grad_out` disagrees with `spec` or the column
/// buffers.
pub fn conv2d_backward_weight(
    grad_out: &Tensor,
    cols: &[Vec<f32>],
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    if grad_out.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: grad_out.rank(),
            op: "conv2d_backward",
        });
    }
    let n = grad_out.shape()[0];
    let p = grad_out.shape()[2] * grad_out.shape()[3];
    let rows = spec.fan_in();
    if grad_out.shape()[1] != spec.out_channels
        || cols.len() != n
        || cols.iter().any(|c| c.len() != rows * p)
    {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, spec.out_channels, rows, p],
            op: "conv2d_backward",
        });
    }
    let mut grad_w = Tensor::zeros(&spec.weight_shape());
    // Weight gradients accumulate across the batch as completed per-sample
    // subtotals (`grad_w += dYᵢ · colsᵢᵀ` with each product summed on its
    // own), never as one flat chain over all samples. Callers that feed
    // samples one at a time (fill&drain, pipelined backprop) accumulate the
    // per-call results the same way, so batched and sample-at-a-time
    // training stay bit-equivalent.
    let mut gw_tmp: Vec<f32> = Vec::new();
    for ni in 0..n {
        let dy = &grad_out.as_slice()[ni * spec.out_channels * p..(ni + 1) * spec.out_channels * p];
        if ni == 0 {
            // First sample's chains start from the zeroed grad_w.
            gemm_nt(
                dy,
                &cols[ni],
                grad_w.as_mut_slice(),
                spec.out_channels,
                p,
                rows,
                true,
            );
        } else {
            gw_tmp.resize(spec.out_channels * rows, 0.0);
            gemm_nt(
                dy,
                &cols[ni],
                &mut gw_tmp,
                spec.out_channels,
                p,
                rows,
                false,
            );
            for (g, t) in grad_w.as_mut_slice().iter_mut().zip(&gw_tmp) {
                *g += *t;
            }
        }
    }
    Ok(grad_w)
}

/// Scratch of the direct kernels (see [`DIRECT_BUF`]).
struct DirectScratch {
    /// The staged image: the input being convolved, or the input gradient
    /// being accumulated.
    staged: Vec<f32>,
    /// The output-side operand in the layout its kernel wants: `y` or `dY`
    /// at the staged pitch, or `dY` transposed to pixel-major.
    side: Vec<f32>,
    /// The weight gradient as its kernel writes it, `[taps, oc]`.
    gwt: Vec<f32>,
    /// A batch's per-sample weight gradients summed, `[taps, oc]`.
    gsum: Vec<f32>,
    /// A kernel bank tap-major: the forward's `[taps, oc]` — the calling
    /// thread's, taken out of the scratch for the call so every chunk of
    /// the batch reads the one transpose — or the input gradient's
    /// `[k·k, oc, c]`.
    bank: Vec<f32>,
    /// Tap-offset table.
    off: Vec<usize>,
}

/// Where a `spec` convolution over an `h×w` image lands in the staged
/// layout the direct kernels work on.
///
/// A staged channel holds the zero-padded image split into `s × s` phase
/// planes: padded pixel `(r, c)` lives in plane `(r mod s, c mod s)` at
/// `(r div s, c div s)`. Tap `(ki, kj)` of output pixel `(oi, oj)` reads
/// padded pixel `(oi·s + ki, oj·s + kj)`, i.e. plane `(ki mod s, kj mod s)`
/// at `(oi + ki div s, oj + kj div s)`: numbering output pixels at the
/// plane's own pitch, `q = oi·pw + oj`, makes that `off(ki, kj) + q` for a
/// per-tap constant — a unit-stride read for every stride, with padding
/// already in the data. Planes are cut to the `oh + (k−1) div s` rows and
/// `ow + (k−1) div s` columns the taps can reach.
struct DirectGeom {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
    oh: usize,
    ow: usize,
    /// Plane rows and pitch.
    ph: usize,
    pw: usize,
    /// Floats per staged channel: `s²` planes.
    chan: usize,
    /// Flat output extent `(oh−1)·pw + ow`, rounded up to whole vectors.
    /// Positions `q` whose column `q mod pw` is `≥ ow` are not pixels; the
    /// kernels compute them alongside and the callers drop them.
    qr: usize,
}

impl DirectGeom {
    fn new(spec: &Conv2dSpec, h: usize, w: usize) -> Self {
        let (k, s) = (spec.kernel, spec.stride);
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let reach = (k - 1) / s;
        let (ph, pw) = (oh + reach, ow + reach);
        DirectGeom {
            c: spec.in_channels,
            h,
            w,
            k,
            s,
            p: spec.padding,
            oh,
            ow,
            ph,
            pw,
            chan: s * s * ph * pw,
            qr: ((oh - 1) * pw + ow).next_multiple_of(MAX_LANES),
        }
    }

    /// Staged image length: the channels plus the overhang of the last
    /// vector of flat positions.
    fn staged_len(&self) -> usize {
        self.c * self.chan + MAX_LANES
    }

    /// Fills `off` with the tap offsets of `channels` channels in
    /// `(ci, ki, kj)` order — the im2col row order, which is the order
    /// every chain over taps runs in.
    fn tap_offsets(&self, channels: usize, off: &mut Vec<usize>) {
        let (k, s, plane) = (self.k, self.s, self.ph * self.pw);
        off.clear();
        for ci in 0..channels {
            for ki in 0..k {
                for kj in 0..k {
                    let phase = (ki % s) * s + kj % s;
                    off.push(ci * self.chan + phase * plane + (ki / s) * self.pw + kj / s);
                }
            }
        }
    }

    /// The geometry the staging kernels take.
    fn staging(&self) -> simd::Staging {
        simd::Staging {
            c: self.c,
            h: self.h,
            w: self.w,
            s: self.s,
            p: self.p,
            ph: self.ph,
            pw: self.pw,
            chan: self.chan,
        }
    }

    /// Stages one image `[C, H, W]` into the `staged_len` floats of
    /// `staged`: padding, unreached positions and the overhang `+0.0`,
    /// every other position the pixel it holds ([`simd::stage_image`]; no
    /// pass zeroes the whole buffer first).
    fn stage(&self, image: &[f32], staged: &mut [f32]) {
        let (body, overhang) = staged.split_at_mut(self.c * self.chan);
        overhang.fill(0.0);
        simd::stage_image(self.staging(), image, body);
    }

    /// The inverse of [`Self::stage`] for a staged gradient: copies every
    /// staged pixel back to its place in `image`, which the caller hands
    /// in zeroed (pixels no tap reaches have no gradient).
    fn unstage(&self, staged: &[f32], image: &mut [f32]) {
        simd::unstage_image(self.staging(), staged, image);
    }
}

/// The images of one training forward as the direct kernels stage them
/// (zero-padded and phase-split): what a training conv
/// layer stashes for its weight half
/// ([`conv2d_direct_backward_weight_staged`]), so each image is staged
/// once per training step. Dropping it hands the buffer back to the
/// thread's spares, for the thread's next training forward.
#[derive(Debug)]
pub struct StagedImages {
    buf: Vec<f32>,
    spec: Conv2dSpec,
    /// `[N, C, H, W]` of the input staged.
    dims: [usize; 4],
}

impl StagedImages {
    /// Stages every image of `input` for `spec`.
    fn new(input: &Tensor, spec: &Conv2dSpec, op: &'static str) -> Result<Self> {
        if input.rank() != 4 || input.shape()[1] != spec.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: input.shape().to_vec(),
                rhs: spec.weight_shape().to_vec(),
                op,
            });
        }
        let dims = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        let [n, c, h, w] = dims;
        let g = DirectGeom::new(spec, h, w);
        let image_len = c * h * w;
        let len = if image_len == 0 { 0 } else { g.staged_len() };
        let mut buf = take_spare(n * len);
        let images = input.as_slice().chunks_exact(image_len.max(1));
        for (image, staged) in images.zip(buf.chunks_exact_mut(len.max(1))) {
            g.stage(image, staged);
        }
        Ok(StagedImages {
            buf,
            spec: *spec,
            dims,
        })
    }

    /// `[N, C, H, W]` of the input staged.
    pub fn input_shape(&self) -> [usize; 4] {
        self.dims
    }
}

impl Drop for StagedImages {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.is_empty() {
            return;
        }
        // A thread that is exiting, or is inside the list already, drops
        // the buffer instead.
        let _ = SPARE_STAGED.try_with(|spare| {
            if let Ok(mut spare) = spare.try_borrow_mut() {
                if spare.len() < SPARE_STAGED_MAX {
                    spare.push(buf);
                }
            }
        });
    }
}

/// Forward 2-D convolution by the direct batch-of-one kernel, sample by
/// sample: every layer's forward, in training and in eval mode. The batch
/// is cut into chunks of whole samples spread over the kernel pool
/// ([`pool::for_each_sample_chunk`]), each chunk staging its images in its
/// own thread's scratch and writing its disjoint slice of the one output; a
/// batch of one is one chunk run inline.
///
/// Same contract as [`conv2d`] minus the column buffers — the backward
/// halves take the input itself — and bit-identical to it: each output
/// element is one fma chain over `(ci, ki, kj)` from `+0.0`, whatever chunk
/// or thread computes it.
///
/// # Errors
///
/// Returns a shape error if `input`/`weight` disagree with `spec`.
pub fn conv2d_direct(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    direct_forward(input, weight, spec, None)
}

/// [`conv2d_direct`] for a training forward: stages the batch once, up
/// front, runs the kernel over those staged images, and returns them
/// beside the output for the weight half to read
/// ([`conv2d_direct_backward_weight_staged`]). Same output bits.
///
/// # Errors
///
/// Returns a shape error if `input`/`weight` disagree with `spec`.
pub fn conv2d_direct_staging(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, StagedImages)> {
    input_dims(input, weight, spec, "conv2d_direct")?;
    let staged = StagedImages::new(input, spec, "conv2d_direct")?;
    let y = direct_forward(input, weight, spec, Some(&staged.buf))?;
    Ok((y, staged))
}

/// The forward of [`conv2d_direct`], over the images `staged` holds
/// (staged for `spec`, one after another) when given, else staging each
/// image in the scratch of the thread that runs its chunk.
fn direct_forward(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    staged: Option<&[f32]>,
) -> Result<Tensor> {
    let [n, c, h, w] = input_dims(input, weight, spec, "conv2d_direct")?;
    let g = DirectGeom::new(spec, h, w);
    let oc = spec.out_channels;
    let (image_len, sample_len) = (c * h * w, oc * g.oh * g.ow);
    if image_len == 0 {
        // Images without pixels fill no output: an error unless the batch
        // is empty, as the shape check of an empty buffer reports.
        return Tensor::from_vec(Vec::new(), &[n, oc, g.oh, g.ow]);
    }
    // The `[oc, taps]` bank transposed once per call: the kernel reads a
    // tap's weights for neighbouring channels from one pointer.
    let taps = spec.fan_in();
    let mut bank = DIRECT_BUF.with(|buf| std::mem::take(&mut buf.borrow_mut().bank));
    bank.resize(taps * oc, 0.0);
    for (t, dst) in bank.chunks_exact_mut(oc).enumerate() {
        for (d, row) in dst.iter_mut().zip(weight.as_slice().chunks_exact(taps)) {
            *d = row[t];
        }
    }
    let slen = g.staged_len();
    // Written in place uninitialised, not zero-filled first: a zero pass
    // costs ≈ 20 µs per 1 MiB activation here, and every element is
    // overwritten anyway.
    let mut out = Vec::with_capacity(n * sample_len);
    pool::for_each_sample_chunk(
        &mut out.spare_capacity_mut()[..n * sample_len],
        sample_len,
        &|first, part| {
            DIRECT_BUF.with(|buf| {
                let buf = &mut *buf.borrow_mut();
                g.tap_offsets(c, &mut buf.off);
                // Fully overwritten by the kernel; only the length matters.
                buf.side.resize(oc * g.qr, 0.0);
                let images = input.as_slice()[first * image_len..].chunks_exact(image_len);
                for (i, (image, dst)) in images.zip(part.chunks_exact_mut(sample_len)).enumerate() {
                    let xs: &[f32] = match staged {
                        Some(all) => &all[(first + i) * slen..][..slen],
                        None => {
                            buf.staged.resize(slen, 0.0);
                            g.stage(image, &mut buf.staged);
                            &buf.staged
                        }
                    };
                    simd::conv_forward(xs, &buf.off, &bank, oc, g.qr, &mut buf.side);
                    let rows = buf
                        .side
                        .chunks_exact(g.qr)
                        .flat_map(|rows| rows.chunks(g.pw).take(g.oh));
                    let mut written = 0;
                    for (dst, row) in dst.chunks_exact_mut(g.ow).zip(rows) {
                        dst.write_copy_of_slice(&row[..g.ow]);
                        written += g.ow;
                    }
                    assert_eq!(
                        written, sample_len,
                        "conv2d_direct: every output element written"
                    );
                }
            });
        },
    );
    DIRECT_BUF.with(|buf| buf.borrow_mut().bank = bank);
    // SAFETY: the `n * sample_len` elements are the parts the chunks above
    // were handed, whole samples each; a part of `k` samples zips with `k`
    // images (the input holds `n · image_len` floats, `image_len > 0`),
    // and the assert above has seen each sample's `sample_len` elements
    // written. A panic in any chunk is re-raised before this line.
    unsafe { out.set_len(n * sample_len) };
    Tensor::from_vec(out, &[n, oc, g.oh, g.ow])
}

/// Input-gradient half of the direct backward, the counterpart of
/// [`conv2d_backward_input`] and bit-identical to it: reads only the
/// weights and the output gradient. The bank is transposed tap-major once
/// per call, as the forward's is.
///
/// # Errors
///
/// Returns a shape error if the gradient shape disagrees with `spec`.
pub fn conv2d_direct_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_hw: (usize, usize),
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let n = grad_batch(grad_out, input_hw, spec, "conv2d_direct_backward")?;
    if weight.shape() != spec.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: weight.shape().to_vec(),
            op: "conv2d_direct_backward",
        });
    }
    let (h, w) = input_hw;
    let g = DirectGeom::new(spec, h, w);
    let (c, oc, kk) = (spec.in_channels, spec.out_channels, g.k * g.k);
    let mut grad_in = Tensor::zeros(&[n, c, h, w]);
    DIRECT_BUF.with(|buf| {
        let buf = &mut *buf.borrow_mut();
        g.tap_offsets(1, &mut buf.off);
        // `[oc, c, k·k]` to `[k·k, oc, c]`, written in order.
        buf.bank.resize(kk * oc * c, 0.0);
        for (row, dst) in buf.bank.chunks_exact_mut(c).enumerate() {
            let (t, o) = (row / oc, row % oc);
            let per_out = &weight.as_slice()[o * c * kk..][..c * kk];
            for (d, taps) in dst.iter_mut().zip(per_out.chunks_exact(kk)) {
                *d = taps[t];
            }
        }
        let samples = grad_out.as_slice().chunks_exact(oc * g.oh * g.ow);
        let images = grad_in.as_mut_slice().chunks_exact_mut((c * h * w).max(1));
        for (dy, image) in samples.zip(images) {
            // dY at the staged pitch, every position that is not a pixel
            // +0.0: such a position adds +0.0 somewhere, which is no-op.
            buf.side.clear();
            buf.side.resize(oc * g.qr, 0.0);
            for (rows, dst) in dy
                .chunks_exact(g.oh * g.ow)
                .zip(buf.side.chunks_exact_mut(g.qr))
            {
                for (row, dst) in rows.chunks_exact(g.ow).zip(dst.chunks_mut(g.pw)) {
                    dst[..g.ow].copy_from_slice(row);
                }
            }
            buf.staged.clear();
            buf.staged.resize(g.staged_len(), 0.0);
            simd::conv_backward_input(
                &buf.side,
                &buf.bank,
                &buf.off,
                (c, oc),
                g.chan,
                g.qr,
                &mut buf.staged,
            );
            g.unstage(&buf.staged, image);
        }
    });
    Ok(grad_in)
}

/// Weight-gradient half of the direct backward, the counterpart of
/// [`conv2d_backward_weight`] and bit-identical to it: reads only the
/// output gradient and the layer's input, never the weights, which is
/// what makes deferring it to the update boundary exact. Stages the input
/// first; a training layer, which staged it in its forward
/// ([`conv2d_direct_staging`]), runs
/// [`conv2d_direct_backward_weight_staged`] on that instead.
///
/// # Errors
///
/// Returns a shape error if `input` or `grad_out` disagrees with `spec`.
pub fn conv2d_direct_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let staged = StagedImages::new(input, spec, "conv2d_direct_backward")?;
    let mut grad_w = Tensor::zeros(&spec.weight_shape());
    conv2d_direct_backward_weight_staged(grad_out, &staged, &mut grad_w)?;
    Ok(grad_w)
}

/// Weight-gradient half of the direct backward over the images a training
/// forward staged: adds the batch's weight gradient into `grad_w`. Each
/// sample's gradient is a completed subtotal, summed over the batch in
/// order and then added to `grad_w` once — what adding the tensor
/// [`conv2d_direct_backward_weight`] returns would add, with no tensor in
/// between.
///
/// # Errors
///
/// Returns a shape error if `grad_out` or `grad_w` disagrees with the
/// staged geometry.
pub fn conv2d_direct_backward_weight_staged(
    grad_out: &Tensor,
    staged: &StagedImages,
    grad_w: &mut Tensor,
) -> Result<()> {
    let op = "conv2d_direct_backward";
    let (spec, [n, c, h, w]) = (&staged.spec, staged.dims);
    if grad_w.shape() != spec.weight_shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_w.shape().to_vec(),
            rhs: spec.weight_shape().to_vec(),
            op,
        });
    }
    if grad_batch(grad_out, (h, w), spec, op)? != n {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: staged.dims.to_vec(),
            op,
        });
    }
    if n == 0 || c * h * w == 0 {
        return Ok(());
    }
    let g = DirectGeom::new(spec, h, w);
    let (oc, taps, pixels) = (spec.out_channels, spec.fan_in(), g.oh * g.ow);
    let ocp = oc.next_multiple_of(MAX_LANES);
    DIRECT_BUF.with(|buf| {
        let buf = &mut *buf.borrow_mut();
        g.tap_offsets(c, &mut buf.off);
        let samples = grad_out.as_slice().chunks_exact(oc * pixels);
        let images = staged.buf.chunks_exact(g.staged_len());
        for (ni, (dy, xs)) in samples.zip(images).enumerate() {
            // dY pixel-major, channels in the lanes; lanes past `oc` +0.0.
            if oc < ocp {
                buf.side.clear();
            }
            buf.side.resize(pixels * ocp, 0.0);
            for (px, lanes) in buf.side.chunks_exact_mut(ocp).enumerate() {
                for (o, lane) in lanes[..oc].iter_mut().enumerate() {
                    *lane = dy[o * pixels + px];
                }
            }
            // Fully overwritten by the kernel; only the length matters.
            buf.gwt.resize(taps * ocp, 0.0);
            simd::conv_backward_weight(
                &buf.side,
                xs,
                &buf.off,
                (g.oh, g.ow, g.pw),
                ocp,
                &mut buf.gwt,
            );
            // The first sample's chains are the batch's sum so far, later
            // samples' are added to it.
            if ni == 0 {
                std::mem::swap(&mut buf.gwt, &mut buf.gsum);
            } else {
                for (sum, &v) in buf.gsum.iter_mut().zip(&buf.gwt) {
                    *sum += v;
                }
            }
        }
        for (o, gw) in grad_w.as_mut_slice().chunks_exact_mut(taps).enumerate() {
            for (t, gw) in gw.iter_mut().enumerate() {
                *gw += buf.gsum[t * ocp + o];
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive six-loop convolution used as a reference implementation.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let [n, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
        for ni in 0..n {
            for oc in 0..spec.out_channels {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0f32;
                        for ci in 0..c {
                            for ki in 0..spec.kernel {
                                for kj in 0..spec.kernel {
                                    let ii =
                                        (oi * spec.stride + ki) as isize - spec.padding as isize;
                                    let jj =
                                        (oj * spec.stride + kj) as isize - spec.padding as isize;
                                    if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[ni, ci, ii as usize, jj as usize])
                                        * weight.at(&[oc, ci, ki, kj]);
                                }
                            }
                        }
                        out.set(&[ni, oc, oi, oj], acc);
                    }
                }
            }
        }
        out
    }

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_fn(shape, |_| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn conv2d_matches_naive_convolution() {
        for &(c, oc, k, s, p, h) in &[
            (1, 1, 3, 1, 1, 5),
            (2, 3, 3, 1, 1, 6),
            (3, 4, 3, 2, 1, 8),
            (2, 2, 1, 1, 0, 4),
        ] {
            let spec = Conv2dSpec::new(c, oc, k, s, p).unwrap();
            let input = rand_tensor(&[2, c, h, h], 1);
            let weight = rand_tensor(&spec.weight_shape(), 2);
            let (got, _) = conv2d(&input, &weight, &spec).unwrap();
            let expect = conv2d_naive(&input, &weight, &spec);
            assert_eq!(got.shape(), expect.shape());
            for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
                assert!((a - b).abs() < 1e-4, "spec {spec:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property that makes the backward pass correct.
        let spec = Conv2dSpec::new(2, 1, 3, 1, 1).unwrap();
        let (c, h, w) = (2, 5, 5);
        let x = rand_tensor(&[c, h, w], 3);
        let mut cols = Vec::new();
        im2col(x.as_slice(), c, h, w, &spec, &mut cols);
        let y: Vec<f32> = rand_tensor(&[cols.len()], 4).into_vec();
        let lhs: f64 = cols
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let mut back = vec![0.0f32; c * h * w];
        col2im(&y, c, h, w, &spec, &mut back);
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(&back)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv2d_backward_matches_finite_differences() {
        let spec = Conv2dSpec::new(2, 2, 3, 1, 1).unwrap();
        let input = rand_tensor(&[1, 2, 4, 4], 5);
        let weight = rand_tensor(&spec.weight_shape(), 6);
        let (out, cols) = conv2d(&input, &weight, &spec).unwrap();
        // Loss = sum of outputs; dL/dy = 1.
        let grad_out = Tensor::ones(out.shape());
        let (gin, gw) = conv2d_backward(&grad_out, &weight, &cols, (4, 4), &spec).unwrap();
        let eps = 1e-3f32;
        // Check a few input coordinates.
        for &idx in &[0usize, 7, 15, 21] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let (op, _) = conv2d(&ip, &weight, &spec).unwrap();
            let (om, _) = conv2d(&im, &weight, &spec).unwrap();
            let num = (op.as_slice().iter().sum::<f32>() - om.as_slice().iter().sum::<f32>())
                / (2.0 * eps);
            assert!((num - gin.as_slice()[idx]).abs() < 1e-2, "input grad {idx}");
        }
        // Check a few weight coordinates.
        for &idx in &[0usize, 5, 17, 35] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let (op, _) = conv2d(&input, &wp, &spec).unwrap();
            let (om, _) = conv2d(&input, &wm, &spec).unwrap();
            let num = (op.as_slice().iter().sum::<f32>() - om.as_slice().iter().sum::<f32>())
                / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 1e-2, "weight grad {idx}");
        }
    }

    #[test]
    fn split_backward_halves_match_fused_bitwise() {
        // 2BP runs the two halves at different times; the fused entry point
        // and the halves must be the same function bit for bit, batched and
        // per-sample alike.
        let spec = Conv2dSpec::new(3, 4, 3, 1, 1).unwrap();
        for n in [1usize, 3] {
            let input = rand_tensor(&[n, 3, 6, 6], 7);
            let weight = rand_tensor(&spec.weight_shape(), 8);
            let (out, cols) = conv2d(&input, &weight, &spec).unwrap();
            let grad_out = rand_tensor(out.shape(), 9);
            let (gin, gw) = conv2d_backward(&grad_out, &weight, &cols, (6, 6), &spec).unwrap();
            let gin_half = conv2d_backward_input(&grad_out, &weight, (6, 6), &spec).unwrap();
            let gw_half = conv2d_backward_weight(&grad_out, &cols, &spec).unwrap();
            for (a, b) in gin.as_slice().iter().zip(gin_half.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "grad_input n={n}");
            }
            for (a, b) in gw.as_slice().iter().zip(gw_half.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "grad_weight n={n}");
            }
        }
    }

    #[test]
    fn direct_kernels_match_lowered_when_the_kernel_overhangs_the_image() {
        // `out_size` never reports less than one output pixel, even for an
        // image smaller than the kernel: the lowered path then sums the
        // taps that exist, and the staged planes (cut to what one output
        // pixel's taps reach, unreached pixels dropped) must do the same.
        for &(k, s, p, h, w) in &[(3, 1, 0, 2, 5), (5, 2, 1, 2, 2), (3, 2, 0, 7, 1)] {
            let spec = Conv2dSpec::new(2, 3, k, s, p).unwrap();
            let x = rand_tensor(&[2, 2, h, w], 14);
            let weight = rand_tensor(&spec.weight_shape(), 15);
            let (want_y, cols) = conv2d(&x, &weight, &spec).unwrap();
            let g = rand_tensor(want_y.shape(), 16);
            let (want_gx, want_gw) = conv2d_backward(&g, &weight, &cols, (h, w), &spec).unwrap();
            let y = conv2d_direct(&x, &weight, &spec).unwrap();
            let gx = conv2d_direct_backward_input(&g, &weight, (h, w), &spec).unwrap();
            let gw = conv2d_direct_backward_weight(&g, &x, &spec).unwrap();
            for (got, want, what) in [(y, want_y, "y"), (gx, want_gx, "gx"), (gw, want_gw, "gw")] {
                assert_eq!(
                    got.shape(),
                    want.shape(),
                    "k={k} s={s} p={p} {h}x{w}: {what}"
                );
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "k={k} s={s} p={p} {h}x{w}: {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_rejects_bad_shapes() {
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1).unwrap();
        let weight = rand_tensor(&spec.weight_shape(), 17);
        let x = rand_tensor(&[2, 2, 5, 5], 18);
        let g = rand_tensor(&[2, 3, 5, 5], 19);
        assert!(conv2d_direct(&rand_tensor(&[2, 3, 5, 5], 20), &weight, &spec).is_err());
        assert!(conv2d_direct(&x, &rand_tensor(&[3, 2, 3, 2], 21), &spec).is_err());
        assert!(conv2d_direct_backward_input(&g, &weight, (5, 6), &spec).is_err());
        assert!(conv2d_direct_backward_input(&g, &x, (5, 5), &spec).is_err());
        assert!(conv2d_direct_backward_weight(&g, &rand_tensor(&[1, 2, 5, 5], 22), &spec).is_err());
        assert!(conv2d_direct_backward_weight(&g, &rand_tensor(&[2, 2, 5, 6], 23), &spec).is_err());
    }

    #[test]
    fn a_batch_is_bit_identical_to_the_per_sample_lowering() {
        // Batch size must be a pure throughput knob: the direct kernel
        // looped over a batch against the lowered path one sample at a
        // time. Geometry sweep covers stride 2, no padding, 1x1 kernels,
        // and output widths that leave ragged vectors; the batches run
        // largest geometry first and shrink, so a stale tail of the
        // thread's recycled scratch would show.
        for &(c, oc, k, s, p, h) in &[
            (4, 8, 3, 1, 1, 12),
            (3, 4, 3, 2, 1, 8),
            (2, 3, 3, 1, 1, 6),
            (1, 1, 3, 1, 1, 5),
            (2, 2, 1, 1, 0, 4),
        ] {
            let spec = Conv2dSpec::new(c, oc, k, s, p).unwrap();
            let weight = rand_tensor(&spec.weight_shape(), 2);
            for n in [7usize, 3, 1] {
                let input = rand_tensor(&[n, c, h, h], n as u64);
                let (want, _) = conv2d(&input, &weight, &spec).unwrap();
                let got = conv2d_batched(&input, &weight, &spec).unwrap();
                assert_eq!(got.shape(), want.shape());
                for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "spec {spec:?} n={n} elem {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_rejects_bad_shapes() {
        let spec = Conv2dSpec::new(2, 3, 3, 1, 1).unwrap();
        let weight = rand_tensor(&spec.weight_shape(), 11);
        let flat = rand_tensor(&[2, 2, 25], 12);
        assert!(conv2d_batched(&flat, &weight, &spec).is_err(), "rank 3");
        let wrong_c = rand_tensor(&[2, 3, 5, 5], 13);
        assert!(
            conv2d_batched(&wrong_c, &weight, &spec).is_err(),
            "channel mismatch"
        );
    }

    #[test]
    fn spec_out_size_matches_formula() {
        let spec = Conv2dSpec::new(3, 16, 3, 1, 1).unwrap();
        assert_eq!(spec.out_size(32), 32);
        let down = Conv2dSpec::new(16, 32, 3, 2, 1).unwrap();
        assert_eq!(down.out_size(32), 16);
    }

    #[test]
    fn spec_rejects_degenerate_geometry() {
        assert!(Conv2dSpec::new(0, 1, 3, 1, 1).is_err());
        assert!(Conv2dSpec::new(1, 1, 0, 1, 1).is_err());
        assert!(Conv2dSpec::new(1, 1, 3, 0, 1).is_err());
    }
}
