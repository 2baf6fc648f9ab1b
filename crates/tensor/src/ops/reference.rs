//! Retained naive reference kernels.
//!
//! These are the *definitional* implementations the optimized kernels in
//! [`super::gemm`] and [`super::conv`] are differentially tested against
//! (`tests/proptest_kernels.rs`): plain loops with one explicit `f32`
//! *fused* multiply-add chain (`f32::mul_add`) per output element, in
//! increasing reduction order. An IEEE 754 fma rounds once, so these
//! chains are the same function the SIMD `vfmadd` micro-kernels compute.
//! They are deliberately slow — scalar, no blocking, no packing: a
//! correctness oracle, not a baseline anything is timed against.
//!
//! The accumulation convention (documented in [`super::gemm`]) is what
//! makes bit-identity between these references and the tiled/parallel
//! kernels a meaningful, testable property rather than a tolerance check.

use super::conv::Conv2dSpec;
use crate::Tensor;

/// Naive `C = A·B` (`A: m×k`, `B: k×n`): one scalar chain per element.
pub fn matmul_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    matmul_acc_ref(a, b, c, m, k, n);
}

/// Naive `C += A·B`, extending each element's chain from its current value.
pub fn matmul_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut s = c[i * n + j];
            for kk in 0..k {
                s = a[i * k + kk].mul_add(b[kk * n + j], s);
            }
            c[i * n + j] = s;
        }
    }
}

/// Naive `C = A·Bᵀ` (`A: m×k`, `B: n×k`).
pub fn matmul_nt_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    matmul_nt_acc_ref(a, b, c, m, k, n);
}

/// Naive `C += A·Bᵀ`.
pub fn matmul_nt_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut s = c[i * n + j];
            for kk in 0..k {
                s = a[i * k + kk].mul_add(b[j * k + kk], s);
            }
            c[i * n + j] = s;
        }
    }
}

/// Naive `C = Aᵀ·B` (`A: k×m`, `B: k×n`).
pub fn matmul_tn_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    matmul_tn_acc_ref(a, b, c, m, k, n);
}

/// Naive `C += Aᵀ·B`.
pub fn matmul_tn_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut s = c[i * n + j];
            for kk in 0..k {
                s = a[kk * m + i].mul_add(b[kk * n + j], s);
            }
            c[i * n + j] = s;
        }
    }
}

/// Direct (six-loop) 2-D convolution forward, NCHW.
///
/// Accumulates each output pixel over `(ci, ki, kj)` in lexicographic
/// order — exactly the im2col row order — so for finite inputs the result
/// is bit-identical to the GEMM-lowered [`super::conv2d`].
///
/// # Panics
///
/// Panics if `input`/`weight` shapes disagree with `spec`.
pub fn conv2d_ref(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let [n, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    assert_eq!(c, spec.in_channels, "conv2d_ref: channel mismatch");
    assert_eq!(weight.shape(), spec.weight_shape(), "conv2d_ref: weight");
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    let mut out = Tensor::zeros(&[n, spec.out_channels, oh, ow]);
    let (xs, ws) = (input.as_slice(), weight.as_slice());
    let o = out.as_mut_slice();
    for ni in 0..n {
        for oc in 0..spec.out_channels {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut s = 0.0f32;
                    for ci in 0..c {
                        for ki in 0..k {
                            for kj in 0..k {
                                let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                                let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                                if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
                                    continue;
                                }
                                s = xs[((ni * c + ci) * h + ii as usize) * w + jj as usize]
                                    .mul_add(ws[((oc * c + ci) * k + ki) * k + kj], s);
                            }
                        }
                    }
                    o[((ni * spec.out_channels + oc) * oh + oi) * ow + oj] = s;
                }
            }
        }
    }
    out
}

/// Direct 2-D convolution backward: `(grad_input, grad_weight)` for a loss
/// gradient `grad_out` of shape `[N, OC, OH, OW]`.
///
/// Loop nesting mirrors the im2col path's accumulation structure (see
/// [`super::conv2d_backward`]): the weight gradient chains over output
/// pixels per `(sample, oc, column)` — with samples after the first added
/// as completed per-sample subtotals — and the input gradient adds one
/// completed `oc`-chain per `(column, pixel)` pair, so both are
/// bit-identical to the GEMM-lowered backward for finite inputs.
///
/// # Panics
///
/// Panics if shapes disagree with `spec`.
pub fn conv2d_backward_ref(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    let [n, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let k = spec.kernel;
    let oc_n = spec.out_channels;
    assert_eq!(grad_out.shape(), [n, oc_n, oh, ow], "conv2d_backward_ref");
    let (dys, xs, ws) = (grad_out.as_slice(), input.as_slice(), weight.as_slice());
    let mut grad_in = Tensor::zeros(&[n, c, h, w]);
    let mut grad_w = Tensor::zeros(&spec.weight_shape());
    let gi = grad_in.as_mut_slice();
    let gw = grad_w.as_mut_slice();
    for ni in 0..n {
        // Weight gradient: per (oc, ci, ki, kj) one chain over output pixels.
        for oc in 0..oc_n {
            for ci in 0..c {
                for ki in 0..k {
                    for kj in 0..k {
                        let widx = ((oc * c + ci) * k + ki) * k + kj;
                        // Sample 0 chains from the zeroed grad_w; later
                        // samples add a completed per-sample subtotal,
                        // mirroring conv2d_backward's batch association.
                        let mut s = if ni == 0 { gw[widx] } else { 0.0 };
                        for oi in 0..oh {
                            for oj in 0..ow {
                                let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                                let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                                if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
                                    continue;
                                }
                                s = dys[((ni * oc_n + oc) * oh + oi) * ow + oj].mul_add(
                                    xs[((ni * c + ci) * h + ii as usize) * w + jj as usize],
                                    s,
                                );
                            }
                        }
                        if ni == 0 {
                            gw[widx] = s;
                        } else {
                            gw[widx] += s;
                        }
                    }
                }
            }
        }
        // Input gradient: one completed oc-chain per (column, pixel), added
        // in col2im's (ci, ki, kj, oi, oj) order.
        for ci in 0..c {
            for ki in 0..k {
                for kj in 0..k {
                    for oi in 0..oh {
                        let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for oj in 0..ow {
                            let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                            if jj < 0 || jj >= w as isize {
                                continue;
                            }
                            let mut s = 0.0f32;
                            for oc in 0..oc_n {
                                s = ws[((oc * c + ci) * k + ki) * k + kj]
                                    .mul_add(dys[((ni * oc_n + oc) * oh + oi) * ow + oj], s);
                            }
                            gi[((ni * c + ci) * h + ii as usize) * w + jj as usize] += s;
                        }
                    }
                }
            }
        }
    }
    (grad_in, grad_w)
}
