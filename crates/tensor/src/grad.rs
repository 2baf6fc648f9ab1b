//! Read-only view of one parameter's accumulated gradient.

use crate::Tensor;
use std::borrow::Cow;

/// The gradient of one parameter tensor as its layer currently holds it:
/// a dense tensor, or — for a `[rows, cols]` weight that has received a
/// single batch-of-one contribution since `zero_grads` — the outer product
/// `δ ⊗ x` that contribution *is*, never written out.
///
/// ## Contract
///
/// * Element `(r, i)` of an [`GradView::Outer`] view is
///   `δ_r.mul_add(x_i, 0.0)` — bit for bit what the overwrite
///   `gemm_tn(δ, x)` stores (one fused multiply-add chain of length one
///   from `+0.0`, see `ops::gemm`), so a consumer cannot tell a factored
///   gradient from the dense one it stands for.
/// * The hot path never materialises a view: the update sweep
///   ([`crate::ops::simd::sgdm_sweep`]) forms a factored row in registers.
///   [`GradView::dense`] allocates for a factored view and is for tests,
///   diagnostics and optimizers off the pipeline's update path (Adam,
///   gradient clipping).
#[derive(Debug, Clone, Copy)]
pub enum GradView<'a> {
    /// A materialised gradient tensor.
    Dense(&'a Tensor),
    /// The `[delta.len(), x.len()]` outer product `δ ⊗ x`.
    Outer {
        /// Output-side factor (one value per row).
        delta: &'a [f32],
        /// Input-side factor (one value per column).
        x: &'a [f32],
    },
}

impl<'a> From<&'a Tensor> for GradView<'a> {
    fn from(t: &'a Tensor) -> Self {
        GradView::Dense(t)
    }
}

impl<'a> GradView<'a> {
    /// Total number of gradient elements.
    pub fn len(&self) -> usize {
        match self {
            GradView::Dense(t) => t.len(),
            GradView::Outer { delta, x } => delta.len() * x.len(),
        }
    }

    /// Whether the gradient holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The gradient as a tensor: borrowed when dense, materialised (an
    /// allocation the size of the weight) when factored. See the type's
    /// contract for who may call this.
    pub fn dense(&self) -> Cow<'a, Tensor> {
        match *self {
            GradView::Dense(t) => Cow::Borrowed(t),
            GradView::Outer { delta, x } => {
                let mut data = Vec::with_capacity(self.len());
                for &d in delta {
                    data.extend(x.iter().map(|&xi| d.mul_add(xi, 0.0)));
                }
                Cow::Owned(
                    Tensor::from_vec(data, &[delta.len(), x.len()]).expect("rows × cols values"),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm_tn;

    #[test]
    fn outer_reads_as_the_overwrite_gemm_would_store() {
        // Signed zeros, a subnormal and an ordinary value on both sides.
        let delta = [0.0f32, -0.0, 1.0e-40, -1.5, 3.0];
        let x = [-0.0f32, 0.0, 2.0e-39, 0.25, -7.0, 1.0];
        let mut want = vec![f32::NAN; delta.len() * x.len()];
        gemm_tn(&delta, &x, &mut want, delta.len(), 1, x.len(), false);
        let view = GradView::Outer {
            delta: &delta,
            x: &x,
        };
        assert_eq!(view.len(), want.len());
        let dense = view.dense();
        assert_eq!(dense.shape(), &[delta.len(), x.len()]);
        for (got, want) in dense.as_slice().iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn dense_view_lends_its_tensor() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let view = GradView::from(&t);
        assert!(matches!(view.dense(), Cow::Borrowed(_)));
    }
}
