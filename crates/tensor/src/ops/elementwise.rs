//! Elementwise arithmetic on tensors.

use crate::{Result, Tensor};

impl Tensor {
    /// Elementwise sum, producing a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// Elementwise in-place sum.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// Elementwise difference, producing a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        let mut out = self.clone();
        for (a, b) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a -= b;
        }
        Ok(out)
    }

    /// Elementwise in-place difference.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "sub_assign")?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a -= b;
        }
        Ok(())
    }

    /// Elementwise (Hadamard) product, producing a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "mul")?;
        let mut out = self.clone();
        for (a, b) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a *= b;
        }
        Ok(out)
    }

    /// Multiplies every element by a scalar, producing a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }
}

/// `y ← y + alpha * x` over flat data (the BLAS `axpy` primitive).
///
/// Optimizer updates do not come through here: every one is a single
/// `simd::sgdm_sweep`. The callers left are the velocity-form LWP
/// prediction made outside an update (`pbp_optim`'s `lwp.rs`: the forward
/// weights of a microbatch that closes no update, SpecTrain's backward
/// re-prediction) and `Conv2d`'s weight-gradient accumulation.
///
/// # Panics
///
/// Panics if the tensors have different lengths.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *yi += alpha * xi;
    }
}

/// `out ← x + t * (x - x_prev)` — the linear extrapolation used by the
/// weight-difference form of Linear Weight Prediction (Eq. 19 of the paper).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn lerp_into(x: &Tensor, x_prev: &Tensor, t: f32, out: &mut Tensor) {
    assert_eq!(x.len(), x_prev.len(), "lerp_into length mismatch");
    assert_eq!(x.len(), out.len(), "lerp_into output length mismatch");
    let (xs, ps) = (x.as_slice(), x_prev.as_slice());
    for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
        *o = xs[i] + t * (xs[i] - ps[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorError;

    #[test]
    fn add_and_sub_are_inverses() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[0.5, -1.0, 2.0]);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        match a.add(&b) {
            Err(TensorError::ShapeMismatch { op, .. }) => assert_eq!(op, "add"),
            other => panic!("expected shape mismatch, got {other:?}"),
        }
    }

    #[test]
    fn mul_is_elementwise() {
        let a = Tensor::from_slice(&[2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[8.0, 15.0]);
    }

    #[test]
    fn axpy_matches_manual() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let mut y = Tensor::from_slice(&[10.0, 20.0]);
        axpy(0.5, &x, &mut y);
        assert_eq!(y.as_slice(), &[10.5, 21.0]);
    }

    #[test]
    fn lerp_into_extrapolates() {
        let x = Tensor::from_slice(&[2.0]);
        let prev = Tensor::from_slice(&[1.0]);
        let mut out = Tensor::zeros(&[1]);
        lerp_into(&x, &prev, 3.0, &mut out);
        // 2 + 3*(2-1) = 5
        assert_eq!(out.as_slice(), &[5.0]);
    }

    #[test]
    fn lerp_with_zero_horizon_is_identity() {
        let x = Tensor::from_slice(&[2.0, -7.0]);
        let prev = Tensor::from_slice(&[1.0, 4.0]);
        let mut out = Tensor::zeros(&[2]);
        lerp_into(&x, &prev, 0.0, &mut out);
        assert_eq!(out.as_slice(), x.as_slice());
    }
}

impl Tensor {
    /// Elementwise absolute value, producing a new tensor.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise clamp into `[lo, hi]`, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp bounds inverted: [{lo}, {hi}]");
        self.map(|v| v.clamp(lo, hi))
    }

    /// Elementwise maximum of two tensors.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] if shapes differ.
    pub fn maximum(&self, other: &Tensor) -> crate::Result<Tensor> {
        self.check_same_shape(other, "maximum")?;
        let mut out = self.clone();
        for (a, b) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = a.max(*b);
        }
        Ok(out)
    }

    /// Concatenates tensors along axis 0 (all other dimensions must match).
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty or trailing shapes differ.
    pub fn concat(parts: &[&Tensor]) -> crate::Result<Tensor> {
        let first = parts.first().ok_or_else(|| {
            crate::TensorError::InvalidArgument("concat needs at least one tensor".into())
        })?;
        let tail_shape = &first.shape()[1..];
        let mut rows = 0usize;
        for p in parts {
            if &p.shape()[1..] != tail_shape {
                return Err(crate::TensorError::ShapeMismatch {
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                    op: "concat",
                });
            }
            rows += p.shape()[0];
        }
        let mut shape = vec![rows];
        shape.extend_from_slice(tail_shape);
        let mut data = Vec::with_capacity(shape.iter().product());
        for p in parts {
            data.extend_from_slice(p.as_slice());
        }
        Tensor::from_vec(data, &shape)
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn abs_and_clamp() {
        let t = Tensor::from_slice(&[-2.0, 0.5, 3.0]);
        assert_eq!(t.abs().as_slice(), &[2.0, 0.5, 3.0]);
        assert_eq!(t.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn maximum_is_elementwise() {
        let a = Tensor::from_slice(&[1.0, 5.0]);
        let b = Tensor::from_slice(&[3.0, 2.0]);
        assert_eq!(a.maximum(&b).unwrap().as_slice(), &[3.0, 5.0]);
    }

    #[test]
    fn concat_stacks_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let c = Tensor::concat(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_rejects_mismatched_tails() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(Tensor::concat(&[&a, &b]).is_err());
        assert!(Tensor::concat(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "clamp bounds")]
    fn clamp_rejects_inverted_bounds() {
        Tensor::from_slice(&[1.0]).clamp(2.0, 1.0);
    }
}
