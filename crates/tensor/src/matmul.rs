//! Matrix products (forward and backward).
//!
//! `matmul`, `matmul_tn` and `matmul_nt` are three choices of operand view
//! over the one kernel in [`crate::gemm`] — a transposed operand is a stride
//! swap, not a copy — and inherit its order contract bit for bit.

use crate::gemm::{gemm, Mat};
use crate::Tensor;

/// `a (m, k) · b (k, n)` into a fresh `(m, n)` tensor.
fn product(m: usize, n: usize, k: usize, a: Mat, b: Mat) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    gemm(m, n, k, a, b, &mut out, false);
    Tensor::from_vec(out, &[m, n])
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m, k) x (k, n) -> (m, n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions
    /// disagree.
    ///
    /// ```
    /// use adagp_tensor::Tensor;
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
    /// assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul: left operand must be rank-2");
        assert_eq!(other.ndim(), 2, "matmul: right operand must be rank-2");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(
            k,
            k2,
            "matmul: inner dimensions disagree ({:?} x {:?})",
            self.shape(),
            other.shape()
        );
        let (a, b) = (Mat::rows(self.data(), k), Mat::rows(other.data(), n));
        product(m, n, k, a, b)
    }

    /// `self^T @ other` without materializing the transpose:
    /// `(k, m)^T x (k, n) -> (m, n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_tn: left operand must be rank-2");
        assert_eq!(other.ndim(), 2, "matmul_tn: right operand must be rank-2");
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul_tn: leading dimensions disagree");
        let (a, b) = (Mat::rows(self.data(), m).t(), Mat::rows(other.data(), n));
        product(m, n, k, a, b)
    }

    /// `self @ other^T` without materializing the transpose:
    /// `(m, k) x (n, k)^T -> (m, n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_nt: left operand must be rank-2");
        assert_eq!(other.ndim(), 2, "matmul_nt: right operand must be rank-2");
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul_nt: trailing dimensions disagree");
        let (a, b) = (Mat::rows(self.data(), k), Mat::rows(other.data(), k).t());
        product(m, n, k, a, b)
    }
}

/// Gradients of `y = x @ w` with respect to both operands.
///
/// Given upstream gradient `dy (m, n)`, input `x (m, k)` and weight
/// `w (k, n)`, returns `(dx, dw)` where `dx = dy @ w^T` and `dw = x^T @ dy`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
    let dx = dy.matmul_nt(w);
    let dw = x.matmul_tn(dy);
    (dx, dw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = t(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[0.0, 1.0, 1.0, 0.0], &[2, 2]);
        assert_eq!(a.matmul(&b).data(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], &[3, 2]);
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transpose2().matmul(&b);
        assert!(via_tn.allclose(&explicit, 1e-6));
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], &[2, 3]);
        let via_nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose2());
        assert!(via_nt.allclose(&explicit, 1e-6));
    }

    #[test]
    fn backward_shapes() {
        let x = Tensor::ones(&[4, 3]);
        let w = Tensor::ones(&[3, 5]);
        let dy = Tensor::ones(&[4, 5]);
        let (dx, dw) = matmul_backward(&x, &w, &dy);
        assert_eq!(dx.shape(), &[4, 3]);
        assert_eq!(dw.shape(), &[3, 5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        // f(x, w) = sum(x @ w); grad wrt x is rowsum-broadcast of w, etc.
        let x = t(&[0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]);
        let w = t(&[1.0, 2.0, -1.0, 0.5, 3.0, -2.0], &[3, 2]);
        let dy = Tensor::ones(&[2, 2]);
        let (dx, dw) = matmul_backward(&x, &w, &dy);

        let eps = 1e-3;
        let f = |x: &Tensor, w: &Tensor| x.matmul(w).sum();
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp, &w) - f(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (f(&x, &wp) - f(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - dw.data()[i]).abs() < 1e-2,
                "dw[{i}]: numeric {num} vs analytic {}",
                dw.data()[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_panics() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 2]);
        let _ = a.matmul(&b);
    }
}
