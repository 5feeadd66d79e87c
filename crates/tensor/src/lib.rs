//! # adagp-tensor
//!
//! A dense `f32` tensor library with the forward and backward kernels needed
//! to train convolutional, fully-connected and attention-based neural
//! networks on the CPU. It is the substrate on which the ADA-GP
//! reproduction (MICRO 2023) builds its training stack: the paper trains its
//! models with PyTorch, and this crate provides the equivalent subset built
//! from scratch.
//!
//! The central type is [`Tensor`]: a shape vector plus a contiguous
//! row-major `Vec<f32>`. All kernels are free functions or methods that
//! return new tensors; gradient kernels (`*_backward`) are provided next to
//! every forward kernel so layers can implement explicit backpropagation.
//!
//! ## Example
//!
//! ```
//! use adagp_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod conv;
pub mod gemm;
pub mod init;
pub mod matmul;
pub mod norm;
pub(crate) mod par;
pub mod pool;
pub mod rng;
pub mod softmax;

pub use rng::Prng;

use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// Shapes are arbitrary-rank; most kernels in this crate interpret rank-4
/// tensors as `(N, C, H, W)` and rank-2 tensors as `(rows, cols)`.
///
/// ```
/// use adagp_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().copied().take(8).collect();
        write!(
            f,
            "Tensor(shape={:?}, len={}, data[..{}]={:?}{})",
            self.shape,
            self.data.len(),
            preview.len(),
            preview,
            if self.data.len() > 8 { ", ..." } else { "" }
        )
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// ```
    /// # use adagp_tensor::Tensor;
    /// let t = Tensor::zeros(&[4]);
    /// assert!(t.data().iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?} (expected {})",
            data.len(),
            shape,
            expected
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape as a slice.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Size of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndim()`.
    pub fn dim(&self, dim: usize) -> usize {
        self.shape[dim]
    }

    /// Returns a copy reshaped to `shape` (same number of elements).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            expected
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Linear index for a multi-dimensional index (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.ndim()` or any coordinate is out of
    /// bounds (debug builds check bounds on each axis).
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(self.shape.iter()).enumerate() {
            debug_assert!(
                ix < dim,
                "index {} out of bounds for axis {} (size {})",
                ix,
                i,
                dim
            );
            off = off * dim + ix;
        }
        off
    }

    /// Element accessor by multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    // ---------------------------------------------------------------------
    // Elementwise arithmetic
    // ---------------------------------------------------------------------

    /// Elementwise sum; shapes must match exactly.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference; shapes must match exactly.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; shapes must match exactly.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` (axpy), in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|x| x * scalar)
    }

    /// Multiplies every element by `scalar` in place.
    pub fn scale_in_place(&mut self, scalar: f32) {
        for x in &mut self.data {
            *x *= scalar;
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    // ---------------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// The L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Mean over axis 0: `(d0, rest...) -> (rest...)`.
    ///
    /// Used by ADA-GP's tensor reorganization (batch-mean of activations).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank-0 or axis 0 has size 0.
    pub fn mean_axis0(&self) -> Tensor {
        assert!(!self.shape.is_empty(), "mean_axis0 requires rank >= 1");
        let d0 = self.shape[0];
        assert!(d0 > 0, "mean_axis0 requires non-empty axis 0");
        let rest: usize = self.shape[1..].iter().product();
        let mut out = vec![0.0f32; rest];
        for i in 0..d0 {
            let row = &self.data[i * rest..(i + 1) * rest];
            for (o, &x) in out.iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
        let inv = 1.0 / d0 as f32;
        for o in &mut out {
            *o *= inv;
        }
        Tensor {
            shape: self.shape[1..].to_vec(),
            data: out,
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2 requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor {
            shape: vec![c, r],
            data: out,
        }
    }

    /// Concatenates tensors along axis 0. All trailing dimensions must match.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing shapes differ.
    pub fn cat0(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "cat0 requires at least one tensor");
        let tail = &parts[0].shape[1..];
        let mut d0 = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "cat0 trailing shape mismatch");
            d0 += p.shape[0];
        }
        let mut shape = vec![d0];
        shape.extend_from_slice(tail);
        let mut data = Vec::with_capacity(shape.iter().product());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor { shape, data }
    }

    /// Extracts row `i` of axis 0 as a tensor of shape `shape[1..]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim(0)` or the tensor is rank-0.
    pub fn index0(&self, i: usize) -> Tensor {
        assert!(!self.shape.is_empty());
        assert!(i < self.shape[0], "index {} out of bounds", i);
        let rest: usize = self.shape[1..].iter().product();
        Tensor {
            shape: self.shape[1..].to_vec(),
            data: self.data[i * rest..(i + 1) * rest].to_vec(),
        }
    }

    /// Checks two tensors for approximate equality (absolute tolerance).
    pub fn allclose(&self, other: &Tensor, atol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= atol)
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn eye_diagonal() {
        let e = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(e.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]);
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
    }

    #[test]
    fn mean_axis0_matches_manual() {
        // (2, 3): rows [1,2,3] and [3,4,5] -> mean [2,3,4]
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 3.0, 4.0, 5.0], &[2, 3]);
        let m = t.mean_axis0();
        assert_eq!(m.shape(), &[3]);
        assert_eq!(m.data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn transpose2_involution() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = t.transpose2().transpose2();
        assert_eq!(t, tt);
    }

    #[test]
    fn cat0_stacks_along_axis0() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = Tensor::cat0(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn index0_extracts_rows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.index0(1).data(), &[3.0, 4.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[6]);
        let r = t.reshape(&[2, 3]);
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0005, 2.0], &[2]);
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-5));
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(&[1]);
        assert!(!format!("{:?}", t).is_empty());
    }
}
