//! The multiply-accumulate loop of this crate's products.
//!
//! [`Tensor::matmul`](crate::Tensor::matmul) and its `_tn` / `_nt` forms,
//! the three convolution kernels and the attention products in `adagp-nn`
//! are all a lowering to [`gemm`] over read-only strided views ([`Mat`]), so
//! a transpose is a view, not a copy. The one other loop is the convolution
//! kernels' depthwise stencil (a grouped call with one input channel per
//! group), which keeps, per element, the order its `im2col` + `gemm`
//! lowering had — taps ascending from `0.0` in forward, each tap's filter
//! sum from `0.0` scattered in `col2im`'s order in data-backward, each
//! sample's sum from `0.0` over outputs ascending and then the samples in
//! order in weight-backward (the [`conv`](crate::conv) module documentation
//! has the details).
//!
//! # The order contract
//!
//! For every output element `(i, j)`:
//!
//! ```text
//! acc = 0.0
//! for p in 0..k { acc += a[i, p] * b[p, j] }    // p ascending, one f32 accumulator
//! c[i, j] = acc            // or  c[i, j] += acc  when `accumulate`
//! ```
//!
//! Results are **bit-identical** to this scalar loop for every shape, view
//! and `ADAGP_THREADS` (`tests/kernel_properties.rs`, dev and release
//! profiles). Nothing is skipped: `0 × NaN` is `NaN`.
//!
//! # How it is fast without moving a bit
//!
//! An [`MR`]` × `[`NR`] block of accumulators lives in registers while `p`
//! runs; each step loads one contiguous `NR`-wide piece of a `b` row (the
//! `j` loop is what vectorises) and broadcasts `MR` scalars of `a`. A `b`
//! whose rows are not contiguous is copied transposed once per call. Row
//! blocks are split at fixed multiples of `MR` derived from the row count
//! alone (`par::row_blocks`) and no element's order depends on its block,
//! so thread-count invariance holds by construction. There is **no split
//! and no lane-wise partial sum along `k`**: that is why no golden moved
//! when the kernels were put on this loop. A `k`-vectorised or `std::arch`
//! microkernel behind this signature reorders every sum; it has to
//! re-baseline, in one commit, the FNV pins in `kernel_properties.rs` and
//! every training output compared byte for byte across commits (stdout of
//! the training examples and `paper` artifacts).

use crate::par;
use std::cell::Cell;

/// Output rows per register tile; `gemm` instantiates the tile for 1..=4.
pub const MR: usize = 4;
/// Output columns per register tile, the vectorised dimension; `strip`
/// instantiates widths 8, 4 and 1.
pub const NR: usize = 8;
const _: () = assert!(MR == 4 && NR == 8);

thread_local! {
    /// This thread's buffer for the transposed copy of `b`, kept between calls
    /// (weight-backward makes one per sample). Taken, not borrowed: a `gemm`
    /// this thread runs meanwhile, from a queued block, allocates its own.
    static TRANSPOSED: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// A read-only matrix view: element `(r, c)` is `data[r * rs + c * cs]`.
#[derive(Debug, Clone, Copy)]
pub struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// Rows start `stride` elements apart, the elements of a row adjacent.
    /// A `stride` above the logical width selects a column band.
    pub fn rows(data: &'a [f32], stride: usize) -> Self {
        let (rs, cs) = (stride, 1);
        Mat { data, rs, cs }
    }

    /// The transposed view of the same data.
    pub fn t(mut self) -> Self {
        std::mem::swap(&mut self.rs, &mut self.cs);
        self
    }
}

/// `c = a · b` (or `c += a · b` when `accumulate`) for `a (m, k)`,
/// `b (k, n)` and a row-major `c (m, n)`, in the order the module
/// documentation fixes.
///
/// # Panics
///
/// Panics if `c.len() != m * n` or a view is too short for its shape.
///
/// ```
/// use adagp_tensor::gemm::{gemm, Mat};
/// let a = [1.0, 2.0, 3.0, 4.0]; // (2, 2)
/// let mut c = [0.0f32; 4];
/// gemm(2, 2, 2, Mat::rows(&a, 2), Mat::rows(&a, 2).t(), &mut c, false);
/// assert_eq!(c, [5.0, 11.0, 11.0, 25.0]); // a · aᵀ
/// ```
pub fn gemm(m: usize, n: usize, k: usize, a: Mat, b: Mat, c: &mut [f32], accumulate: bool) {
    assert_eq!(c.len(), m * n, "gemm: c must be m x n");
    if m == 0 || n == 0 {
        return;
    }
    let (mut b, mut transposed) = (b, TRANSPOSED.take());
    if b.cs != 1 {
        // One NR-wide column panel at a time: its NR source rows are read
        // sequentially and each destination row piece is written whole.
        transposed.resize(k * n, 0.0);
        for j0 in (0..n).step_by(NR) {
            for p in 0..k {
                for j in j0..(j0 + NR).min(n) {
                    transposed[p * n + j] = b.data[p * b.rs + j * b.cs];
                }
            }
        }
        b = Mat::rows(&transposed, n);
    }
    let product = Product {
        n,
        k,
        a,
        b,
        accumulate,
    };
    par::row_blocks(c, m.div_ceil(MR), MR * n, m * n * k, |first, block| {
        for (g, rows) in block.chunks_mut(MR * n).enumerate() {
            let i0 = (first + g) * MR;
            match rows.len() / n {
                MR => product.strip::<MR>(i0, rows),
                3 => product.strip::<3>(i0, rows),
                2 => product.strip::<2>(i0, rows),
                _ => product.strip::<1>(i0, rows),
            }
        }
    });
    TRANSPOSED.set(transposed);
}

/// One call's operands; `b`'s rows are contiguous.
struct Product<'a> {
    n: usize,
    k: usize,
    a: Mat<'a>,
    b: Mat<'a>,
    accumulate: bool,
}

impl Product<'_> {
    /// `R ≤ MR` rows from `i0`: `NR`-wide tiles, then the same tile at widths 4 and 1.
    fn strip<const R: usize>(&self, i0: usize, rows: &mut [f32]) {
        let mut j = 0;
        while j + NR <= self.n {
            self.tile::<R, NR>(i0, j, rows);
            j += NR;
        }
        if self.n - j >= 4 {
            self.tile::<R, 4>(i0, j, rows);
            j += 4;
        }
        while j < self.n {
            self.tile::<R, 1>(i0, j, rows);
            j += 1;
        }
    }

    /// The register tile: `R × W` accumulators over the whole of `k`.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&self, i0: usize, j0: usize, rows: &mut [f32]) {
        let (a, b) = (self.a, self.b);
        let mut acc = [[0.0f32; W]; R];
        for p in 0..self.k {
            let brow: &[f32; W] = b.data[p * b.rs + j0..][..W].try_into().expect("W wide");
            for r in 0..R {
                let av = a.data[(i0 + r) * a.rs + p * a.cs];
                for x in 0..W {
                    acc[r][x] += av * brow[x];
                }
            }
        }
        for r in 0..R {
            let crow = &mut rows[r * self.n + j0..][..W];
            for x in 0..W {
                crow[x] = if self.accumulate {
                    crow[x] + acc[r][x]
                } else {
                    acc[r][x]
                };
            }
        }
    }
}
