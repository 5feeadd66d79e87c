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
//! has the details). The stencil, like batch-norm's per-channel sums
//! ([`norm`](crate::norm)), runs eight channels per instruction under the
//! rule the AVX2 build below follows: a vector lane is an independent
//! output, never a piece of a sum.
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
//! when the kernels were put on this loop. A `k`-vectorised microkernel, or
//! one that fuses `*` and `+` into an FMA, reorders or re-rounds every sum;
//! it has to re-baseline, in one commit, the FNV pins in
//! `kernel_properties.rs` and every training output compared byte for byte
//! across commits (stdout of the training examples and `paper` artifacts).
//!
//! # The AVX2 build
//!
//! On x86 the same block loop is compiled a second time with AVX2 enabled
//! (`#[target_feature(enable = "avx2")]`) and picked per call when
//! `is_x86_feature_detected!("avx2")` says the CPU has it; the portable
//! build (baseline SSE2 on x86-64) is the fallback and the reference. The
//! AVX2 build adds a 16-wide tile in front of the 8-, 4- and 1-wide ones.
//! It moves no bit, because a vector lane is an output column `j`, never a
//! piece of `k`: each output still has its one `f32` accumulator, `p`
//! ascending, and a tile's width only decides how many such accumulators
//! one instruction updates. Only `avx2` is enabled, never `fma`, and Rust
//! never contracts a `*` and a `+` into one rounding, so every product and
//! every sum is rounded as in the portable build. A unit test runs both
//! builds on the same operands and compares the bytes.

use crate::par;
use std::cell::Cell;

/// Output rows per register tile; `gemm` instantiates the tile for 1..=4.
pub const MR: usize = 4;
/// Output columns per register tile, the vectorised dimension; `strip`
/// instantiates widths 8, 4 and 1, and 16 in the AVX2 build.
pub const NR: usize = 8;
const _: () = assert!(MR == 4 && NR == 8);

thread_local! {
    /// This thread's buffer for the transposed copy of `b`, kept between calls
    /// (a `Linear` forward, `x · Wᵀ`, makes one per call; the convolutions
    /// hand `gemm` contiguous rows). Taken, not borrowed: a `gemm` this
    /// thread runs meanwhile, from a queued block, allocates its own.
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
    gemm_built(true, m, n, k, a, b, c, accumulate);
}

/// [`gemm`], run by the AVX2 build when `allow_avx2` and the CPU has AVX2,
/// else by the portable one.
fn gemm_built(
    allow_avx2: bool,
    m: usize,
    n: usize,
    k: usize,
    a: Mat,
    b: Mat,
    c: &mut [f32],
    accumulate: bool,
) {
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
    let avx2 = allow_avx2 && avx2_detected();
    par::row_blocks(c, m.div_ceil(MR), MR * n, m * n * k, |first, block| {
        if avx2 {
            // SAFETY: `avx2` is true only where `is_x86_feature_detected!`
            // found AVX2 on this CPU (`avx2_detected`), which is all that
            // `block_avx2`'s `target_feature` requires.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            return unsafe { product.block_avx2(first, block) };
        }
        product.block::<NR>(first, block);
    });
    TRANSPOSED.set(transposed);
}

/// Whether this CPU runs the AVX2 build (always false off x86).
fn avx2_detected() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
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
    /// The rows of `block`, from row `first`: one strip of tiles at most
    /// `WIDE` columns wide per `MR` rows.
    #[inline(always)]
    fn block<const WIDE: usize>(&self, first: usize, block: &mut [f32]) {
        for (g, rows) in block.chunks_mut(MR * self.n).enumerate() {
            let i0 = (first + g) * MR;
            match rows.len() / self.n {
                MR => self.strip::<MR, WIDE>(i0, rows),
                3 => self.strip::<3, WIDE>(i0, rows),
                2 => self.strip::<2, WIDE>(i0, rows),
                _ => self.strip::<1, WIDE>(i0, rows),
            }
        }
    }

    /// [`Product::block`] compiled for AVX2, with 16-wide tiles: the same
    /// source, so the same operations in the same order.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn block_avx2(&self, first: usize, block: &mut [f32]) {
        self.block::<{ 2 * NR }>(first, block);
    }

    /// `R ≤ MR` rows from `i0`: `WIDE`-wide tiles, then the same tile at
    /// widths `NR` (when `WIDE` is wider), 4 and 1.
    #[inline(always)]
    fn strip<const R: usize, const WIDE: usize>(&self, i0: usize, rows: &mut [f32]) {
        let mut j = 0;
        while j + WIDE <= self.n {
            self.tile::<R, WIDE>(i0, j, rows);
            j += WIDE;
        }
        if WIDE > NR && self.n - j >= NR {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Prng};

    /// The AVX2 build writes the portable build's bytes: every width around
    /// the 16-, 8-, 4- and 1-wide tiles, every row count around `MR`, both
    /// views of both operands, assigned and accumulated, and one product
    /// large enough to be split over the pool. The portable build runs here
    /// even on a CPU with AVX2, where `gemm` never selects it.
    #[test]
    fn avx2_build_matches_portable_bit_for_bit() {
        if !avx2_detected() {
            eprintln!("skipped: this CPU has no AVX2, so gemm has one build only");
            return;
        }
        let mut rng = Prng::seed_from_u64(0xa7f2);
        let mut shapes = Vec::new();
        for n in (1..=40).chain([47, 48, 63]) {
            for (m, k) in [(1, 3), (3, 0), (4, 1), (5, 17), (9, 33)] {
                shapes.push((m, n, k));
            }
        }
        shapes.push((70, 45, 64));
        for (m, n, k) in shapes {
            let mut a = init::gaussian(&[m, k], 0.0, 1.0, &mut rng);
            if k > 2 {
                a.data_mut()[1] = f32::INFINITY;
            }
            let b = init::gaussian(&[k, n], 0.0, 1.0, &mut rng);
            let c0 = init::gaussian(&[m, n], 0.0, 1.0, &mut rng);
            let (at, bt) = (a.transpose2(), b.transpose2());
            for accumulate in [false, true] {
                for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                    let av = if ta {
                        Mat::rows(at.data(), m).t()
                    } else {
                        Mat::rows(a.data(), k)
                    };
                    let bv = if tb {
                        Mat::rows(bt.data(), k).t()
                    } else {
                        Mat::rows(b.data(), n)
                    };
                    let run = |allow_avx2| {
                        let mut c = c0.data().to_vec();
                        gemm_built(allow_avx2, m, n, k, av, bv, &mut c, accumulate);
                        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        run(false),
                        run(true),
                        "{m}x{n}x{k} ta={ta} tb={tb} accumulate={accumulate}"
                    );
                }
            }
        }
    }
}
