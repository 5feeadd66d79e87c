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
//! `j` loop is what vectorises) and broadcasts `MR` scalars of `a`. Row
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
//! ## The operand panel
//!
//! A strip of `R ≤ MR` rows of `a` is copied once, before its tiles, into a
//! `p`-major panel: element `(i0 + r, p)` at `p · R + r` (Goto and van de
//! Geijn's packing), in a buffer the block borrows from its thread's
//! `scratch` stack. A tile then reads one contiguous `R`-vector per step
//! instead of `R` strided scalars, and slices the rows of `b` it reads once,
//! so a step is left with one length check where it had an index
//! computation and a check per operand. A transposed `a` is `p`-major
//! already and is read in place. A row-major `a` under a `c` at most
//! `PACK_MIN_N` = 16 wide is not packed either: there one tile reads the
//! strip, so the copy is pure cost (packing measured 1.5–1.8× slower on
//! MobileNet-V2's `24×4×128`, `24×16×144` and `96×16×16`, one thread,
//! AVX2). The panel is a copy, so every product and sum is the same.
//!
//! ## The transposed product
//!
//! A `b` whose rows are not contiguous — `x · Wᵀ` in `Linear::forward`,
//! `matmul_nt` — used to be copied transposed, the whole weight on every
//! call. When `m ≤ TRANSPOSE_MAX_M` = 16 and `m` is a multiple of 4 (a
//! batch of 8, the predictor FC's few-row sites), `gemm` computes
//! `cᵀ (n, m) = bᵀ · aᵀ` instead: `bᵀ`'s rows are the weight's, contiguous,
//! so only `aᵀ` (`k × m`) is copied, and `cᵀ` is added or written into `c`
//! afterwards. Both live in a buffer borrowed from the thread's `scratch`
//! stack, as does `b` copied row by row when its rows are not contiguous
//! and the transposed product does not run. Element `(i, j)` is the same
//! sum `Σ_p a[i, p] · b[p, j]`, `p` ascending from `0.0`, and IEEE
//! multiplication is commutative, so no finite bit moves (which NaN payload
//! survives a NaN × NaN is unspecified in Rust and already followed LLVM's
//! operand order, not the source's). VGG13 w0.25's `fc1` (`8×1024×512`)
//! runs 4–6× faster; at `m` = 6 and 10 the transposed product's 1-wide
//! tail tiles made it 4–10 % slower than the copy, so those keep the copy.
//! It runs in as many pool tasks as the direct product over `m` rows would
//! (a task costs two allocations; split along `n` as finely as `par` does
//! by default, `Linear::forward` made 62 more per VGG forward).
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

use crate::{par, scratch};
use adagp_runtime::det_chunk_len;

/// Output rows per register tile; `gemm` instantiates the tile for 1..=4.
pub const MR: usize = 4;
/// Output columns per register tile, the vectorised dimension; `tiles`
/// instantiates widths 8, 4 and 1, and 16 in the AVX2 build.
pub const NR: usize = 8;
const _: () = assert!(MR == 4 && NR == 8);

/// Output rows at or below which (and a multiple of 4) a `b` with
/// non-contiguous rows takes the transposed product (module documentation).
const TRANSPOSE_MAX_M: usize = 16;

/// Output columns above which a strip of a row-major `a` is packed (module
/// documentation).
const PACK_MIN_N: usize = 16;

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

    /// Copies `rows × cols` of this view into `dst`, row-major.
    fn copy_to(&self, rows: usize, cols: usize, dst: &mut [f32]) {
        for (r, dst) in dst.chunks_exact_mut(cols).take(rows).enumerate() {
            for (c, v) in dst.iter_mut().enumerate() {
                *v = self.data[r * self.rs + c * self.cs];
            }
        }
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
    gemm_built(true, (m, n, k), a, b, c, accumulate);
}

/// [`gemm`], run by the AVX2 build when `allow_avx2` and the CPU has AVX2,
/// else by the portable one.
fn gemm_built(
    allow_avx2: bool,
    (m, n, k): (usize, usize, usize),
    a: Mat,
    b: Mat,
    c: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(c.len(), m * n, "gemm: c must be m x n");
    if m == 0 || n == 0 {
        return;
    }
    let avx2 = allow_avx2 && avx2_detected();
    if b.cs == 1 && (b.rs >= n || k <= 1) {
        Product::new(n, k, a, b, accumulate).run(avx2, m, c, det_chunk_len(m.div_ceil(MR)));
    } else if b.cs != 1 && m <= TRANSPOSE_MAX_M && m.is_multiple_of(4) {
        // cᵀ (n, m) = bᵀ (n, k) · aᵀ (k, m): bᵀ's rows are contiguous, so
        // only aᵀ is copied; each output is the same sum, `p` ascending.
        scratch::with(k * m + n * m, |buf| {
            let (a_t, c_t) = buf.split_at_mut(k * m);
            a.t().copy_to(k, m, a_t);
            // As many pool tasks as the direct product over `m` rows would
            // make: each costs two allocations, and `n` is the long side.
            let chunk = n.div_ceil(MR).div_ceil(m.div_ceil(MR));
            let product = Product::new(m, k, b.t(), Mat::rows(a_t, m), false);
            product.run(avx2, n, c_t, chunk);
            for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
                for (j, v) in c_row.iter_mut().enumerate() {
                    let t = c_t[j * m + i];
                    *v = if accumulate { *v + t } else { t };
                }
            }
        });
    } else {
        // `b` row by row into contiguous rows `n` apart.
        scratch::with(k * n, |b_rows| {
            b.copy_to(k, n, b_rows);
            let product = Product::new(n, k, a, Mat::rows(b_rows, n), accumulate);
            product.run(avx2, m, c, det_chunk_len(m.div_ceil(MR)));
        });
    }
}

/// Whether this CPU runs the AVX2 build (always false off x86).
fn avx2_detected() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
}

/// Where a strip's tiles read `a`'s `R`-vector for each `p`.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// A transposed `a`: the vector is contiguous already, `a.cs` apart.
    InPlace,
    /// A row-major `a` under a narrow `c`: one element of each row.
    Rows,
    /// Any other `a`: copied into a panel, `p`-major, per strip.
    Panel,
}

/// One call's operands; `b`'s rows are contiguous and do not overlap (or
/// `k ≤ 1`).
struct Product<'a> {
    n: usize,
    k: usize,
    a: Mat<'a>,
    b: Mat<'a>,
    accumulate: bool,
    source: Source,
}

impl<'a> Product<'a> {
    fn new(n: usize, k: usize, a: Mat<'a>, b: Mat<'a>, accumulate: bool) -> Self {
        let source = if a.rs == 1 && (a.cs >= MR || k <= 1) {
            Source::InPlace
        } else if a.cs == 1 && n <= PACK_MIN_N {
            Source::Rows
        } else {
            Source::Panel
        };
        Product {
            n,
            k,
            a,
            b,
            accumulate,
            source,
        }
    }

    /// All `m` rows of `c`, over the pool in blocks of `chunk` strips.
    fn run(&self, avx2: bool, m: usize, c: &mut [f32], chunk: usize) {
        let (n, k) = (self.n, self.k);
        par::row_blocks_by(
            chunk,
            c,
            m.div_ceil(MR),
            MR * n,
            m * n * k,
            |first, block| {
                // The panel is borrowed here, not inside `block`: a closure
                // there would be compiled once, without `block_avx2`'s
                // `target_feature`.
                let panel_len = if self.source == Source::Panel {
                    MR * self.k
                } else {
                    0
                };
                scratch::with(panel_len, |panel| {
                    if avx2 {
                        // SAFETY: `avx2` is true only where `is_x86_feature_detected!`
                        // found AVX2 on this CPU (`avx2_detected`), which is all that
                        // `block_avx2`'s `target_feature` requires.
                        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                        return unsafe { self.block_avx2(first, block, panel) };
                    }
                    self.block::<NR>(first, block, panel);
                });
            },
        );
    }

    /// The rows of `block`, from row `first`: one strip of tiles at most
    /// `WIDE` columns wide per `MR` rows, packing into `panel` when the
    /// strips pack.
    #[inline(always)]
    fn block<const WIDE: usize>(&self, first: usize, block: &mut [f32], panel: &mut [f32]) {
        for (g, rows) in block.chunks_mut(MR * self.n).enumerate() {
            let i0 = (first + g) * MR;
            match rows.len() / self.n {
                MR => self.strip::<MR, WIDE>(i0, rows, panel),
                3 => self.strip::<3, WIDE>(i0, rows, panel),
                2 => self.strip::<2, WIDE>(i0, rows, panel),
                _ => self.strip::<1, WIDE>(i0, rows, panel),
            }
        }
    }

    /// [`Product::block`] compiled for AVX2, with 16-wide tiles: the same
    /// source, so the same operations in the same order.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn block_avx2(&self, first: usize, block: &mut [f32], panel: &mut [f32]) {
        self.block::<{ 2 * NR }>(first, block, panel);
    }

    /// `R ≤ MR` rows from `i0`: the steps their tiles read `a` from — in
    /// place, row by row or from the panel packed into `buf` — then the
    /// tiles.
    #[inline(always)]
    fn strip<const R: usize, const WIDE: usize>(
        &self,
        i0: usize,
        rows: &mut [f32],
        buf: &mut [f32],
    ) {
        let (a, k) = (self.a, self.k);
        if k == 0 {
            self.tiles::<R, WIDE>(std::iter::empty(), rows);
            return;
        }
        match self.source {
            Source::InPlace => {
                let panel = &a.data[i0..][..(k - 1) * a.cs + R];
                let steps = panel.chunks(a.cs.max(R));
                self.tiles::<R, WIDE>(steps.map(|ap| *ap.first_chunk().expect("R long")), rows);
            }
            Source::Rows => {
                let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a.data[(i0 + r) * a.rs..][..k]);
                let steps = (0..k).map(|p| std::array::from_fn(|r| a_rows[r][p]));
                self.tiles::<R, WIDE>(steps, rows);
            }
            Source::Panel => {
                let panel = self.pack::<R>(i0, buf);
                self.tiles::<R, WIDE>(panel.as_chunks::<R>().0.iter().copied(), rows);
            }
        }
    }

    /// One strip's tiles: `WIDE`-wide, then the same tile at widths `NR`
    /// (when `WIDE` is wider), 4 and 1. `steps` yields `a`'s `R`-vector
    /// per `p`.
    #[inline(always)]
    fn tiles<const R: usize, const WIDE: usize>(
        &self,
        steps: impl Iterator<Item = [f32; R]> + Clone,
        rows: &mut [f32],
    ) {
        let mut j = 0;
        while j + WIDE <= self.n {
            self.tile::<R, WIDE>(steps.clone(), j, rows);
            j += WIDE;
        }
        if WIDE > NR && self.n - j >= NR {
            self.tile::<R, NR>(steps.clone(), j, rows);
            j += NR;
        }
        if self.n - j >= 4 {
            self.tile::<R, 4>(steps.clone(), j, rows);
            j += 4;
        }
        while j < self.n {
            self.tile::<R, 1>(steps.clone(), j, rows);
            j += 1;
        }
    }

    /// Copies rows `i0..i0 + R` of `a` into `buf`, `p`-major: element
    /// `(i0 + r, p)` at `p · R + r`.
    #[inline(always)]
    fn pack<'b, const R: usize>(&self, i0: usize, buf: &'b mut [f32]) -> &'b [f32] {
        let (a, k) = (self.a, self.k);
        let panel = &mut buf[..R * k];
        let rows: [&[f32]; R] = std::array::from_fn(|r| &a.data[(i0 + r) * a.rs..]);
        if a.cs == 1 {
            let rows = rows.map(|row| &row[..k]);
            for p in 0..k {
                let dst = &mut panel[p * R..][..R];
                for r in 0..R {
                    dst[r] = rows[r][p];
                }
            }
        } else {
            for (p, dst) in panel.chunks_exact_mut(R).enumerate() {
                for r in 0..R {
                    dst[r] = rows[r][p * a.cs];
                }
            }
        }
        panel
    }

    /// The register tile: `R × W` accumulators over the whole of `k`, `a`
    /// from `steps` and `b`'s rows from column `j0`.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        &self,
        steps: impl Iterator<Item = [f32; R]>,
        j0: usize,
        rows: &mut [f32],
    ) {
        let (k, rs) = (self.k, self.b.rs);
        let mut acc = [[0.0f32; W]; R];
        if k > 0 {
            // Every row of `b` this tile reads, sliced once.
            let b = &self.b.data[j0..][..(k - 1) * rs + W];
            for (ap, brow) in steps.zip(b.chunks(rs.max(W))) {
                let brow: &[f32; W] = brow.first_chunk().expect("W wide");
                for r in 0..R {
                    for x in 0..W {
                        acc[r][x] += ap[r] * brow[x];
                    }
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
    /// the 16-, 8-, 4- and 1-wide tiles, every row count around `MR` and
    /// around `TRANSPOSE_MAX_M` (so the transposed product, with its
    /// 16-wide tiles along `m`), both views of both operands, assigned and
    /// accumulated, and one product large enough to be split over the pool;
    /// then `b = Mat::rows(x, 1).t()` at `k = 1`, a row stride below `n`.
    /// The portable build runs here even on a CPU with AVX2, where `gemm`
    /// never selects it.
    #[test]
    fn avx2_build_matches_portable_bit_for_bit() {
        if !avx2_detected() {
            eprintln!("skipped: this CPU has no AVX2, so gemm has one build only");
            return;
        }
        let mut rng = Prng::seed_from_u64(0xa7f2);
        let mut shapes = Vec::new();
        for n in (1..=40).chain([47, 48, 63]) {
            for (m, k) in [
                (1, 3),
                (3, 0),
                (4, 1),
                (5, 17),
                (8, 9),
                (9, 33),
                (16, 5),
                (17, 2),
            ] {
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
                        gemm_built(allow_avx2, (m, n, k), av, bv, &mut c, accumulate);
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
        for (m, n) in [(4, 40), (8, 17), (16, 33)] {
            let a = init::gaussian(&[m, 1], 0.0, 1.0, &mut rng);
            let x = init::gaussian(&[n], 0.0, 1.0, &mut rng);
            let run = |allow_avx2| {
                let mut c = vec![0.0; m * n];
                let (av, bv) = (Mat::rows(a.data(), 1), Mat::rows(x.data(), 1).t());
                gemm_built(allow_avx2, (m, n, 1), av, bv, &mut c, false);
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(run(false), run(true), "{m}x{n}x1, b rows 1 apart");
        }
    }
}
