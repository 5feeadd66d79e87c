//! The one serial/parallel decision for the kernels in this crate.
//!
//! Every parallel kernel is expressed as a *row-block* function: given a
//! first row index and a mutable block of whole output rows, it computes
//! those rows with a fixed per-element floating-point order. Running one
//! block over all rows is the scalar reference; sharding the blocks across
//! the `adagp_runtime` pool produces bit-identical bytes because chunk
//! boundaries depend only on the row count (never the thread count) and
//! each row is written by exactly one task.

use adagp_runtime::det_chunk_len;
use std::cell::Cell;

/// Estimated scalar-op count below which parallel dispatch is not worth
/// the queueing overhead and the kernel runs inline.
pub(crate) const PAR_MIN_WORK: usize = 16 * 1024;

thread_local! {
    /// Set while this thread runs a block. Blocks do not nest: a kernel called
    /// from one (a convolution's per-sample `gemm`) runs inline, as does any
    /// kernel on a thread where a block panicked and left this set.
    static IN_BLOCK: Cell<bool> = const { Cell::new(false) };
}

/// Splits `out` — `rows` rows of `row_len` elements, the last possibly
/// short — into fixed row blocks and runs `f(first_row, block)` for each, in
/// parallel when `work` (a rough op-count estimate, used *only* for the
/// serial/parallel decision) says it pays off.
pub(crate) fn row_blocks<F>(out: &mut [f32], rows: usize, row_len: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    row_blocks_by(det_chunk_len(rows), out, rows, row_len, work, f);
}

/// [`row_blocks`] with blocks of `chunk_rows` rows — a function of the
/// shape, never of the thread count — for a kernel that wants fewer pool
/// tasks than `det_chunk_len` makes (each task allocates its boxes).
pub(crate) fn row_blocks_by<F>(
    chunk_rows: usize,
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    work: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert!(row_len == 0 || out.len().div_ceil(row_len) == rows);
    let pool = adagp_runtime::pool();
    if IN_BLOCK.get() || rows < 2 || work < PAR_MIN_WORK || pool.size() == 1 {
        f(0, out);
        return;
    }
    pool.parallel_chunks(out, chunk_rows * row_len.max(1), |ci, chunk| {
        IN_BLOCK.set(true);
        f(ci * chunk_rows, chunk);
        IN_BLOCK.set(false);
    });
}

/// Like [`row_blocks`] over two lockstep outputs (`a` rows of `a_row_len`,
/// `b` rows of `b_row_len`): `f(first_row, a_block, b_block)`.
pub(crate) fn row_blocks_pair<F>(
    a: &mut [f32],
    b: &mut [f32],
    rows: usize,
    a_row_len: usize,
    b_row_len: usize,
    work: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    debug_assert_eq!(a.len(), rows * a_row_len);
    debug_assert_eq!(b.len(), rows * b_row_len);
    let pool = adagp_runtime::pool();
    if pool.size() == 1 || rows < 2 || work < PAR_MIN_WORK {
        f(0, a, b);
        return;
    }
    let chunk_rows = det_chunk_len(rows);
    pool.parallel_chunks_pair(
        a,
        b,
        chunk_rows * a_row_len.max(1),
        chunk_rows * b_row_len.max(1),
        |ci, ca, cb| f(ci * chunk_rows, ca, cb),
    );
}
