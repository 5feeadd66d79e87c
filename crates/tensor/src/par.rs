//! The one serial/parallel decision for the kernels in this crate.
//!
//! Every parallel kernel is expressed as a *row-block* function: given a
//! first row index and a mutable block of whole output rows, it computes
//! those rows with a fixed per-element floating-point order. Running one
//! block over all rows is the scalar reference; sharding the blocks across
//! the `adagp_runtime` pool produces bit-identical bytes because chunk
//! boundaries depend only on the row count (never the thread count) and
//! each row is written by exactly one task.
//!
//! The second entry, [`tasks`], is for a caller with several independent
//! pieces of work made of such kernels, like ADA-GP's Phase GP, where each
//! prediction site is a few small kernels on the one shared predictor. One
//! region per kernel costs a pool wake-up per kernel, several per site;
//! one region per call with one task per piece costs one, and every kernel
//! inside a task runs inline. The bytes stay the same because a kernel's
//! result never depends on whether it ran inline.
//!
//! # The threshold
//!
//! A region costs a pool wake-up and two allocations per task, so a kernel
//! goes to the pool only when its estimated op count reaches
//! [`PAR_MIN_WORK`], the one threshold (`tasks` ignores it: its caller
//! judges). It is 256 Ki ops. Medians and quartiles of the benchmark's
//! serial BP (`cold_op_ms_p50`) and GP (`fast_op_ms_p50`) batch, in ms, at
//! four values, over 8 interleaved rounds of seed 1 on a 2-vCPU x86-64
//! host (pool of 2):
//!
//! | `PAR_MIN_WORK`           | 16 Ki            | 64 Ki            | 256 Ki           | 1 Mi             |
//! |--------------------------|------------------|------------------|------------------|------------------|
//! | `train_mobilenet` BP     | 18.2 (17.6–19.9) | 17.3 (16.4–20.4) | 16.7 (16.0–17.6) | 15.6 (15.1–21.6) |
//! | `train_mobilenet` GP     | 5.8 (5.4–6.3)    | 5.2 (4.9–6.4)    | 5.2 (4.9–5.5)    | 5.0 (4.7–6.6)    |
//! | `train_vgg` BP           | 45.3 (43.3–46.5) | 43.5 (40.6–47.6) | 43.4 (40.5–48.8) | 43.2 (41.0–47.9) |
//! | `train_vgg` GP           | 15.6 (14.3–16.6) | 14.2 (13.7–15.7) | 13.9 (13.3–16.9) | 15.0 (13.6–17.0) |
//!
//! MobileNet-V2's kernels (1×1 and depthwise convs on 2×2 to 16×16 planes,
//! the predictor's per-site calls) mostly fall between 16 Ki and 1 Mi ops,
//! and ran faster inline; VGG13's are above 1 Mi and did not move. 1 Mi
//! read lower again on MobileNet-V2, but with the widest quartiles and no
//! gain on VGG13, and on a larger pool it would keep kernels inline that
//! could fill it (not measured here), so the threshold stops at 256 Ki.
//!
//! To re-measure: make one checkout per value, all with paths of the same
//! length (the crates embed their source paths, which moves code layout),
//! set `PAR_MIN_WORK` in each, build `benchmark/` once per checkout into a
//! target directory of its own, and alternate `adagp-benchmark --workload
//! train_mobilenet --seed 1 --seconds 20 --trace 0` (then `train_vgg`)
//! over the checkouts, reversing the order every round.

use adagp_runtime::{det_chunk_len, ThreadPool};
use std::cell::Cell;
use std::sync::Arc;

/// Estimated scalar-op count below which parallel dispatch is not worth
/// the queueing overhead and the kernel runs inline (module documentation,
/// "The threshold"). Public so that tests can put cases on both sides.
pub const PAR_MIN_WORK: usize = 256 * 1024;

thread_local! {
    /// Set while this thread runs a block. Blocks do not nest: a kernel called
    /// from one (a convolution's per-sample `gemm`) runs inline.
    static IN_BLOCK: Cell<bool> = const { Cell::new(false) };
}

/// The pool a region of `rows` rows and `work` ops is dispatched to, or
/// `None` when it runs inline on this thread.
fn region_pool(rows: usize, work: usize) -> Option<Arc<ThreadPool>> {
    if IN_BLOCK.get() || rows < 2 || work < PAR_MIN_WORK {
        return None;
    }
    Some(adagp_runtime::pool()).filter(|pool| pool.size() > 1)
}

/// Runs `f` as a pool block: with [`IN_BLOCK`] set, and restored even when
/// `f` panics, so a caught panic does not leave this thread inline.
fn as_block(f: impl FnOnce()) {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_BLOCK.set(self.0);
        }
    }
    let _restore = Restore(IN_BLOCK.replace(true));
    f();
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
    let Some(pool) = region_pool(rows, work) else {
        f(0, out);
        return;
    };
    pool.parallel_chunks(out, chunk_rows * row_len.max(1), |ci, chunk| {
        as_block(|| f(ci * chunk_rows, chunk));
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
    let Some(pool) = region_pool(rows, work) else {
        f(0, a, b);
        return;
    };
    let chunk_rows = det_chunk_len(rows);
    pool.parallel_chunks_pair(
        a,
        b,
        chunk_rows * a_row_len.max(1),
        chunk_rows * b_row_len.max(1),
        |ci, ca, cb| as_block(|| f(ci * chunk_rows, ca, cb)),
    );
}

/// Runs `f` once per item, each call one pool block, and returns the
/// results in input order. Every kernel `f` calls runs inline in its block,
/// so the whole call is one pool region however many kernels each item
/// takes. Items are queued in input order: put the largest first, so that
/// none of them starts last.
///
/// Runs inline on this thread, in order, when called from inside a block,
/// with fewer than two items or at pool size 1; a lone item's kernels then
/// dispatch their own regions as usual.
///
/// # Panics
///
/// If `f` panics, the first payload is re-raised here after every item has
/// run (on the pool) or at once (inline); the thread is not left inline.
pub fn tasks<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // The tasks' work is the caller's to judge: only nesting, the item
    // count and the pool size decide.
    let Some(pool) = region_pool(items.len(), PAR_MIN_WORK) else {
        return items.into_iter().map(f).collect();
    };
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let f = &f;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .into_iter()
        .zip(out.iter_mut())
        .map(|(item, slot)| {
            Box::new(move || as_block(|| *slot = Some(f(item)))) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scope_run(jobs);
    out.into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_runtime::with_threads;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    const ROWS: usize = 64;

    /// Blocks a region of `ROWS` one-element rows runs in.
    fn blocks_of_a_region() -> usize {
        let calls = AtomicUsize::new(0);
        row_blocks(&mut [0.0; ROWS], ROWS, 1, PAR_MIN_WORK, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        calls.into_inner()
    }

    /// `PAR_MIN_WORK` is where dispatch starts: a region one op below it is
    /// one inline block, at it the region's blocks; so for the paired
    /// region.
    #[test]
    fn regions_dispatch_from_the_threshold_up() {
        with_threads(2, || {
            let blocks = |work: usize| {
                let (single, pair) = (AtomicUsize::new(0), AtomicUsize::new(0));
                row_blocks(&mut [0.0; ROWS], ROWS, 1, work, |_, _| {
                    single.fetch_add(1, Ordering::Relaxed);
                });
                let (mut a, mut b) = ([0.0; ROWS], [0.0; ROWS]);
                row_blocks_pair(&mut a, &mut b, ROWS, 1, 1, work, |_, _, _| {
                    pair.fetch_add(1, Ordering::Relaxed);
                });
                (single.into_inner(), pair.into_inner())
            };
            let dispatched = ROWS.div_ceil(det_chunk_len(ROWS));
            assert!(dispatched > 1);
            assert_eq!(blocks(PAR_MIN_WORK - 1), (1, 1));
            assert_eq!(blocks(PAR_MIN_WORK), (dispatched, dispatched));
        });
        // At pool size 1 nothing dispatches.
        with_threads(1, || assert_eq!(blocks_of_a_region(), 1));
    }

    /// A region whose block panicked on this thread, with the panic caught
    /// above it, leaves the next region dispatched, not inline for good.
    #[test]
    fn a_caught_block_panic_leaves_the_thread_dispatching() {
        with_threads(2, || {
            let dispatched = blocks_of_a_region();
            assert_eq!(dispatched, ROWS.div_ceil(det_chunk_len(ROWS)));
            let caller = std::thread::current().id();
            let panicked_here = AtomicBool::new(false);
            for _ in 0..100 {
                let region = catch_unwind(AssertUnwindSafe(|| {
                    row_blocks(&mut [0.0; ROWS], ROWS, 1, PAR_MIN_WORK, |_, _| {
                        if std::thread::current().id() == caller {
                            panicked_here.store(true, Ordering::Relaxed);
                            panic!("a block panics");
                        }
                    });
                }));
                assert!(region.is_err() || !panicked_here.load(Ordering::Relaxed));
                if panicked_here.load(Ordering::Relaxed) {
                    break;
                }
            }
            assert!(panicked_here.into_inner(), "no block ran on the caller");
            assert_eq!(blocks_of_a_region(), dispatched);
        });
    }

    #[test]
    fn tasks_return_results_in_input_order() {
        for threads in [1, 2, 3] {
            with_threads(threads, || {
                // Uneven work, so later items can finish first.
                let got = tasks((0..40u64).collect(), |i| {
                    std::hint::black_box((0..(40 - i) * 2_000).sum::<u64>());
                    i
                });
                assert_eq!(got, (0..40).collect::<Vec<_>>(), "{threads} threads");
            });
        }
    }

    #[test]
    fn a_kernel_region_inside_a_task_runs_as_one_block() {
        with_threads(2, || {
            let per_task = tasks(vec![(); 8], |()| blocks_of_a_region());
            assert_eq!(per_task, vec![1; 8]);
            // Nested calls run inline and keep the rule.
            let nested = tasks(vec![(); 3], |()| {
                tasks(vec![(); 2], |()| blocks_of_a_region())
            });
            assert_eq!(nested, vec![vec![1, 1]; 3]);
            // A lone item is no region: its kernels dispatch their own.
            let lone = tasks(vec![()], |()| blocks_of_a_region());
            assert_eq!(lone, vec![ROWS.div_ceil(det_chunk_len(ROWS))]);
        });
    }

    #[test]
    fn a_panicking_task_reaches_the_caller() {
        for threads in [1, 2, 3] {
            with_threads(threads, || {
                let ran = AtomicUsize::new(0);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    tasks((0..6).collect(), |i: usize| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        assert_ne!(i, 4, "task {i} fails");
                        i
                    })
                }));
                let payload = outcome.expect_err("the panic was swallowed");
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(message.contains("task 4 fails"), "{message}");
                // On the pool every task runs before the panic is re-raised.
                if threads > 1 {
                    assert_eq!(ran.into_inner(), 6);
                }
            });
        }
    }

    /// A task that panicked on this thread, with the panic caught above the
    /// call, leaves the next region dispatched, not inline for good.
    #[test]
    fn a_caught_task_panic_leaves_the_thread_dispatching() {
        with_threads(2, || {
            let dispatched = blocks_of_a_region();
            let caller = std::thread::current().id();
            let panicked_here = AtomicBool::new(false);
            for _ in 0..100 {
                let call = catch_unwind(AssertUnwindSafe(|| {
                    tasks(vec![(); 4], |()| {
                        if std::thread::current().id() == caller {
                            panicked_here.store(true, Ordering::Relaxed);
                            panic!("a task panics");
                        }
                    })
                }));
                assert!(call.is_err() || !panicked_here.load(Ordering::Relaxed));
                if panicked_here.load(Ordering::Relaxed) {
                    break;
                }
            }
            assert!(panicked_here.into_inner(), "no task ran on the caller");
            assert_eq!(blocks_of_a_region(), dispatched);
            assert_eq!(tasks(vec![(); 2], |()| blocks_of_a_region()), vec![1, 1]);
        });
    }

    /// Batch-norm's paired region obeys the same rule: dispatched at the top
    /// level, inline inside a block.
    #[test]
    fn a_paired_region_runs_inline_inside_a_block() {
        with_threads(2, || {
            let pair_blocks = || {
                let calls = AtomicUsize::new(0);
                let (mut a, mut b) = ([0.0; ROWS], [0.0; ROWS]);
                row_blocks_pair(&mut a, &mut b, ROWS, 1, 1, PAR_MIN_WORK, |_, _, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                });
                calls.into_inner()
            };
            assert_eq!(pair_blocks(), ROWS.div_ceil(det_chunk_len(ROWS)));
            let nested = AtomicUsize::new(0);
            row_blocks(&mut [0.0; ROWS], ROWS, 1, PAR_MIN_WORK, |_, _| {
                nested.fetch_max(pair_blocks(), Ordering::Relaxed);
            });
            assert_eq!(nested.into_inner(), 1);
        });
    }
}
