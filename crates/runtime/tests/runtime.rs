//! Integration tests of the runtime's determinism and pipelining
//! contracts, exercised the way the tensor kernels and trainer use them.

use adagp_runtime::{det_chunk_len, with_threads, BoundedQueue, PipelineStats, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// A toy "kernel" in the style of the tensor crate: each output row is
/// produced by exactly one chunk, with serial FP order within the row.
fn toy_kernel(rows: usize, cols: usize, pool: &ThreadPool) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    let chunk_rows = det_chunk_len(rows);
    pool.parallel_chunks(&mut out, chunk_rows * cols, |ci, slice| {
        for (r, row) in slice.chunks_mut(cols).enumerate() {
            let row_idx = ci * chunk_rows + r;
            let mut acc = 0.1f32;
            for (c, v) in row.iter_mut().enumerate() {
                // Deliberately non-associative accumulation.
                acc = acc * 1.000_1 + (row_idx * cols + c) as f32 * 1e-3;
                *v = acc;
            }
        }
    });
    out
}

#[test]
fn results_bit_identical_across_pool_sizes() {
    let reference = toy_kernel(97, 13, &ThreadPool::new(1));
    for threads in [2, 3, 4, 7] {
        let got = toy_kernel(97, 13, &ThreadPool::new(threads));
        assert_eq!(
            reference, got,
            "pool size {threads} diverged from the scalar reference"
        );
    }
}

#[test]
fn with_threads_gates_the_active_pool() {
    let reference = with_threads(1, || toy_kernel(40, 7, &adagp_runtime::pool()));
    for threads in [2, 4, 7] {
        let got = with_threads(threads, || toy_kernel(40, 7, &adagp_runtime::pool()));
        assert_eq!(reference, got, "threads={threads}");
    }
}

#[test]
fn producer_consumer_pipeline_delivers_everything_in_order() {
    let q: BoundedQueue<usize> = BoundedQueue::new(3);
    let stats = PipelineStats::new(&["produce", "consume"]);
    let consumed = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..50 {
                let item = stats.stage(0).busy(|| i * i);
                if q.push(item).is_err() {
                    break;
                }
            }
            q.close();
        });
        let mut got = Vec::new();
        while let Some(v) = stats.stage(1).idle(|| q.pop()) {
            stats.stage(1).busy(|| got.push(v));
        }
        got
    });
    assert_eq!(consumed, (0..50).map(|i| i * i).collect::<Vec<_>>());
    let reports = stats.reports();
    assert_eq!(reports[0].items, 50);
    assert_eq!(reports[1].items, 50);
}

#[test]
fn parallel_for_covers_every_index_once() {
    let pool = ThreadPool::new(4);
    let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for(hits.len(), det_chunk_len(hits.len()), |range| {
        for i in range {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn close_unblocks_a_producer_stuck_on_a_full_queue() {
    // The queue is full and a producer is blocked inside `push`; closing
    // must wake it and hand the unsent item back (the pipelined trainer
    // relies on this for clean shutdown mid-epoch).
    let q: BoundedQueue<u8> = BoundedQueue::new(1);
    q.push(1).unwrap();
    std::thread::scope(|s| {
        let blocked = s.spawn(|| q.push(2));
        // Give the producer time to block on the bound.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!blocked.is_finished(), "push must block while full");
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(2), "item comes back on close");
    });
    // The queued item survives the close and drains normally.
    assert_eq!(q.pop(), Some(1));
    assert_eq!(q.pop(), None);
}

#[test]
fn parallel_map_handles_empty_and_singleton_inputs() {
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        let empty: Vec<u32> = pool.parallel_map(Vec::new(), |x: u32| x + 1);
        assert!(empty.is_empty(), "threads={threads}");
        let one = pool.parallel_map(vec![41u32], |x| x + 1);
        assert_eq!(one, vec![42], "threads={threads}");
    }
}

#[test]
fn kernels_remain_deterministic_inside_pool_workers() {
    // Nested use: a parallel region whose tasks themselves run the toy
    // kernel (the pipelined trainer's predictor thread does exactly this).
    let pool = ThreadPool::new(4);
    let reference = toy_kernel(31, 9, &ThreadPool::new(1));
    let results = pool.parallel_map(vec![(); 8], |()| toy_kernel(31, 9, &adagp_runtime::pool()));
    for r in results {
        assert_eq!(reference, r);
    }
}

// ---------------------------------------------------------------------------
// Stress battery: seeded trees of nested `parallel_*` regions on the global
// pool (sized by ADAGP_THREADS), whose tasks write borrowed slices and some
// of which panic. What `scope_run`'s SAFETY comment promises is checked
// here: no task runs after its region has returned, panicking or not.
// ---------------------------------------------------------------------------

/// The payload of a planned panic; the panic hook stays quiet for it.
const PLANNED: &str = "planned stress-test panic";

fn quiet_planned_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&PLANNED) {
                default(info);
            }
        }));
    });
}

/// SplitMix64: the battery's seeded source of shapes.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The value a leaf writes at global index `i` (never 0, the fill).
fn cell(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

#[derive(Debug, Clone, Copy)]
enum Helper {
    For,
    Chunks,
    Pair,
    Map,
    Scope,
}

/// One region over a slice: the helper that splits it, the chunk length,
/// the chunk (if any) whose task panics after writing, and per chunk the
/// nested region its task runs instead of writing.
#[derive(Debug)]
struct Region {
    helper: Helper,
    chunk: usize,
    panics: Option<usize>,
    nested: Vec<Option<Region>>,
}

impl Region {
    fn draw(rng: &mut SplitMix, len: usize, depth: usize) -> Region {
        let helper = [
            Helper::For,
            Helper::Chunks,
            Helper::Pair,
            Helper::Map,
            Helper::Scope,
        ][rng.below(5)];
        let mut chunk = 1 + rng.below(len.div_ceil(2));
        if let Helper::Map = helper {
            // At most 32 items, so each is a task of its own: a panicking
            // item ends the rest of its task's items, by design.
            chunk = chunk.max(len.div_ceil(32));
        }
        let chunks = len.div_ceil(chunk);
        let panics = (rng.below(4) == 0).then(|| rng.below(chunks));
        let nested = (0..chunks)
            .map(|ci| {
                let piece = chunk.min(len - ci * chunk);
                (depth > 0 && piece > 1 && rng.below(3) == 0)
                    .then(|| Region::draw(rng, piece, depth - 1))
            })
            .collect();
        Region {
            helper,
            chunk,
            panics,
            nested,
        }
    }

    fn panics_anywhere(&self) -> bool {
        self.panics.is_some() || self.nested.iter().flatten().any(Region::panics_anywhere)
    }

    /// Runs the region over `out`, whose first element is global index `at`.
    fn run(&self, out: &mut [u64], at: usize, live: &AtomicUsize) {
        let pool = adagp_runtime::pool();
        let chunk = self.chunk;
        let task = |ci: usize, piece: &mut [u64]| self.task(ci, piece, at + ci * chunk, live);
        match self.helper {
            Helper::Chunks => pool.parallel_chunks(out, chunk, task),
            Helper::Pair => {
                let mut mirror = vec![0u8; out.len()];
                pool.parallel_chunks_pair(out, &mut mirror, chunk, chunk, |ci, piece, m| {
                    m.fill(1);
                    task(ci, piece);
                });
                assert!(
                    mirror.iter().all(|&m| m == 1),
                    "pair: a chunk of b unvisited"
                );
            }
            Helper::Map => {
                let pieces: Vec<_> = out.chunks_mut(chunk).enumerate().collect();
                let done = pool.parallel_map(pieces, |(ci, piece)| {
                    task(ci, piece);
                    ci
                });
                assert_eq!(done, (0..done.len()).collect::<Vec<_>>(), "map: order");
            }
            Helper::For => {
                let pieces: Vec<_> = out.chunks_mut(chunk).map(Mutex::new).collect();
                pool.parallel_for(pieces.len(), 1, |range| {
                    for ci in range {
                        let mut piece = pieces[ci].lock().unwrap_or_else(|e| e.into_inner());
                        task(ci, &mut piece);
                    }
                });
            }
            Helper::Scope => {
                let task = &task;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(ci, piece)| Box::new(move || task(ci, piece)) as Box<_>)
                    .collect();
                pool.scope_run(tasks);
            }
        }
    }

    /// Chunk `ci`'s task: its nested region, or the leaf's writes, then the
    /// planned panic. `live` counts tasks running.
    fn task(&self, ci: usize, piece: &mut [u64], at: usize, live: &AtomicUsize) {
        struct Running<'a>(&'a AtomicUsize);
        impl Drop for Running<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        live.fetch_add(1, Ordering::SeqCst);
        let _running = Running(live);
        match &self.nested[ci] {
            Some(region) => region.run(piece, at, live),
            None => {
                for (i, v) in piece.iter_mut().enumerate() {
                    *v = cell(at + i);
                }
            }
        }
        if self.panics == Some(ci) {
            std::panic::panic_any(PLANNED);
        }
    }
}

/// Every task of a region — siblings of a panicking task and the tasks of
/// nested regions included — has finished when the region returns: every
/// leaf wrote its whole slice, no task is still running, a planned panic
/// reaches the caller and nothing else does. Afterwards the pool still
/// computes the toy kernel's bytes (no worker died with a task).
#[test]
fn stress_nested_regions_and_panicking_tasks() {
    quiet_planned_panics();
    let mut rng = SplitMix(0x5eed_2026);
    let (mut planned, mut clean) = (0, 0);
    for case in 0..300 {
        let len = 1 + rng.below(160);
        let region = Region::draw(&mut rng, len, 3);
        let live = AtomicUsize::new(0);
        let mut out = vec![0u64; len];
        let result = catch_unwind(AssertUnwindSafe(|| region.run(&mut out, 0, &live)));
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "case {case}: a task outlived its region"
        );
        match result {
            Ok(()) => {
                assert!(
                    !region.panics_anywhere(),
                    "case {case}: a planned panic was lost"
                );
                clean += 1;
            }
            Err(payload) => {
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&PLANNED),
                    "case {case}"
                );
                assert!(region.panics_anywhere(), "case {case}: an unplanned panic");
                planned += 1;
            }
        }
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, cell(i), "case {case}: element {i} of {len}, {region:?}");
        }
    }
    assert!(
        planned > 30 && clean > 30,
        "{planned} panicking, {clean} clean cases"
    );
    let pool = adagp_runtime::pool();
    assert_eq!(
        toy_kernel(97, 13, &pool),
        toy_kernel(97, 13, &ThreadPool::new(1))
    );
}
