//! A persistent shared thread pool with *deterministic* data-parallel
//! helpers.
//!
//! Design constraints (dictated by the tensor kernels built on top):
//!
//! * **Determinism** — [`ThreadPool::parallel_chunks`] splits the output
//!   buffer at fixed boundaries chosen by the *caller* (never by the pool
//!   size), and every chunk is produced by exactly one task that owns its
//!   output slice. Which worker runs which chunk is scheduling noise; the
//!   bytes written are not. No atomics or reductions run on the hot path.
//! * **No oversubscription** — a pool of size `k` spawns `k - 1` workers;
//!   the thread calling a `parallel_*` helper participates in executing
//!   queued chunks. A pool of size 1 therefore runs everything inline,
//!   which doubles as the scalar reference path.
//! * **Offline-friendly** — `std` only: a `Mutex<VecDeque>` job queue and a
//!   `Condvar`, no external dependencies.

use adagp_obs as obs;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Tasks executed through [`ThreadPool::scope_run`] (global metric,
/// always on — one atomic add per task, never per element).
fn tasks_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("runtime_pool_tasks_total"))
}

/// Microseconds a queued task waited before a worker picked it up.
/// Recorded only while tracing is enabled (the wait requires an extra
/// clock read at enqueue time).
fn queue_wait_us() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::registry().histogram("runtime_pool_queue_wait_us"))
}

/// Environment variable controlling the size of the global pool (total
/// threads, including the caller). Unset, unparsable or `0` falls back to
/// [`std::thread::available_parallelism`].
pub const THREADS_ENV: &str = "ADAGP_THREADS";

/// Upper bound on the number of chunks a `parallel_*` call creates. Fixed
/// (never derived from the pool size) so chunk boundaries — and therefore
/// results — are identical for every `ADAGP_THREADS`.
const MAX_CHUNKS: usize = 32;

/// Deterministic chunk length for `items` work items: depends only on
/// `items`, targeting at most `MAX_CHUNKS` chunks.
///
/// ```
/// use adagp_runtime::det_chunk_len;
/// assert_eq!(det_chunk_len(10), 1);   // fewer items than chunks
/// assert_eq!(det_chunk_len(64), 2);
/// assert_eq!(det_chunk_len(0), 1);    // degenerate input stays positive
/// ```
pub fn det_chunk_len(items: usize) -> usize {
    items.div_ceil(MAX_CHUNKS).max(1)
}

type Job = Box<dyn FnOnce() + Send>;

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    ready: Condvar,
}

/// Tracks outstanding tasks of one [`ThreadPool::scope_run`] call and holds
/// the first panic payload until the caller can resume it.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut s = self.state.lock().unwrap();
        s.remaining -= 1;
        if s.panic.is_none() {
            s.panic = panic;
        }
        if s.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().unwrap().remaining == 0
    }

    /// Blocks until every task completed, then returns the first panic.
    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut s = self.state.lock().unwrap();
        while s.remaining > 0 {
            s = self.done.wait(s).unwrap();
        }
        s.panic.take()
    }
}

/// A persistent pool of worker threads executing scoped, borrowing tasks.
///
/// Most callers want [`pool`] (the process-wide shared instance) rather
/// than constructing their own.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool(size={})", self.size)
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(j) = q.jobs.pop_front() {
                    break Some(j);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        match job {
            Some(j) => j(),
            None => return,
        }
    }
}

/// Parses a `ADAGP_THREADS`-style value; `None` means "use the default".
fn threads_from_str(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ThreadPool {
    /// Creates a pool of `size` total threads (`size - 1` workers plus the
    /// calling thread, which participates in every `parallel_*` call).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "thread pool size must be positive");
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (1..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("adagp-runtime-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            size,
        }
    }

    /// Total threads (workers + the participating caller).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs every task to completion on the pool's workers and the calling
    /// thread, blocking until all of them finish. Tasks may borrow from the
    /// caller's stack.
    ///
    /// # Panics
    ///
    /// If a task panics, the first payload is re-raised on the caller after
    /// all remaining tasks have completed (no task is abandoned mid-borrow),
    /// at every pool size: run inline, the tasks after a panicking one still
    /// run, as they would on workers.
    pub fn scope_run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.len() <= 1 || self.size == 1 {
            let mut first_panic = None;
            for (i, t) in tasks.into_iter().enumerate() {
                tasks_counter().inc();
                let span = || obs::span("pool", || format!("task {i} (inline)"), t);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(span)) {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        {
            let mut q = self.shared.queue.lock().unwrap();
            for (i, task) in tasks.into_iter().enumerate() {
                let latch = Arc::clone(&latch);
                // Only pay the enqueue clock read while tracing.
                let enqueue_ns = if obs::enabled() { obs::now_ns() } else { 0 };
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    tasks_counter().inc();
                    let traced = obs::enabled();
                    let start_ns = if traced {
                        let start_ns = obs::now_ns();
                        queue_wait_us().record(start_ns.saturating_sub(enqueue_ns) / 1_000);
                        start_ns
                    } else {
                        0
                    };
                    let result = catch_unwind(AssertUnwindSafe(task));
                    if traced {
                        obs::record_span("pool", format!("task {i}"), start_ns, obs::now_ns());
                    }
                    latch.complete(result.err());
                });
                // SAFETY: `scope_run` does not return before the latch has
                // counted every task down, so borrows captured by `task`
                // strictly outlive every execution of `job`. The transmute
                // only erases the `'env` lifetime; the layout of a boxed
                // trait object is lifetime-independent.
                let job: Job = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'env>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(job)
                };
                q.jobs.push_back(job);
            }
            self.shared.ready.notify_all();
        }
        // The caller helps drain the queue instead of blocking idle. It may
        // execute chunks belonging to a concurrent scope; that is harmless —
        // every job is self-contained and reports to its own latch.
        while !latch.is_done() {
            let job = self.shared.queue.lock().unwrap().jobs.pop_front();
            match job {
                Some(j) => j(),
                None => break,
            }
        }
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
    }

    /// Calls `f(start..end)` over `0..len` split into fixed ranges of
    /// `chunk` indices, in parallel. Chunk boundaries depend only on `len`
    /// and `chunk`, never on the pool size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn parallel_for<F>(&self, len: usize, chunk: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        assert!(chunk > 0, "parallel_for: chunk must be positive");
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..len)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(len);
                Box::new(move || f(start..end)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.scope_run(tasks);
    }

    /// Splits `out` into fixed chunks of `chunk` elements and calls
    /// `f(chunk_index, chunk_slice)` for each in parallel. Each chunk is
    /// written by exactly one task, so the result is independent of the
    /// pool size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn parallel_chunks<T, F>(&self, out: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "parallel_chunks: chunk must be positive");
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, slice)| Box::new(move || f(i, slice)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.scope_run(tasks);
    }

    /// Like [`ThreadPool::parallel_chunks`] but over two output buffers
    /// split in lockstep: chunk `i` of `a` (length `chunk_a`) and chunk `i`
    /// of `b` (length `chunk_b`) are handed to the same task.
    ///
    /// # Panics
    ///
    /// Panics if either chunk length is zero or the buffers do not split
    /// into the same number of chunks.
    pub fn parallel_chunks_pair<T, U, F>(
        &self,
        a: &mut [T],
        b: &mut [U],
        chunk_a: usize,
        chunk_b: usize,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, &mut [T], &mut [U]) + Sync,
    {
        assert!(
            chunk_a > 0 && chunk_b > 0,
            "parallel_chunks_pair: chunks must be positive"
        );
        assert_eq!(
            a.len().div_ceil(chunk_a),
            b.len().div_ceil(chunk_b),
            "parallel_chunks_pair: buffers split into different chunk counts"
        );
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = a
            .chunks_mut(chunk_a)
            .zip(b.chunks_mut(chunk_b))
            .enumerate()
            .map(|(i, (sa, sb))| Box::new(move || f(i, sa, sb)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.scope_run(tasks);
    }

    /// Maps `f` over `items` in parallel, preserving order. Chunking uses
    /// [`det_chunk_len`], so the work split is pool-size independent.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let chunk = det_chunk_len(n);
        // Pair each input with its output slot; chunks own disjoint slots.
        let mut slots: Vec<(Option<T>, &mut Option<R>)> =
            items.into_iter().map(Some).zip(out.iter_mut()).collect();
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .chunks_mut(chunk)
            .map(|chunk_slots| {
                Box::new(move || {
                    for (item, slot) in chunk_slots.iter_mut() {
                        **slot = Some(f(item.take().expect("unconsumed input")));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.scope_run(tasks);
        drop(slots);
        out.into_iter().map(|r| r.expect("mapped slot")).collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();

thread_local! {
    static OVERRIDE: std::cell::RefCell<Vec<Arc<ThreadPool>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The active pool for the calling thread: the innermost
/// [`with_threads`] override if one is installed, otherwise the global
/// pool sized from [`THREADS_ENV`] (default: available parallelism).
pub fn pool() -> Arc<ThreadPool> {
    if let Some(p) = OVERRIDE.with(|o| o.borrow().last().cloned()) {
        return p;
    }
    Arc::clone(GLOBAL.get_or_init(|| {
        let size = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| threads_from_str(&v))
            .unwrap_or_else(default_threads);
        Arc::new(ThreadPool::new(size))
    }))
}

/// Runs `f` with the calling thread's active pool replaced by a fresh pool
/// of `threads` total threads — the hook the thread-count-invariance tests
/// use to sweep `ADAGP_THREADS` values without touching the environment.
/// Overrides nest; the pool is torn down (workers joined) on exit.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(Arc::new(ThreadPool::new(threads))));
    let _guard = Guard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_env_parsing() {
        assert_eq!(threads_from_str("4"), Some(4));
        assert_eq!(threads_from_str(" 7 "), Some(7));
        assert_eq!(threads_from_str("0"), None);
        assert_eq!(threads_from_str("many"), None);
        assert_eq!(threads_from_str(""), None);
    }

    #[test]
    fn det_chunk_len_is_pool_independent() {
        // Pure function of the item count; spot-check the contract.
        for items in [1usize, 31, 32, 33, 1000, 4096] {
            let c = det_chunk_len(items);
            assert!(c >= 1);
            assert!(items.div_ceil(c) <= MAX_CHUNKS);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let p = ThreadPool::new(1);
        let mut out = vec![0usize; 10];
        p.parallel_chunks(&mut out, 3, |i, s| {
            for (j, v) in s.iter_mut().enumerate() {
                *v = i * 3 + j;
            }
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let p = ThreadPool::new(4);
        let out = p.parallel_map((0..100).collect::<Vec<usize>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pair_chunking_validates_counts() {
        let p = ThreadPool::new(2);
        let mut a = vec![0u32; 12];
        let mut b = vec![0u64; 4];
        // 12/3 == 4/1 chunks: ok.
        p.parallel_chunks_pair(&mut a, &mut b, 3, 1, |i, sa, sb| {
            sa.fill(i as u32);
            sb.fill(i as u64);
        });
        assert_eq!(b, vec![0, 1, 2, 3]);
        assert_eq!(a[3..6], [1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "different chunk counts")]
    fn pair_chunking_rejects_mismatch() {
        let p = ThreadPool::new(1);
        let mut a = vec![0u32; 10];
        let mut b = vec![0u32; 3];
        p.parallel_chunks_pair(&mut a, &mut b, 3, 1, |_, _, _| {});
    }

    #[test]
    fn task_panic_propagates() {
        let p = ThreadPool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.parallel_for(8, 1, |r| {
                if r.start == 5 {
                    panic!("boom in chunk");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must stay usable after a panic.
        let mut out = vec![0u8; 4];
        p.parallel_chunks(&mut out, 1, |_, s| s.fill(7));
        assert_eq!(out, vec![7; 4]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let p = Arc::new(ThreadPool::new(3));
        let mut out = vec![0usize; 6];
        let inner_pool = Arc::clone(&p);
        p.parallel_chunks(&mut out, 2, |i, s| {
            let mut local = vec![0usize; 4];
            inner_pool.parallel_chunks(&mut local, 1, |j, t| t.fill(j));
            let sum: usize = local.iter().sum();
            for (j, v) in s.iter_mut().enumerate() {
                *v = i * 10 + j + sum; // sum == 6
            }
        });
        assert_eq!(out, vec![6, 7, 16, 17, 26, 27]);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = pool().size();
        with_threads(2, || {
            assert_eq!(pool().size(), 2);
            with_threads(5, || assert_eq!(pool().size(), 5));
            assert_eq!(pool().size(), 2);
        });
        assert_eq!(pool().size(), outer);
    }
}
