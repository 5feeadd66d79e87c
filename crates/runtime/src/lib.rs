//! # adagp-runtime
//!
//! The shared parallel runtime of the ADA-GP reproduction: a persistent
//! thread pool with **deterministic** data-parallel helpers, a bounded
//! blocking queue for producer/consumer pipelining, and per-stage busy/idle
//! instrumentation.
//!
//! ADA-GP's speed-up comes from overlapping predictor work with the forward
//! pass (§3.4 of the paper). Reproducing that on a CPU needs two things this
//! crate provides: parallel tensor kernels (built on [`ThreadPool`]) and a
//! pipelined training loop (built on [`BoundedQueue`] + [`WaitGroup`]).
//!
//! ## Determinism contract
//!
//! Every `parallel_*` helper splits work at **fixed chunk boundaries**
//! derived only from the problem size ([`det_chunk_len`]), and each chunk
//! writes exactly one disjoint output slice. Kernels built on these helpers
//! keep the per-element floating-point operation order of their scalar
//! reference, so results are **bit-identical for every thread count** —
//! `ADAGP_THREADS=1` and `ADAGP_THREADS=7` produce the same bytes.
//!
//! ## Pool sizing
//!
//! The global pool ([`fn@pool`]) is created on first use with
//! `ADAGP_THREADS` total threads (default: available parallelism). The
//! calling thread participates in every parallel region, so a pool of size
//! `k` spawns `k - 1` workers and `ADAGP_THREADS=1` is exactly the serial
//! scalar path. Tests sweep thread counts with [`with_threads`].
//!
//! ```
//! use adagp_runtime::{det_chunk_len, pool};
//! let mut out = vec![0.0f32; 1000];
//! let chunk = det_chunk_len(out.len());
//! pool().parallel_chunks(&mut out, chunk, |i, slice| {
//!     for (j, v) in slice.iter_mut().enumerate() {
//!         *v = (i * chunk + j) as f32;
//!     }
//! });
//! assert_eq!(out[999], 999.0);
//! ```

pub mod pool;
pub mod queue;
pub mod stats;

pub use pool::{det_chunk_len, pool, with_threads, ThreadPool, THREADS_ENV};
pub use queue::{BoundedQueue, TryPushError, WaitGroup};
pub use stats::{PipelineStats, Stage, StageReport};
