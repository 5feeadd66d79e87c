//! # adagp-obs
//!
//! Workspace-wide observability for the ADA-GP reproduction: one crate
//! that spans the stack the way nothing did before it — the runtime
//! pool's task execution, `core`'s pipelined trainer stages, the sweep
//! runner's per-cell evaluations and `adagp-serve`'s request lifecycle
//! all record into the same primitives, and two renderers get the data
//! out:
//!
//! * the flat `name value` text form the serve crate's `/metrics`
//!   endpoint has always spoken, extended with `_bucket`/`_sum`/`_count`
//!   histogram lines ([`metric`], [`mod@registry`]);
//! * a wall-clock Chrome-trace JSON writer ([`trace`]) shape-compatible
//!   with `adagp-sim`'s cycle-domain exporter, so a **measured** training
//!   run and its **simulated** timeline load side-by-side in Perfetto;
//! * a span-tree profiler ([`profile`]) folding the same buffers into
//!   caller→callee trees with self/total micros — rendered as collapsed
//!   stacks (flamegraph-compatible, `ADAGP_PROFILE`) and the JSON tree
//!   `adagp-serve`'s `GET /profile` serves;
//! * the revision label ([`bench::snapshot_label`]) the benchmark
//!   (`benchmark/`, `BENCHMARK.json`) stamps its results files with;
//! * a critical-path and stall-attribution analyzer ([`crit`]) that
//!   walks simulated DAGs along zero-slack edges and folds measured
//!   span lanes into busy/queue-wait/idle segments, emitting one
//!   `adagp-critpath-v1` report shape for both timeline sources.
//!
//! ## Cost model
//!
//! Disabled (the default), every instrumented site pays one relaxed
//! atomic load and a branch. Enabled (`ADAGP_TRACE=<path>`, or
//! [`set_enabled`] in tests), spans go to per-thread bounded lock-free
//! buffers that **drop and count** on overflow ([`recorder`]); metrics
//! are always plain atomics. Observability never perturbs results —
//! `adagp-bench`'s `obs_noperturb` battery proves kernel and sweep
//! outputs bit-identical with tracing on vs off across thread counts.

pub mod bench;
pub mod crit;
pub mod metric;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use crit::{
    analyze_dag, analyze_snapshot, measured_gap_threshold_ns, relabel_lanes_by_cat,
    validate_critpath, BlameEntry, ChainSegment, CritReport, CritStats, CritTask, MeasuredLane,
    QueueWait, Via, CRITPATH_SCHEMA,
};
pub use metric::{bucket_index, bucket_upper, Counter, Gauge, Histogram};
pub use profile::{
    build_profile, profile_guard_from_env, validate_profile, LaneProfile, Profile, ProfileGuard,
    ProfileNode, ProfileStats, PROFILE_ENV, PROFILE_SCHEMA,
};
pub use recorder::{
    enabled, now_ns, record_span, reset, set_enabled, snapshot, span, test_guard, LaneSnapshot,
    SpanRecord, TestGuard, TraceSnapshot,
};
pub use registry::{registry, Registry};
pub use trace::{
    chrome_trace, trace_guard_from_env, validate_chrome_trace, write_trace, TraceEvents,
    TraceGuard, TraceStats, TRACE_ENV,
};
