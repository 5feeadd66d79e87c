//! # adagp-sweep
//!
//! The declarative experiment-grid engine behind the paper's evaluation
//! surface. Every headline result of ADA-GP (Figures 17–21, Tables 1–5)
//! is a point on one grid — {model × dataset × accelerator design ×
//! dataflow × phase schedule} — and this crate makes that grid a value
//! instead of a convention scattered across `adagp-bench` binaries:
//!
//! * [`grid`] — a [`GridSpec`] declares axes; expansion
//!   yields [`CellSpec`]s with **stable, content-derived
//!   IDs** (FNV-1a over the cell's canonical key), so the same cell keeps
//!   the same identity across runs, machines and PRs.
//! * [`shapes`] — the single, memoized source of paper-scale layer shapes
//!   per (model, input scale); the bench harness shares it instead of
//!   re-deriving shapes per figure.
//! * [`runner`] — executes cells in parallel on the shared
//!   `adagp-runtime` pool (`parallel_map`, so result order is the
//!   deterministic expansion order) with per-cell wall timing.
//! * [`simeval`] — the sim-backed evaluator: each cell also runs through
//!   the `adagp-sim` discrete-event simulator, contributing the
//!   `sim_cycles` / `pe_utilization` / `overlap_efficiency` metrics and
//!   the batch-level detail view behind the `sweep sim` subcommand.
//! * [`store`] — the one stored form of a cell
//!   ([`StoredCell`]) with one encoder and one
//!   decoder per format: byte-stable CSV (fixed-precision floats, no
//!   timing columns) and JSON (full precision + timing), rendered to a
//!   string or streamed to a file in bounded memory — the same bytes
//!   either way — and loaded back through one validation.
//! * [`shardlog`] — append-only, shard-per-worker NDJSON result logs
//!   with fsync'd record boundaries: crash-safe resumable execution
//!   (`--shard k/n`), a torn-tail-tolerant loader, and a deterministic
//!   last-write-wins merge that reconstructs the byte-stable CSV/JSON
//!   of an uninterrupted run.
//! * [`diff`] — compares two stored runs cell-by-cell with configurable
//!   tolerances and classifies regressions/improvements — the cross-PR
//!   trajectory tracker ROADMAP asked for.
//! * [`roofline`] — the bandwidth-roofline analysis: per cell, the
//!   smallest DRAM bandwidth within 1% of the contention-free training
//!   cycles (the *knee*), found by binary search on the simulator's
//!   monotone bandwidth→makespan curve — every probe a replay of the
//!   cell's already-compiled batch graphs — and memoized across
//!   bandwidth-axis siblings.
//! * [`presets`] — the named grids the `sweep` CLI exposes (`fig17-ws`,
//!   `fig18-rs`, `fig19-is`, `energy`, `dataflows`, `schedules`,
//!   `bandwidth`, `bandwidth-smoke`, `roofline`, `smoke`).
//!
//! ## Example
//!
//! ```
//! use adagp_sweep::{diff, presets, runner, store};
//!
//! let grid = presets::by_name("smoke").expect("known preset");
//! let run = runner::run_grid(&grid);
//! assert_eq!(run.cells.len(), grid.cell_count());
//!
//! // Two identical runs diff clean.
//! let a = store::StoredRun::from_run(&run);
//! let b = store::StoredRun::from_run(&runner::run_grid(&grid));
//! let report = diff::diff_runs(&a, &b, &diff::DiffConfig::default());
//! assert!(!report.has_regressions());
//! ```

pub mod diff;
pub mod grid;
pub mod presets;
pub mod roofline;
pub mod runner;
pub mod shapes;
pub mod shardlog;
pub mod simeval;
pub mod store;

pub use diff::{diff_runs, DiffConfig, DiffReport};
pub use grid::{CellSpec, DatasetScale, GridSpec, PhaseSchedule, Shard};
pub use roofline::{
    cell_knee, cell_roofline, roofline_csv, run_roofline_grid, KneeMemoKey, RooflinePoint,
};
pub use runner::{evaluate_cell, evaluate_cells, run_grid, CellMetrics, CellResult, SweepRun};
pub use shardlog::{
    load_shard, merge_dir, merge_to_run, run_sharded, shard_file_name, MergedRun, ShardLoad,
    ShardRunStats, ShardWriter, SkippedSpan,
};
pub use simeval::{cell_sim_config, run_sim_grid, sim_detail_csv, simulate_cell, SimCellDetail};
pub use store::{
    metrics_to_array, stored_csv_string, stored_json_string, write_run_file, RunFormat, StoredCell,
    StoredRun,
};
