//! # adagp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! ADA-GP paper's evaluation (§6). The `paper` binary (`src/bin/paper/`)
//! prints the rows/series of one paper artifact per invocation; this
//! library holds the shared experiment logic so integration tests can
//! exercise the same code with reduced budgets. The crate's other
//! binaries are the `sweep`, `serve`, `critpath` and `obs_check` CLIs;
//! [`cli`] holds the simulator flags `critpath sim` and
//! `sweep sim` share, and [`stage_pipeline`] the measured-vs-sim harness
//! behind `critpath measured` and `critpath diff`.
//!
//! Run e.g. `cargo run -p adagp-bench --release --bin paper --
//! fig17_ws_speedup` (`paper list` names every artifact). Set
//! `ADAGP_FULL=1` for the slower, higher-fidelity training budgets.

pub mod accuracy;
pub mod cli;
pub mod detection;
pub mod model_grid;
pub mod report;
pub mod speedup_tables;
pub mod stage_pipeline;
pub mod translation;

/// Whether the harness should use the full (slow) experiment budget.
pub fn full_budget() -> bool {
    std::env::var("ADAGP_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}
