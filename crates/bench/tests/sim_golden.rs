//! Golden gates for the discrete-event simulator:
//!
//! 1. With contention disabled, the simulator reproduces the analytic
//!    `training_speedup` ratios over the **full fig17 grid** bit-for-bit
//!    — every cell, every design, every dataset. This pins the sim's
//!    schedule graphs to the paper's closed forms.
//! 2. The sim smoke-grid CSV is byte-identical to the committed golden
//!    (`testdata/sim_smoke_golden.csv`) and byte-stable across shared-pool
//!    thread counts. `sweep_cli.rs::sweep_sim_subcommand_runs_the_smoke_grid`
//!    compares the `sweep sim smoke --csv` file with the same golden.

use adagp_sim::SimConfig;
use adagp_sweep::{presets, runner, simeval};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/sim_smoke_golden.csv")
}

#[test]
fn no_contention_sim_reproduces_fig17_speedups_bit_for_bit() {
    let grid = presets::speedup_figure(adagp_accel::Dataflow::WeightStationary);
    let run = runner::run_grid(&grid);
    assert_eq!(run.cells.len(), 117);
    let cfg = SimConfig::no_contention();
    for cell in &run.cells {
        let sim = simeval::simulate_cell(&cell.spec, &cfg);
        assert_eq!(
            sim.sim_speedup.to_bits(),
            cell.metrics.speedup.to_bits(),
            "{}: simulated {} vs analytic {}",
            cell.spec.key(),
            sim.sim_speedup,
            cell.metrics.speedup
        );
    }
}

#[test]
fn sim_smoke_csv_matches_committed_golden_bytes() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed sim golden CSV");
    let fresh = simeval::sim_detail_csv(&simeval::run_sim_grid(
        &presets::smoke(),
        &SimConfig::default(),
    ));
    assert_eq!(
        fresh, golden,
        "sim smoke CSV drifted from testdata/sim_smoke_golden.csv; if the \
         simulator changed intentionally, regenerate it with \
         `cargo run --release -p adagp-bench --bin sweep -- sim smoke --quiet \
         --csv crates/bench/testdata/sim_smoke_golden.csv` and explain the \
         delta in the PR"
    );
}

#[test]
fn sim_smoke_csv_is_byte_stable_across_thread_counts() {
    let grid = presets::smoke();
    let cfg = SimConfig::default();
    let reference = adagp_runtime::with_threads(1, || {
        simeval::sim_detail_csv(&simeval::run_sim_grid(&grid, &cfg))
    });
    for threads in [2, 4] {
        let got = adagp_runtime::with_threads(threads, || {
            simeval::sim_detail_csv(&simeval::run_sim_grid(&grid, &cfg))
        });
        assert_eq!(got, reference, "ADAGP_THREADS={threads}");
    }
    let golden = std::fs::read_to_string(golden_path()).expect("committed sim golden CSV");
    assert_eq!(reference, golden);
}
