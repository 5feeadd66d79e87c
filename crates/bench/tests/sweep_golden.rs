//! Golden-file gates for the sweep engine:
//!
//! 1. The `smoke` preset's CSV must be byte-identical to the committed
//!    golden file — grid expansion, cell IDs, metric math and CSV
//!    formatting cannot drift silently.
//! 2. `sweep diff` of two identical runs reports zero regressions, and a
//!    perturbed run is flagged.
//! 3. The fig17 preset reproduces, bit-exactly, the per-model speed-up
//!    numbers the standalone figure binaries computed before the engine
//!    existed (direct `adagp_accel::speedup::training_speedup` calls).

use adagp_accel::speedup::{training_speedup, EpochMix};
use adagp_accel::{AcceleratorConfig, Dataflow};
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::{diff, presets, runner, store, DiffConfig, StoredRun};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/sweep_smoke_golden.csv")
}

#[test]
fn smoke_csv_matches_committed_golden_bytes() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden CSV");
    let fresh = store::to_csv_string(&runner::run_grid(&presets::smoke()));
    assert_eq!(
        fresh, golden,
        "smoke sweep CSV drifted from testdata/sweep_smoke_golden.csv; if the \
         cycle/energy model changed intentionally, regenerate it with \
         `cargo run -p adagp-bench --bin sweep -- run smoke --csv \
         crates/bench/testdata/sweep_smoke_golden.csv` and explain the delta \
         in the PR"
    );
}

#[test]
fn identical_runs_diff_clean_and_perturbed_runs_are_flagged() {
    let golden = StoredRun::load(&golden_path()).expect("golden loads");
    let fresh = StoredRun::from_run(&runner::run_grid(&presets::smoke()));
    let clean = diff::diff_runs(&golden, &fresh, &DiffConfig::default());
    assert!(!clean.has_regressions(), "{}", clean.render());
    assert!(clean.improvements.is_empty(), "{}", clean.render());
    assert_eq!(clean.matched_cells, 4);

    // Perturb one speed-up downward: must be reported as a regression.
    let mut perturbed = fresh.clone();
    perturbed.cells[0].metrics[0] *= 0.95;
    let report = diff::diff_runs(&golden, &perturbed, &DiffConfig::default());
    assert!(report.has_regressions());
    assert_eq!(report.regressions.len(), 1);
    assert_eq!(report.regressions[0].metric.name, "speedup");
}

#[test]
fn fig17_preset_reproduces_the_standalone_binary_numbers() {
    // The pre-engine fig17 binary computed, per (dataset, model, design),
    // training_speedup(default cfg, WS, design, model_shapes, paper mix).
    // The engine must produce the same f64s, bit for bit.
    let run = runner::run_grid(&presets::speedup_figure(Dataflow::WeightStationary));
    assert_eq!(run.cells.len(), 117);
    let cfg = AcceleratorConfig::default();
    let mix = EpochMix::paper();
    for cell in &run.cells {
        let layers = cached_shapes(cell.spec.model, cell.spec.dataset.input_scale());
        let expected = training_speedup(
            &cfg,
            Dataflow::WeightStationary,
            cell.spec.design,
            &layers,
            &mix,
        );
        assert_eq!(
            cell.metrics.speedup.to_bits(),
            expected.to_bits(),
            "{}: engine {} vs direct {}",
            cell.spec.key(),
            cell.metrics.speedup,
            expected
        );
    }
}
