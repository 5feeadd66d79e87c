//! Golden gate for the discrete-event simulator: with contention
//! disabled, it reproduces the analytic closed forms over the **full
//! fig17 grid** bit-for-bit — every cell, every design, every dataset.
//! This pins the sim's schedule graphs to the paper's closed forms, twice:
//!
//! * the independent reference, [`adagp_sim::StepSim::run`] (baseline,
//!   BP and GP batches built fresh), gives the analytic
//!   `training_speedup`;
//! * the run path's simulated half, `simeval::simulate_cell` (the same
//!   compiled BP / GP set `evaluate_cell` replays), gives the analytic
//!   `adagp_cycles`.
//!
//! With contention on, `simulate_cell`'s four columns over the smoke and
//! bandwidth-smoke grids are byte-identical to the same columns of the
//! committed run goldens (`testdata/sweep_smoke_golden.csv`,
//! `testdata/bandwidth_smoke_golden.csv`), at any shared-pool thread
//! count.

use adagp_accel::layer_cost::PredictorCostModel;
use adagp_accel::AcceleratorConfig;
use adagp_sim::{model_sim_layers, SimConfig, StepSim};
use adagp_sweep::grid::GridSpec;
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::store::csv_float;
use adagp_sweep::{presets, runner, simeval};

/// The simulated columns, in the run CSV's order, after the cell id.
const SIM_COLUMNS: [&str; 5] = [
    "id",
    "sim_cycles",
    "pe_utilization",
    "overlap_efficiency",
    "spill_cycles",
];

/// `SIM_COLUMNS` of a committed run golden, header included.
fn golden_sim_columns(file: &str) -> String {
    let path = format!("{}/testdata/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed golden CSV");
    let header: Vec<&str> = text.lines().next().expect("header").split(',').collect();
    let at: Vec<usize> = SIM_COLUMNS
        .iter()
        .map(|c| header.iter().position(|h| h == c).expect("column"))
        .collect();
    text.lines()
        .map(|l| {
            let fields: Vec<&str> = l.split(',').collect();
            let row: Vec<&str> = at.iter().map(|&i| fields[i]).collect();
            row.join(",") + "\n"
        })
        .collect()
}

/// `simulate_cell` under the default (contention-on) config over `grid`,
/// on the shared pool, as `SIM_COLUMNS` CSV.
fn sim_csv(grid: &GridSpec) -> String {
    let rows = adagp_runtime::pool().parallel_map(grid.expand(), |spec| {
        let d = simeval::simulate_cell(&spec, &SimConfig::default());
        format!(
            "{},{},{},{},{}\n",
            spec.id,
            csv_float(d.sim_cycles),
            csv_float(d.pe_utilization),
            csv_float(d.overlap_efficiency),
            csv_float(d.spill_cycles),
        )
    });
    SIM_COLUMNS.join(",") + "\n" + &rows.concat()
}

#[test]
fn no_contention_sim_reproduces_fig17_speedups_bit_for_bit() {
    let grid = presets::speedup_figure(adagp_accel::Dataflow::WeightStationary);
    let run = runner::run_grid(&grid);
    assert_eq!(run.cells.len(), 117);
    let cfg = SimConfig::no_contention();
    for cell in &run.cells {
        let spec = &cell.spec;
        let layers = model_sim_layers(
            &AcceleratorConfig::default(),
            spec.dataflow,
            &PredictorCostModel::default(),
            &cached_shapes(spec.model, spec.dataset.input_scale()),
            &cfg,
        );
        let step = StepSim::run(spec.design, &layers, &spec.schedule.mix(), &cfg);
        assert_eq!(
            step.training_speedup().to_bits(),
            cell.metrics.speedup.to_bits(),
            "{}: simulated {} vs analytic {}",
            spec.key(),
            step.training_speedup(),
            cell.metrics.speedup
        );
        let sim = simeval::simulate_cell(spec, &cfg);
        assert_eq!(
            sim.sim_cycles.to_bits(),
            cell.metrics.adagp_cycles.to_bits(),
            "{}: simulated {} vs analytic {} cycles",
            spec.key(),
            sim.sim_cycles,
            cell.metrics.adagp_cycles
        );
    }
}

#[test]
fn sim_smoke_csv_matches_committed_golden_bytes() {
    for (grid, file) in [
        (presets::smoke(), "sweep_smoke_golden.csv"),
        (presets::bandwidth_smoke(), "bandwidth_smoke_golden.csv"),
    ] {
        assert_eq!(
            sim_csv(&grid),
            golden_sim_columns(file),
            "simulate_cell drifted from the simulated columns of testdata/{file}"
        );
    }
}

#[test]
fn sim_smoke_csv_is_byte_stable_across_thread_counts() {
    let grid = presets::smoke();
    let reference = adagp_runtime::with_threads(1, || sim_csv(&grid));
    for threads in [2, 4] {
        let got = adagp_runtime::with_threads(threads, || sim_csv(&grid));
        assert_eq!(got, reference, "ADAGP_THREADS={threads}");
    }
    assert_eq!(reference, golden_sim_columns("sweep_smoke_golden.csv"));
}
