//! Parallel grid execution on the shared `adagp-runtime` pool.
//!
//! Cells are independent evaluations of the analytic cycle/energy models,
//! so they map cleanly onto `ThreadPool::parallel_map`: the work split is
//! deterministic, result order is the grid's expansion order regardless
//! of thread count, and the caller participates (a 1-thread pool runs the
//! sweep inline). Per-cell wall time is recorded for the JSON run record;
//! it never enters the CSV, which must stay byte-stable across runs.

use crate::grid::{CellSpec, GridSpec};
use crate::roofline;
use crate::shapes::cached_shapes;
use crate::simeval::CellGraphs;
use adagp_accel::energy::{adagp_energy_joules, baseline_energy_joules, EnergyConfig};
use adagp_accel::speedup::{adagp_training_cycles, baseline_training_cycles};
use adagp_accel::AcceleratorConfig;
use adagp_obs as obs;
use adagp_sim::SimConfig;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cells evaluated through [`run_grid`] (process-global metric).
fn cells_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("sweep_cells_total"))
}

/// Wall-clock microseconds per cell evaluation.
fn cell_micros_hist() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::registry().histogram("sweep_cell_micros"))
}

/// Per-cell throughput (cells/second, as observed one cell at a time).
fn cells_per_sec_hist() -> &'static Arc<obs::Histogram> {
    static H: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| obs::registry().histogram("sweep_cells_per_sec"))
}

/// The metric values one cell produces. All eleven are deterministic
/// functions of the cell's axis values: five from the closed-form
/// analytic models, six from the discrete-event simulator under the
/// default contention-enabled [`SimConfig`] (with the cell's
/// bandwidth/buffer overrides applied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// End-to-end training speed-up over the baseline (higher is better).
    pub speedup: f64,
    /// Baseline training cycles (lower is better).
    pub baseline_cycles: f64,
    /// ADA-GP training cycles (lower is better).
    pub adagp_cycles: f64,
    /// Baseline off-chip memory energy in joules (lower is better).
    pub baseline_energy_j: f64,
    /// ADA-GP off-chip memory energy in joules (lower is better).
    pub adagp_energy_j: f64,
    /// Simulated ADA-GP training cycles with DRAM contention (lower is
    /// better); the gap to `adagp_cycles` is the memory stall.
    pub sim_cycles: f64,
    /// Simulated epoch-weighted PE-array utilization (higher is better).
    pub pe_utilization: f64,
    /// Simulated predictor-overlap efficiency (higher is better).
    pub overlap_efficiency: f64,
    /// Epoch-weighted buffer-spill cycles the finite buffer forces
    /// (lower is better; 0 when every working set fits).
    pub spill_cycles: f64,
    /// Fraction of `sim_cycles` that is memory stall — bandwidth plus
    /// spill (lower is better).
    pub dram_stall_frac: f64,
    /// The bandwidth-roofline knee (words/cycle): smallest DRAM bandwidth
    /// within 1% of the contention-free cycles (lower is better — a low
    /// knee means the model tolerates a narrow channel).
    pub knee_words_per_cycle: f64,
}

/// One executed cell: its spec, metrics and wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The grid point that was evaluated.
    pub spec: CellSpec,
    /// The metric values it produced.
    pub metrics: CellMetrics,
    /// Wall-clock microseconds this cell took (timing only — excluded
    /// from the byte-stable CSV).
    pub wall_micros: u64,
}

/// A completed sweep: every cell of one grid, in expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Name of the grid that ran.
    pub grid: String,
    /// Cell results, in the grid's deterministic expansion order.
    pub cells: Vec<CellResult>,
    /// Total wall-clock microseconds for the whole sweep.
    pub total_wall_micros: u64,
}

/// Evaluates one cell: the analytic speed-up/cycle/energy metrics of its
/// (model, dataset, dataflow, design, schedule) combination — identical
/// to what the standalone fig17–21 binaries computed, by construction —
/// plus the six discrete-event metrics from `adagp-sim` under the
/// default contention-enabled configuration (the cell's bandwidth/buffer
/// overrides applied; the roofline knee is the cell's own bandwidth
/// sweep, memoized across cells that share everything but bandwidth).
pub fn evaluate_cell(spec: &CellSpec) -> CellMetrics {
    let layers = cached_shapes(spec.model, spec.dataset.input_scale());
    let cfg = AcceleratorConfig::default();
    let mix = spec.schedule.mix();
    let baseline_cycles = baseline_training_cycles(&cfg, spec.dataflow, &layers, &mix);
    let adagp_cycles = adagp_training_cycles(&cfg, spec.dataflow, spec.design, &layers, &mix);
    let ecfg = EnergyConfig::default();
    let sim_base = SimConfig::default();
    // One set of compiled BP / GP graphs serves the sim metrics and, on a
    // knee-memo miss, every probe of the knee search; no metric reads the
    // baseline batch, so none is built.
    let mut cell = CellGraphs::build(spec, &sim_base);
    let sim = cell.graphs.run(&cell.mix);
    let sim_cycles = sim.training_cycles();
    let knee = roofline::knee_of_cell(spec, &mut cell, roofline::KNEE_TOLERANCE);
    CellMetrics {
        speedup: baseline_cycles / adagp_cycles,
        baseline_cycles,
        adagp_cycles,
        baseline_energy_j: baseline_energy_joules(&ecfg, &layers, &mix),
        adagp_energy_j: adagp_energy_joules(&ecfg, &layers, &mix, spec.design),
        sim_cycles,
        pe_utilization: sim.pe_utilization(),
        overlap_efficiency: sim.overlap_efficiency(),
        spill_cycles: sim.spill_cycles(),
        // The no-contention sim equals the analytic cycles bit-for-bit,
        // so the analytic value is the contention-free reference here.
        dram_stall_frac: ((sim_cycles - adagp_cycles) / sim_cycles).max(0.0),
        knee_words_per_cycle: knee as f64,
    }
}

/// Evaluates an explicit list of cells in parallel on the shared
/// runtime pool, preserving input order for every thread count. This is
/// the shared execution core: [`run_grid`] feeds it a whole expansion,
/// the shard-log runner ([`crate::shardlog::run_sharded`]) feeds it
/// bounded windows of pending cells.
pub fn evaluate_cells(specs: Vec<CellSpec>) -> Vec<CellResult> {
    adagp_runtime::pool().parallel_map(specs, |spec| {
        let t = Instant::now();
        let metrics = obs::span(
            "sweep",
            || format!("cell {}", spec.id),
            || evaluate_cell(&spec),
        );
        let wall_micros = t.elapsed().as_micros() as u64;
        cells_counter().inc();
        cell_micros_hist().record(wall_micros);
        cells_per_sec_hist().record(1_000_000 / wall_micros.max(1));
        CellResult {
            spec,
            metrics,
            wall_micros,
        }
    })
}

/// Runs every cell of `grid` in parallel on the shared runtime pool.
/// Result order is the expansion order (deterministic;
/// [`evaluate_cells`] preserves input order for every thread count).
pub fn run_grid(grid: &GridSpec) -> SweepRun {
    let t0 = Instant::now();
    let cells = evaluate_cells(grid.expand());
    SweepRun {
        grid: grid.name.clone(),
        cells,
        total_wall_micros: t0.elapsed().as_micros() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DatasetScale, PhaseSchedule};
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;

    fn grid() -> GridSpec {
        GridSpec {
            name: "test".to_string(),
            models: vec![CnnModel::Vgg13, CnnModel::MobileNetV2],
            datasets: vec![DatasetScale::Cifar10, DatasetScale::ImageNet],
            designs: AdaGpDesign::all().to_vec(),
            dataflows: vec![Dataflow::WeightStationary],
            schedules: vec![PhaseSchedule::Paper],
            bandwidths: vec![None],
            buffers: vec![None],
        }
    }

    #[test]
    fn run_covers_every_cell_in_expansion_order() {
        let g = grid();
        let run = run_grid(&g);
        assert_eq!(run.grid, "test");
        assert_eq!(run.cells.len(), g.cell_count());
        let expected: Vec<String> = g.expand().into_iter().map(|c| c.id).collect();
        let got: Vec<String> = run.cells.iter().map(|c| c.spec.id.clone()).collect();
        assert_eq!(got, expected, "result order must be expansion order");
    }

    #[test]
    fn metrics_are_deterministic_and_consistent() {
        let g = grid();
        let a = run_grid(&g);
        let b = run_grid(&g);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.metrics, y.metrics, "{}", x.spec.key());
            let m = x.metrics;
            assert!(m.speedup > 1.0 && m.speedup < 3.0, "{}", x.spec.key());
            assert_eq!(m.speedup, m.baseline_cycles / m.adagp_cycles);
            assert!(m.adagp_energy_j <= m.baseline_energy_j, "{}", x.spec.key());
            // The simulated run pays bandwidth stalls on top of the
            // analytic ideal, and its rates are proper fractions.
            assert!(m.sim_cycles >= m.adagp_cycles, "{}", x.spec.key());
            assert!(
                m.pe_utilization > 0.0 && m.pe_utilization <= 1.0,
                "{}: {}",
                x.spec.key(),
                m.pe_utilization
            );
            assert!(
                (0.0..=1.0).contains(&m.overlap_efficiency),
                "{}: {}",
                x.spec.key(),
                m.overlap_efficiency
            );
            assert!(m.spill_cycles >= 0.0, "{}", x.spec.key());
            assert!(
                (0.0..1.0).contains(&m.dram_stall_frac),
                "{}: {}",
                x.spec.key(),
                m.dram_stall_frac
            );
            assert!(
                m.knee_words_per_cycle >= 1.0,
                "{}: {}",
                x.spec.key(),
                m.knee_words_per_cycle
            );
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let g = grid();
        let reference = adagp_runtime::with_threads(1, || run_grid(&g));
        for threads in [2, 3, 7] {
            let got = adagp_runtime::with_threads(threads, || run_grid(&g));
            let a: Vec<_> = reference
                .cells
                .iter()
                .map(|c| (&c.spec, c.metrics))
                .collect();
            let b: Vec<_> = got.cells.iter().map(|c| (&c.spec, c.metrics)).collect();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn design_ordering_holds_per_model() {
        // MAX ≥ Efficient ≥ LOW within every (model, dataset) group.
        let run = run_grid(&grid());
        for chunk in run.cells.chunks(3) {
            assert_eq!(chunk[0].spec.design, AdaGpDesign::Low);
            assert!(chunk[2].metrics.speedup >= chunk[1].metrics.speedup);
            assert!(chunk[1].metrics.speedup >= chunk[0].metrics.speedup);
        }
    }
}
