//! The sim-backed cell evaluator: every grid cell run through the
//! `adagp-sim` discrete-event simulator.
//!
//! Two consumers share this module:
//!
//! * [`crate::runner::evaluate_cell`] pulls the three sim metrics
//!   (`sim_cycles`, `pe_utilization`, `overlap_efficiency`) computed with
//!   the *default* contention-enabled [`SimConfig`], so they flow through
//!   the regular store/diff/golden machinery next to the analytic
//!   metrics.
//! * The `sweep sim` CLI subcommand runs [`run_sim_grid`] for the
//!   batch-level detail view — per-phase makespans, the simulated
//!   speed-up and the peak buffer occupancy — and writes it as a
//!   byte-stable CSV ([`sim_detail_csv`]) that the tests byte-compare
//!   with a committed golden, exactly like the analytic smoke grid.
//!
//! The first goes through `CellGraphs`: a cell's layer list and its two
//! ADA-GP batch graphs (BP, GP) compiled once per evaluation and replayed
//! — untraced — for the metrics above and for every bandwidth probe of
//! [`crate::roofline`]'s knee search. None of those reads the baseline
//! batch, so `CellGraphs` does not build it; [`simulate_cell`], whose
//! detail view reports it, builds all three through
//! [`adagp_sim::StepSim::run`].
//!
//! With [`SimConfig::no_contention`] the simulated speed-up is
//! bit-identical to the analytic `training_speedup` (the sim crate's
//! contract); the golden test in `adagp-bench` asserts that over the full
//! fig17 grid.

use crate::grid::{CellSpec, GridSpec};
use crate::shapes::cached_shapes;
use adagp_accel::layer_cost::PredictorCostModel;
use adagp_accel::speedup::EpochMix;
use adagp_accel::AcceleratorConfig;
use adagp_sim::{model_sim_layers, AdaGpGraphs, SimConfig, SimLayer, StepSim};

/// One simulated cell: batch-level makespans plus derived training-level
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCellDetail {
    /// The grid point that was simulated.
    pub spec: CellSpec,
    /// Simulated baseline batch makespan (cycles).
    pub baseline_batch_cycles: u64,
    /// Simulated Phase-BP batch makespan (cycles).
    pub bp_batch_cycles: u64,
    /// Simulated Phase-GP batch makespan (cycles).
    pub gp_batch_cycles: u64,
    /// Simulated end-to-end training speed-up.
    pub sim_speedup: f64,
    /// Simulated ADA-GP training cycles (epoch-mix weighted).
    pub sim_cycles: f64,
    /// Epoch-weighted main PE-array utilization.
    pub pe_utilization: f64,
    /// Epoch-weighted predictor-overlap efficiency.
    pub overlap_efficiency: f64,
    /// Epoch-weighted buffer-spill cycles of the ADA-GP run (exactly 0
    /// with contention off or an unbounded buffer).
    pub spill_cycles: f64,
    /// Peak buffer occupancy across the three batch schedules (words).
    pub peak_buffer_words: i64,
}

/// Resolves the simulator configuration one cell runs under: the cell's
/// bandwidth/buffer overrides applied on top of `base`. When `base` has
/// the DRAM channel disabled (`--no-contention`), the overrides are
/// ignored entirely — contention off *composes* with the contention axes
/// by winning, so the analytic-equality contract holds for every cell of
/// every grid.
pub fn cell_sim_config(spec: &CellSpec, base: &SimConfig) -> SimConfig {
    let mut cfg = *base;
    if cfg.dram_words_per_cycle.is_none() {
        return cfg;
    }
    if let Some(bw) = spec.dram_words_per_cycle {
        cfg.dram_words_per_cycle = Some(bw);
    }
    if let Some(buf) = spec.buffer_words {
        cfg.buffer_words = Some(buf);
    }
    cfg
}

/// The model's layers under `cfg`: the same shapes, accelerator config
/// and predictor cost model as the analytic evaluator.
pub fn cell_layers(spec: &CellSpec, cfg: &SimConfig) -> Vec<SimLayer> {
    model_sim_layers(
        &AcceleratorConfig::default(),
        spec.dataflow,
        &PredictorCostModel::default(),
        &cached_shapes(spec.model, spec.dataset.input_scale()),
        cfg,
    )
}

/// Everything one cell evaluation simulates on, built once: the resolved
/// config, the layer list and the two compiled ADA-GP batch graphs (BP,
/// GP). One set serves [`crate::runner::evaluate_cell`]'s sim metrics
/// and every probe of [`crate::roofline`]'s knee search; it lives for one
/// cell evaluation and is never cached.
/// Nothing on that path reads the baseline batch: only
/// [`simulate_cell`] builds it.
pub(crate) struct CellGraphs {
    /// [`cell_sim_config`]`(spec, base)`.
    pub cfg: SimConfig,
    /// `cell_layers(spec, cfg)`.
    pub layers: Vec<SimLayer>,
    /// The cell's epoch mix.
    pub mix: EpochMix,
    /// The compiled BP and GP schedules, timed at `cfg`'s bandwidth.
    pub graphs: AdaGpGraphs,
}

impl CellGraphs {
    /// Compiles `spec`'s two ADA-GP batch schedules under
    /// [`cell_sim_config`]`(spec, base)`.
    pub fn build(spec: &CellSpec, base: &SimConfig) -> Self {
        let cfg = cell_sim_config(spec, base);
        let layers = cell_layers(spec, &cfg);
        let graphs = AdaGpGraphs::build(spec.design, &layers, &cfg);
        CellGraphs {
            cfg,
            layers,
            mix: spec.schedule.mix(),
            graphs,
        }
    }
}

/// Simulates one cell under [`cell_sim_config`]`(spec, base)`: the same
/// shapes, accelerator config and epoch mix the analytic evaluator uses,
/// executed on the event engine — the baseline batch and both ADA-GP
/// batches, one untraced replay each.
pub fn simulate_cell(spec: &CellSpec, base: &SimConfig) -> SimCellDetail {
    let cfg = cell_sim_config(spec, base);
    let step = StepSim::run(
        spec.design,
        &cell_layers(spec, &cfg),
        &spec.schedule.mix(),
        &cfg,
    );
    let adagp = &step.adagp;
    SimCellDetail {
        spec: spec.clone(),
        baseline_batch_cycles: step.baseline.makespan,
        bp_batch_cycles: adagp.bp.makespan,
        gp_batch_cycles: adagp.gp.makespan,
        sim_speedup: step.training_speedup(),
        sim_cycles: adagp.training_cycles(),
        pe_utilization: adagp.pe_utilization(),
        overlap_efficiency: adagp.overlap_efficiency(),
        spill_cycles: adagp.spill_cycles(),
        peak_buffer_words: step.peak_buffer_words(),
    }
}

/// Simulates every cell of `grid` in parallel on the shared runtime pool
/// (expansion order, thread-count invariant — the same contract as
/// [`crate::runner::run_grid`]).
pub fn run_sim_grid(grid: &GridSpec, cfg: &SimConfig) -> Vec<SimCellDetail> {
    adagp_runtime::pool().parallel_map(grid.expand(), |spec| simulate_cell(&spec, cfg))
}

/// Column layout of the sim-detail CSV.
pub const SIM_CSV_HEADER: [&str; 16] = [
    "id",
    "dataflow",
    "dataset",
    "model",
    "design",
    "schedule",
    "dram_bw",
    "buffer_words",
    "baseline_batch_cycles",
    "bp_batch_cycles",
    "gp_batch_cycles",
    "sim_speedup",
    "pe_utilization",
    "overlap_efficiency",
    "spill_cycles",
    "peak_buffer_words",
];

/// Renders simulated cells as byte-stable CSV (integers verbatim, floats
/// at the store's fixed precision).
pub fn sim_detail_csv(details: &[SimCellDetail]) -> String {
    use crate::store::csv_float;
    let mut out = String::new();
    out.push_str(&SIM_CSV_HEADER.join(","));
    out.push('\n');
    for d in details {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            d.spec.id,
            d.spec.dataflow.name(),
            d.spec.dataset.name(),
            d.spec.model.name(),
            d.spec.design.name(),
            d.spec.schedule.name(),
            d.spec.dram_bw_name(),
            d.spec.buffer_words_name(),
            d.baseline_batch_cycles,
            d.bp_batch_cycles,
            d.gp_batch_cycles,
            csv_float(d.sim_speedup),
            csv_float(d.pe_utilization),
            csv_float(d.overlap_efficiency),
            csv_float(d.spill_cycles),
            d.peak_buffer_words,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DatasetScale, PhaseSchedule};
    use crate::presets;
    use adagp_accel::speedup::training_speedup;
    use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;

    fn cell() -> CellSpec {
        CellSpec::new(
            Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            CnnModel::Vgg13,
            AdaGpDesign::Max,
            PhaseSchedule::Paper,
        )
    }

    #[test]
    fn no_contention_speedup_is_bit_exact_vs_analytic() {
        let d = simulate_cell(&cell(), &SimConfig::no_contention());
        let shapes = cached_shapes(CnnModel::Vgg13, DatasetScale::Cifar10.input_scale());
        let direct = training_speedup(
            &AcceleratorConfig::default(),
            Dataflow::WeightStationary,
            AdaGpDesign::Max,
            &shapes,
            &PhaseSchedule::Paper.mix(),
        );
        assert_eq!(d.sim_speedup.to_bits(), direct.to_bits());
    }

    #[test]
    fn no_contention_base_wins_over_cell_overrides() {
        // `sweep sim --no-contention` on the bandwidth grid: the cells
        // carry bandwidth/buffer overrides, but a contention-off base
        // must silence them — zero spills, analytic-exact speed-up.
        let spec = CellSpec::with_contention(
            Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            CnnModel::Vgg13,
            AdaGpDesign::Max,
            PhaseSchedule::Paper,
            Some(4),
            Some(1024),
        );
        let base = SimConfig::no_contention();
        assert_eq!(cell_sim_config(&spec, &base), base);
        let d = simulate_cell(&spec, &base);
        assert_eq!(d.spill_cycles, 0.0);
        let plain = simulate_cell(&cell(), &base);
        assert_eq!(d.sim_speedup.to_bits(), plain.sim_speedup.to_bits());

        // With a contention-on base the overrides bite: tighter bandwidth
        // and a tiny buffer can only slow things down.
        let tight = simulate_cell(&spec, &SimConfig::default());
        assert!(tight.sim_cycles > plain.sim_cycles);
        assert!(tight.spill_cycles > 0.0);
    }

    #[test]
    fn contention_never_beats_the_ideal() {
        let free = simulate_cell(&cell(), &SimConfig::no_contention());
        let tight = simulate_cell(&cell(), &SimConfig::default());
        assert!(tight.baseline_batch_cycles >= free.baseline_batch_cycles);
        assert!(tight.bp_batch_cycles >= free.bp_batch_cycles);
        assert!(tight.gp_batch_cycles >= free.gp_batch_cycles);
        assert!(tight.sim_cycles >= free.sim_cycles);
        assert!(tight.pe_utilization <= free.pe_utilization + 1e-12);
    }

    #[test]
    fn sim_grid_is_thread_count_invariant_csv_bytes() {
        let grid = presets::smoke();
        let cfg = SimConfig::default();
        let reference =
            adagp_runtime::with_threads(1, || sim_detail_csv(&run_sim_grid(&grid, &cfg)));
        for threads in [2, 4] {
            let got =
                adagp_runtime::with_threads(threads, || sim_detail_csv(&run_sim_grid(&grid, &cfg)));
            assert_eq!(got, reference, "threads={threads}");
        }
        assert_eq!(reference.lines().count(), 1 + grid.cell_count());
    }

    #[test]
    fn detail_csv_parses_and_orders_like_the_grid() {
        let grid = presets::smoke();
        let details = run_sim_grid(&grid, &SimConfig::no_contention());
        let expected: Vec<String> = grid.expand().into_iter().map(|c| c.id).collect();
        let got: Vec<String> = details.iter().map(|d| d.spec.id.clone()).collect();
        assert_eq!(got, expected);
        let csv = sim_detail_csv(&details);
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), SIM_CSV_HEADER.len());
        }
    }

    #[test]
    fn max_overlaps_better_than_efficient() {
        let mk = |design| {
            simulate_cell(
                &CellSpec::new(
                    Dataflow::WeightStationary,
                    DatasetScale::Cifar10,
                    CnnModel::ResNet50,
                    design,
                    PhaseSchedule::Paper,
                ),
                &SimConfig::no_contention(),
            )
        };
        let max = mk(AdaGpDesign::Max);
        let eff = mk(AdaGpDesign::Efficient);
        assert!(max.overlap_efficiency > eff.overlap_efficiency);
        assert!(max.sim_speedup > eff.sim_speedup);
    }
}
