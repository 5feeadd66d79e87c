//! Parallel grid execution on the shared `adagp-runtime` pool.
//!
//! A cell's metrics are a deterministic function of its axis values, so
//! cells map cleanly onto `ThreadPool::parallel_map`: the work split is
//! deterministic, result order is the grid's expansion order regardless
//! of thread count, and the caller participates (a 1-thread pool runs the
//! sweep inline). Cells are not independent in cost: the simulated
//! batches and the roofline knee come from process-global memos, one
//! [`adagp_runtime::Memo`] each ([`crate::simeval`]'s `BatchMemoKey`,
//! [`crate::roofline::KneeMemoKey`]), so a cell that shares its
//! simulator inputs with an earlier one simulates nothing;
//! [`evaluate_cells`] therefore runs the cells that will miss before the
//! ones that will hit. The analytic closed forms are recomputed every
//! time. Per-cell wall time is recorded for the JSON run record; it
//! never enters the CSV, which must stay byte-stable across runs.

use crate::grid::{CellSpec, GridSpec};
use crate::memo::CellMemos;
use crate::roofline::{KneeMemoKey, KNEE_TOLERANCE};
use crate::shapes::cached_shapes;
use crate::simeval::{cell_sim_config, BatchMemoKey, CellGraphs};
use adagp_accel::energy::{adagp_energy_joules, baseline_energy_joules, EnergyConfig};
use adagp_accel::speedup::{adagp_cycles_of, baseline_cycles_of, training_costs};
use adagp_accel::AcceleratorConfig;
use adagp_obs as obs;
use adagp_sim::{AdaGpSim, SimConfig};
use std::collections::HashSet;
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
/// overrides applied). The simulated batches and the roofline knee come
/// from the process-global memos: a cell simulates only what no earlier
/// cell in the process has.
pub fn evaluate_cell(spec: &CellSpec) -> CellMetrics {
    evaluate_cell_in(spec, CellMemos::global())
}

/// [`evaluate_cell`] against the given memo tables.
pub(crate) fn evaluate_cell_in(spec: &CellSpec, memos: &CellMemos) -> CellMetrics {
    let layers = cached_shapes(spec.model, spec.dataset.input_scale());
    let cfg = AcceleratorConfig::default();
    let mix = spec.schedule.mix();
    let costs = training_costs(&cfg, spec.dataflow, &layers);
    let baseline_cycles = baseline_cycles_of(&costs, &mix);
    let adagp_cycles = adagp_cycles_of(spec.design, &costs, &mix);
    let ecfg = EnergyConfig::default();
    let sim_base = SimConfig::default();
    let sim_cfg = cell_sim_config(spec, &sim_base);
    // Compiled at most once, on the first memo miss: one set of BP / GP
    // graphs serves the batch replay and every probe of the knee search.
    let mut graphs = None;
    let ([bp, gp], _) = memos
        .batches
        .get_or_compute(&BatchMemoKey::new(spec, &sim_cfg), || {
            graphs
                .get_or_insert_with(|| CellGraphs::build(spec, &sim_base))
                .batch_stats()
        });
    let knee_key = KneeMemoKey::new(spec, &sim_cfg, KNEE_TOLERANCE);
    let (knee, _) = memos.knees.get_or_compute(&knee_key, || {
        graphs
            .get_or_insert_with(|| CellGraphs::build(spec, &sim_base))
            .search_knee(spec, KNEE_TOLERANCE)
    });
    let sim = AdaGpSim { bp, gp, mix };
    let sim_cycles = sim.training_cycles();
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
///
/// The cells run most expensive first (`cost_classes`): the ones that
/// will search a knee, then the ones that will only simulate, then the
/// ones both memos will serve. A cell that needs another cell's key
/// thus runs after it, so a thread seldom waits on a key the other is
/// still computing, and the cheap hits fill in at the end while the
/// last miss finishes: a pass's wall time depends on its work, not on
/// how the threads happened to meet.
pub fn evaluate_cells(specs: Vec<CellSpec>) -> Vec<CellResult> {
    let class = cost_classes(&specs, CellMemos::global());
    let mut ordered: Vec<(usize, CellSpec)> = specs.into_iter().enumerate().collect();
    ordered.sort_by_key(|&(i, _)| class[i]);
    let mut results = adagp_runtime::pool().parallel_map(ordered, |(i, spec)| {
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
        let result = CellResult {
            spec,
            metrics,
            wall_micros,
        };
        (i, result)
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Each cell's cost class against `memos`: 0 for the first cell of a
/// knee key the memo lacks (a knee search, usually with a batch
/// simulation), 1 for the first cell of a lacking batch key (a
/// simulation), 2 for a cell both memos will serve.
fn cost_classes(specs: &[CellSpec], memos: &CellMemos) -> Vec<u8> {
    let base = SimConfig::default();
    let keys: Vec<(BatchMemoKey, KneeMemoKey)> = specs
        .iter()
        .map(|spec| {
            let cfg = cell_sim_config(spec, &base);
            (
                BatchMemoKey::new(spec, &cfg),
                KneeMemoKey::new(spec, &cfg, KNEE_TOLERANCE),
            )
        })
        .collect();
    let batch_absent = memos.batches.absent(keys.iter().map(|(b, _)| b));
    let knee_absent = memos.knees.absent(keys.iter().map(|(_, k)| k));
    let (mut batches, mut knees) = (HashSet::new(), HashSet::new());
    keys.iter()
        .enumerate()
        .map(|(i, (batch, knee))| {
            let new_batch = batch_absent[i] && batches.insert(batch);
            if knee_absent[i] && knees.insert(knee) {
                0
            } else if new_batch {
                1
            } else {
                2
            }
        })
        .collect()
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
    use crate::presets;
    use crate::simeval::simulate_cell;
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;
    use std::collections::HashSet;

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

    /// Every cell of `specs` evaluated on the pool against one set of
    /// fresh memo tables: evaluations no earlier one in the process can
    /// have served.
    fn evaluate_fresh(specs: Vec<CellSpec>) -> Vec<CellMetrics> {
        let memos = CellMemos::fresh();
        adagp_runtime::pool().parallel_map(specs, |spec| evaluate_cell_in(&spec, &memos))
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
        // The grid's batch and knee keys are all distinct, so against
        // fresh tables every cell of `b` simulates and searches anew.
        let b = evaluate_fresh(g.expand());
        for (x, y) in a.cells.iter().zip(&b) {
            assert_eq!(x.metrics, *y, "{}", x.spec.key());
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
        let a: Vec<_> = reference.cells.iter().map(|c| c.metrics).collect();
        for threads in [2, 3, 7] {
            // Fresh tables per thread count: every cell is evaluated
            // again, its misses racing on the shared tables.
            let b = adagp_runtime::with_threads(threads, || evaluate_fresh(g.expand()));
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

    #[test]
    fn cost_classes_put_knee_searches_first_then_simulations_then_hits() {
        let g = GridSpec {
            name: "classes".to_string(),
            models: vec![CnnModel::Vgg13],
            datasets: vec![DatasetScale::Cifar10, DatasetScale::Cifar100],
            designs: vec![AdaGpDesign::Max],
            dataflows: vec![Dataflow::WeightStationary],
            schedules: vec![PhaseSchedule::Paper, PhaseSchedule::SteadyOnly],
            bandwidths: vec![Some(16), Some(256)],
            buffers: vec![None],
        };
        let specs = g.expand();
        let memos = CellMemos::fresh();
        // CIFAR-10 (Paper, 16): new knee. (Paper, 256): the same knee,
        // a new batch. (SteadyOnly, 16): a new knee. (SteadyOnly, 256):
        // both keys seen. Every CIFAR-100 cell is a CIFAR-10 twin.
        assert_eq!(cost_classes(&specs, &memos), [0, 1, 0, 2, 2, 2, 2, 2]);
        for spec in &specs {
            evaluate_cell_in(spec, &memos);
        }
        assert_eq!(cost_classes(&specs, &memos), [2; 8]);
    }

    /// The eight presets of the benchmark's `sweep_cold` workload.
    const BENCHMARK_PRESETS: [&str; 8] = [
        "fig17-ws",
        "fig18-rs",
        "fig19-is",
        "dataflows",
        "schedules",
        "bandwidth",
        "energy",
        "roofline",
    ];

    #[test]
    fn memoized_cells_equal_unmemoized_simulations_in_any_order() {
        let mut seen = HashSet::new();
        let mut specs: Vec<CellSpec> = BENCHMARK_PRESETS
            .iter()
            .flat_map(|name| presets::by_name(name).expect("known preset").expand())
            .filter(|spec| seen.insert(spec.id.clone()))
            .collect();
        assert_eq!(specs.len(), 633, "distinct cells of the eight presets");
        // A seeded Fisher–Yates shuffle (xorshift64), so which cell of a
        // key fills the memo is not the expansion order's choice.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..specs.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            specs.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let memos = CellMemos::fresh();
        let memoized: Vec<CellMetrics> = specs
            .iter()
            .map(|spec| evaluate_cell_in(spec, &memos))
            .collect();
        let base = SimConfig::default();
        let mismatches: Vec<String> = adagp_runtime::pool()
            .parallel_map(specs.into_iter().zip(memoized).collect(), |(spec, m)| {
                let sim = simulate_cell(&spec, &base);
                let knee = CellGraphs::build(&spec, &base).search_knee(&spec, KNEE_TOLERANCE);
                let got = [
                    m.sim_cycles,
                    m.pe_utilization,
                    m.overlap_efficiency,
                    m.spill_cycles,
                    m.knee_words_per_cycle,
                ];
                let want = [
                    sim.sim_cycles,
                    sim.pe_utilization,
                    sim.overlap_efficiency,
                    sim.spill_cycles,
                    knee as f64,
                ];
                let bits = |v: [f64; 5]| v.map(f64::to_bits);
                (bits(got) != bits(want))
                    .then(|| format!("{}: memoized {got:?}, direct {want:?}", spec.key()))
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(mismatches.is_empty(), "{mismatches:#?}");
    }

    #[test]
    fn a_cifar100_cell_equals_its_cifar10_twin_in_every_metric() {
        // The fact both memo keys rest on: the dataset reaches a cell
        // only through its input scale. Each side evaluates against its
        // own fresh tables, so neither can be served by the other.
        let twins = |dataset| GridSpec {
            name: "twins".to_string(),
            models: CnnModel::all().to_vec(),
            datasets: vec![dataset],
            designs: AdaGpDesign::all().to_vec(),
            dataflows: Dataflow::all().to_vec(),
            schedules: vec![PhaseSchedule::Paper],
            bandwidths: vec![None],
            buffers: vec![None],
        };
        let c10 = twins(DatasetScale::Cifar10).expand();
        let c100 = twins(DatasetScale::Cifar100).expand();
        assert_eq!(c10.len(), 13 * 3 * 4);
        let (m10, m100) = (evaluate_fresh(c10.clone()), evaluate_fresh(c100.clone()));
        for ((s10, s100), (a, b)) in c10.iter().zip(&c100).zip(m10.iter().zip(&m100)) {
            assert_eq!(s10.model, s100.model);
            assert_eq!(s10.design, s100.design);
            assert_eq!(s10.dataflow, s100.dataflow);
            assert_eq!(
                crate::store::metrics_to_array(a).map(f64::to_bits),
                crate::store::metrics_to_array(b).map(f64::to_bits),
                "{} vs {}",
                s10.key(),
                s100.key()
            );
        }
    }
}
