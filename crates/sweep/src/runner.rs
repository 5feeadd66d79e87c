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
//! simulator inputs with an earlier one simulates nothing, and the cells
//! that differ only in bandwidth and schedule share one compiled set of
//! graphs; [`evaluate_cells`] therefore runs such siblings as one group
//! and the groups that will miss before the cells that will hit. The
//! analytic closed forms are recomputed every time. Per-cell wall time is
//! recorded for the JSON run record; it never enters the CSV, which must
//! stay byte-stable across runs.

use crate::grid::{CellSpec, GridSpec};
use crate::memo::CellMemos;
use crate::roofline::{KneeMemoKey, KNEE_TOLERANCE};
use crate::shapes::cached_shapes;
use crate::simeval::{cell_sim_config, BatchMemoKey, CellGraphs, SimCellDetail};
use adagp_accel::energy::{adagp_energy_joules, baseline_energy_joules, EnergyConfig};
use adagp_accel::speedup::{adagp_cycles_of, baseline_cycles_of, training_costs};
use adagp_accel::AcceleratorConfig;
use adagp_obs as obs;
use adagp_sim::{AdaGpSim, SimConfig};
use std::collections::HashMap;
use std::ops::Range;
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

/// [`evaluate_cell`] against the given memo tables: a group of one.
pub(crate) fn evaluate_cell_in(spec: &CellSpec, memos: &CellMemos) -> CellMetrics {
    evaluate_member(spec, memos, &mut None)
}

/// The compiled set of `spec`'s group, compiled now if the group has none.
fn compiled<'g>(
    graphs: &'g mut Option<CellGraphs>,
    spec: &CellSpec,
    base: &SimConfig,
) -> &'g mut CellGraphs {
    graphs.get_or_insert_with(|| CellGraphs::build(spec, base))
}

/// Evaluates `spec` as a member of the group whose compiled set is
/// `graphs`: the set is compiled on the group's first memo miss, and a
/// later miss of the group re-times it instead of compiling another.
fn evaluate_member(
    spec: &CellSpec,
    memos: &CellMemos,
    graphs: &mut Option<CellGraphs>,
) -> CellMetrics {
    let layers = cached_shapes(spec.model, spec.dataset.input_scale());
    let cfg = AcceleratorConfig::default();
    let mix = spec.schedule.mix();
    let costs = training_costs(&cfg, spec.dataflow, &layers);
    let baseline_cycles = baseline_cycles_of(&costs, &mix);
    let adagp_cycles = adagp_cycles_of(spec.design, &costs, &mix);
    let ecfg = EnergyConfig::default();
    let sim_base = SimConfig::default();
    let sim_cfg = cell_sim_config(spec, &sim_base);
    let ([bp, gp], _) = memos
        .batches
        .get_or_compute(&BatchMemoKey::new(spec, &sim_cfg), || {
            compiled(graphs, spec, &sim_base).batch_stats(&sim_cfg)
        });
    let knee_key = KneeMemoKey::new(spec, &sim_cfg, KNEE_TOLERANCE);
    let (knee, _) = memos.knees.get_or_compute(&knee_key, || {
        compiled(graphs, spec, &sim_base).search_knee(spec, KNEE_TOLERANCE)
    });
    let sim = SimCellDetail::from(AdaGpSim { bp, gp, mix });
    CellMetrics {
        speedup: baseline_cycles / adagp_cycles,
        baseline_cycles,
        adagp_cycles,
        baseline_energy_j: baseline_energy_joules(&ecfg, &layers, &mix),
        adagp_energy_j: adagp_energy_joules(&ecfg, &layers, &mix, spec.design),
        sim_cycles: sim.sim_cycles,
        pe_utilization: sim.pe_utilization,
        overlap_efficiency: sim.overlap_efficiency,
        spill_cycles: sim.spill_cycles,
        // The no-contention sim equals the analytic cycles bit-for-bit,
        // so the analytic value is the contention-free reference here.
        dram_stall_frac: ((sim.sim_cycles - adagp_cycles) / sim.sim_cycles).max(0.0),
        knee_words_per_cycle: knee as f64,
    }
}

/// Evaluates an explicit list of cells in parallel on the shared
/// runtime pool, preserving input order for every thread count. This is
/// the shared execution core: [`run_grid`] feeds it a whole expansion,
/// the shard-log runner ([`crate::shardlog::run_sharded`]) feeds it
/// bounded windows of pending cells.
///
/// The cells run in groups, one group per pool item: the cells with a
/// key the memos lack, grouped by batch memo key minus the bandwidth
/// (`GroupKey`), that is, the bandwidth and schedule siblings of one
/// model, input scale, dataflow, design and buffer; a cell both memos
/// will serve is a group of its own. A group compiles its BP / GP graphs
/// once, on its first memo miss, and each later miss re-times them. Every
/// key a call computes falls in exactly one group, so within one call no
/// two threads compute or wait on the same key. The groups run most
/// expensive first (`cost_classes`): those that will search a knee, then
/// those that will only simulate, then the served cells, which fill in
/// at the end while the last miss finishes. A cell's `wall_micros` times
/// its own evaluation; the grouping is done before any cell starts.
pub fn evaluate_cells(specs: Vec<CellSpec>) -> Vec<CellResult> {
    evaluate_cells_in(specs, CellMemos::global())
}

/// [`evaluate_cells`] against the given memo tables.
pub(crate) fn evaluate_cells_in(specs: Vec<CellSpec>, memos: &CellMemos) -> Vec<CellResult> {
    let Groups { order, groups } = cost_classes(&specs, memos);
    let evaluated: Vec<OnceLock<(CellMetrics, u64)>> =
        specs.iter().map(|_| OnceLock::new()).collect();
    adagp_runtime::pool().parallel_map(groups, |(_, cells)| {
        let mut graphs = None;
        for &i in &order[cells] {
            let spec = &specs[i];
            let t = Instant::now();
            let metrics = obs::span(
                "sweep",
                || format!("cell {}", spec.id),
                || evaluate_member(spec, memos, &mut graphs),
            );
            let wall_micros = t.elapsed().as_micros() as u64;
            cells_counter().inc();
            cell_micros_hist().record(wall_micros);
            cells_per_sec_hist().record(1_000_000 / wall_micros.max(1));
            evaluated[i]
                .set((metrics, wall_micros))
                .expect("a cell is in one group");
        }
    });
    specs
        .into_iter()
        .zip(evaluated)
        .map(|(spec, evaluated)| {
            let (metrics, wall_micros) = evaluated.into_inner().expect("every cell is evaluated");
            CellResult {
                spec,
                metrics,
                wall_micros,
            }
        })
        .collect()
}

/// The groups one [`evaluate_cells`] call runs: ranges of `order`, a
/// list of cell indices, each with its cost class (`cost_classes`).
struct Groups {
    order: Vec<usize>,
    groups: Vec<(u8, Range<usize>)>,
}

/// `specs` in groups, most expensive first, each with its cost class
/// against `memos`: 0 for a group with a knee key the memo lacks (a knee
/// search, usually with a simulation), 1 for one with a lacking batch key
/// (a simulation), 2 for a cell both memos will serve. A cell with a
/// lacking key joins the group of its `GroupKey`; a served cell needs no
/// graphs and is a group of its own. Groups of one class keep the order
/// of their first cells, and cells within a group their input order.
fn cost_classes(specs: &[CellSpec], memos: &CellMemos) -> Groups {
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
    // Per group, its class; per cell, its group.
    let mut index = HashMap::new();
    let mut class: Vec<u8> = Vec::new();
    let mut group_of = Vec::with_capacity(specs.len());
    for (i, (batch, _)) in keys.iter().enumerate() {
        let cell_class = match (knee_absent[i], batch_absent[i]) {
            (true, _) => 0,
            (false, true) => 1,
            (false, false) => 2,
        };
        let mut new_group = || {
            class.push(cell_class);
            class.len() - 1
        };
        let g = if cell_class == 2 {
            new_group()
        } else {
            *index.entry(batch.group()).or_insert_with(new_group)
        };
        class[g] = class[g].min(cell_class);
        group_of.push(g);
    }
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_unstable_by_key(|&i| (class[group_of[i]], group_of[i], i));
    let mut at = 0;
    let groups = order
        .chunk_by(|&a, &b| group_of[a] == group_of[b])
        .map(|cells| {
            at += cells.len();
            (class[group_of[cells[0]]], at - cells.len()..at)
        })
        .collect();
    Groups { order, groups }
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
    use crate::simeval::{cell_layers, simulate_cell};
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;
    use adagp_sim::StepSim;
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
        let cell = |model, dataset, design, bw| {
            CellSpec::with_contention(
                Dataflow::WeightStationary,
                dataset,
                model,
                design,
                PhaseSchedule::Paper,
                Some(bw),
                None,
            )
        };
        let specs = [
            // Group 0: a CIFAR-10 cell and its CIFAR-100 twin.
            cell(CnnModel::Vgg13, DatasetScale::Cifar10, AdaGpDesign::Max, 16),
            cell(
                CnnModel::Vgg13,
                DatasetScale::Cifar100,
                AdaGpDesign::Max,
                16,
            ),
            // Group 1: bandwidth siblings, one knee key.
            cell(
                CnnModel::Vgg13,
                DatasetScale::Cifar10,
                AdaGpDesign::Efficient,
                16,
            ),
            cell(
                CnnModel::Vgg13,
                DatasetScale::Cifar10,
                AdaGpDesign::Efficient,
                256,
            ),
            cell(
                CnnModel::Vgg13,
                DatasetScale::Cifar10,
                AdaGpDesign::Efficient,
                64,
            ),
            // Group 2.
            cell(
                CnnModel::MobileNetV2,
                DatasetScale::Cifar10,
                AdaGpDesign::Max,
                16,
            ),
        ];
        let memos = CellMemos::fresh();
        let classes = |memos: &CellMemos| {
            let Groups { order, groups } = cost_classes(&specs, memos);
            groups
                .into_iter()
                .map(|(class, cells)| (class, order[cells].to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            classes(&memos),
            [(0, vec![0, 1]), (0, vec![2, 3, 4]), (0, vec![5])]
        );
        // Group 0 is served, and a served cell runs alone. Group 1 has its
        // knee but lacks the batches at 256 and 64 w/c; group 2 lacks both.
        evaluate_cell_in(&specs[0], &memos);
        evaluate_cell_in(&specs[2], &memos);
        assert_eq!(
            classes(&memos),
            [
                (0, vec![5]),
                (1, vec![3, 4]),
                (2, vec![0]),
                (2, vec![1]),
                (2, vec![2])
            ]
        );
        for spec in &specs {
            evaluate_cell_in(spec, &memos);
        }
        let served: Vec<_> = (0..specs.len()).map(|i| (2, vec![i])).collect();
        assert_eq!(classes(&memos), served);
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
        // The reference shares no sweep code past the layer list: the
        // three-batch `StepSim`, built fresh at the cell's config. The
        // unmemoized `simulate_cell` compiles the run path's `CellGraphs`,
        // so it is held to the same reference instead of being it.
        let base = SimConfig::default();
        let mismatches: Vec<String> = adagp_runtime::pool()
            .parallel_map(specs.into_iter().zip(memoized).collect(), |(spec, m)| {
                let cfg = cell_sim_config(&spec, &base);
                let layers = cell_layers(&spec, &cfg);
                let step = StepSim::run(spec.design, &layers, &spec.schedule.mix(), &cfg).adagp;
                let knee = CellGraphs::build(&spec, &base).search_knee(&spec, KNEE_TOLERANCE);
                let want = [
                    step.training_cycles(),
                    step.pe_utilization(),
                    step.overlap_efficiency(),
                    step.spill_cycles(),
                    knee as f64,
                ];
                let sim = simulate_cell(&spec, &base);
                let memoized = [
                    m.sim_cycles,
                    m.pe_utilization,
                    m.overlap_efficiency,
                    m.spill_cycles,
                    m.knee_words_per_cycle,
                ];
                // `simulate_cell` searches no knee: its slot repeats the
                // reference's.
                let unmemoized = [
                    sim.sim_cycles,
                    sim.pe_utilization,
                    sim.overlap_efficiency,
                    sim.spill_cycles,
                    knee as f64,
                ];
                let bits = |v: [f64; 5]| v.map(f64::to_bits);
                (bits(memoized) != bits(want) || bits(unmemoized) != bits(want)).then(|| {
                    format!(
                        "{}: memoized {memoized:?}, simulate_cell {unmemoized:?}, \
                         StepSim {want:?}",
                        spec.key()
                    )
                })
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(mismatches.is_empty(), "{mismatches:#?}");
    }

    #[test]
    fn grouped_passes_equal_cell_by_cell_evaluations_and_no_key_spans_two_groups() {
        let presets: Vec<Vec<CellSpec>> = BENCHMARK_PRESETS
            .iter()
            .map(|name| presets::by_name(name).expect("known preset").expand())
            .collect();
        let base = SimConfig::default();
        // Within one call every batch key and every knee key is in one
        // group, so no two pool items compute or wait on the same key.
        for specs in &presets {
            let mut batch_group = HashMap::new();
            let mut knee_group = HashMap::new();
            let Groups { order, groups } = cost_classes(specs, &CellMemos::fresh());
            for (g, (_, cells)) in groups.into_iter().enumerate() {
                for &i in &order[cells] {
                    let cfg = cell_sim_config(&specs[i], &base);
                    let batch = BatchMemoKey::new(&specs[i], &cfg);
                    let knee = KneeMemoKey::new(&specs[i], &cfg, KNEE_TOLERANCE);
                    assert_eq!(*batch_group.entry(batch).or_insert(g), g, "{batch:?}");
                    assert_eq!(*knee_group.entry(knee).or_insert(g), g, "{knee:?}");
                }
            }
        }
        // The reference: every distinct cell on its own, in a seeded
        // shuffle (xorshift64), against fresh tables.
        let mut seen = HashSet::new();
        let mut cells: Vec<CellSpec> = presets
            .iter()
            .flatten()
            .filter(|spec| seen.insert(spec.id.clone()))
            .cloned()
            .collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in (1..cells.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cells.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let memos = CellMemos::fresh();
        let reference: HashMap<String, [u64; 11]> = cells
            .into_iter()
            .map(|spec| {
                let bits = crate::store::metrics_to_array(&evaluate_cell_in(&spec, &memos));
                (spec.id, bits.map(f64::to_bits))
            })
            .collect();
        for threads in [1, 3] {
            let memos = CellMemos::fresh();
            for specs in &presets {
                let run = adagp_runtime::with_threads(threads, || {
                    evaluate_cells_in(specs.clone(), &memos)
                });
                for (spec, result) in specs.iter().zip(&run) {
                    assert_eq!(result.spec.id, spec.id, "input order");
                    assert_eq!(
                        crate::store::metrics_to_array(&result.metrics).map(f64::to_bits),
                        reference[&spec.id],
                        "{} at {threads} threads",
                        spec.key()
                    );
                }
            }
        }
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
