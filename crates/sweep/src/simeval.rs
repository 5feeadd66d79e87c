//! The sim-backed cell evaluator: every grid cell run through the
//! `adagp-sim` discrete-event simulator.
//!
//! A cell's four simulated columns (`sim_cycles`, `pe_utilization`,
//! `overlap_efficiency`, `spill_cycles`; [`SimCellDetail`]) come from its
//! two ADA-GP batches, BP and GP, under the default contention-enabled
//! [`SimConfig`]. Both paths to them compile the same `CellGraphs` — the
//! layer list and the two batch graphs — and replay it at the cell's
//! resolved config ([`cell_sim_config`]):
//!
//! * [`crate::runner::evaluate_cell`] reads the two batches from the
//!   **batch memo**: one entry per `BatchMemoKey`, the exact set of
//!   inputs the simulator reads, holding the two batches'
//!   [`adagp_sim::BatchStats`]. The epoch mix is applied after the
//!   replay, so cells that differ only in schedule share an entry, and so
//!   do a CIFAR-10 cell and its CIFAR-100 twin (one input scale, one
//!   layer table). A cell is evaluated in its group: the cells whose
//!   batch keys differ at most in the bandwidth (`GroupKey`), i.e. its
//!   bandwidth and schedule siblings. On the group's first miss it
//!   compiles `CellGraphs`, and each miss re-times the set to its cell's
//!   bandwidth and replays it untraced; the same set serves every
//!   bandwidth probe of [`crate::roofline`]'s knee search when the knee
//!   memo misses too. A group whose cells hit both memos builds nothing.
//! * [`simulate_cell`] is the same simulated half on its own, under any
//!   base config: it compiles the set, replays it once and keeps nothing.
//!
//! Neither reads the baseline batch, so neither builds it; the
//! independent reference that does is [`adagp_sim::StepSim::run`]. With
//! [`SimConfig::no_contention`] the simulated cycles are bit-identical to
//! the analytic `adagp_cycles` (the sim crate's contract); the golden
//! test in `adagp-bench` asserts that over the full fig17 grid.

use crate::grid::CellSpec;
use crate::shapes::cached_shapes;
use adagp_accel::layer_cost::PredictorCostModel;
use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
use adagp_nn::models::shapes::InputScale;
use adagp_nn::models::CnnModel;
use adagp_obs as obs;
use adagp_sim::{model_sim_layers, AdaGpGraphs, AdaGpSim, BatchStats, SimConfig, SimLayer};
use std::sync::{Arc, OnceLock};

/// One cell's simulated columns: the epoch-weighted statistics of its
/// two ADA-GP batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCellDetail {
    /// Simulated ADA-GP training cycles (epoch-mix weighted).
    pub sim_cycles: f64,
    /// Epoch-weighted main PE-array utilization.
    pub pe_utilization: f64,
    /// Epoch-weighted predictor-overlap efficiency.
    pub overlap_efficiency: f64,
    /// Epoch-weighted buffer-spill cycles of the ADA-GP run (exactly 0
    /// with contention off or an unbounded buffer).
    pub spill_cycles: f64,
}

impl From<AdaGpSim> for SimCellDetail {
    fn from(sim: AdaGpSim) -> Self {
        SimCellDetail {
            sim_cycles: sim.training_cycles(),
            pe_utilization: sim.pe_utilization(),
            overlap_efficiency: sim.overlap_efficiency(),
            spill_cycles: sim.spill_cycles(),
        }
    }
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
pub(crate) fn cell_layers(spec: &CellSpec, cfg: &SimConfig) -> Vec<SimLayer> {
    model_sim_layers(
        &AcceleratorConfig::default(),
        spec.dataflow,
        &PredictorCostModel::default(),
        &cached_shapes(spec.model, spec.dataset.input_scale()),
        cfg,
    )
}

/// Memo key of one cell's simulated BP and GP batches: every input the
/// simulator reads, as **named fields** (the pattern of
/// [`crate::roofline::KneeMemoKey`]). The schedule is absent — the epoch
/// mix weighs the batches after the replay — and so is the dataset,
/// which reaches the layer shapes only through its input scale.
/// `AcceleratorConfig::default()` and `PredictorCostModel::default()`
/// are constants of every cell ([`cell_layers`]); an axis that varies
/// either one must add a field here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchMemoKey {
    model: CnnModel,
    input_scale: InputScale,
    dataflow: Dataflow,
    design: AdaGpDesign,
    /// Resolved DRAM bandwidth (words/cycle), `None` = no channel.
    dram_words_per_cycle: Option<u64>,
    /// Resolved simulation batch size.
    batch: usize,
    /// Resolved buffer capacity (words), `None` = unbounded.
    buffer_words: Option<u64>,
    /// DRAM channel port multiplicity.
    dram_ports: u32,
}

impl BatchMemoKey {
    /// The key of `spec`'s batches under the resolved config `cfg`
    /// ([`cell_sim_config`]).
    pub(crate) fn new(spec: &CellSpec, cfg: &SimConfig) -> Self {
        BatchMemoKey {
            model: spec.model,
            input_scale: spec.dataset.input_scale(),
            dataflow: spec.dataflow,
            design: spec.design,
            dram_words_per_cycle: cfg.dram_words_per_cycle,
            batch: cfg.batch,
            buffer_words: cfg.buffer_words,
            dram_ports: cfg.dram_ports,
        }
    }
}

/// The key of the group a cell is evaluated in: its [`BatchMemoKey`] with
/// the bandwidth erased. Whether the DRAM channel exists stays in it,
/// because that decides which tasks the graphs have; the bandwidth only
/// times them, so every cell of a group can replay one compiled set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct GroupKey(BatchMemoKey);

impl BatchMemoKey {
    /// The key of the group this cell's batches belong to.
    pub(crate) fn group(&self) -> GroupKey {
        GroupKey(BatchMemoKey {
            dram_words_per_cycle: self.dram_words_per_cycle.map(|_| 0),
            ..*self
        })
    }
}

/// Compiles the BP and GP schedules of `design` over `layers`, counting
/// both graphs in `sweep_graph_builds_total` (process-wide).
pub(crate) fn build_graphs(
    design: AdaGpDesign,
    layers: &[SimLayer],
    cfg: &SimConfig,
) -> AdaGpGraphs {
    static BUILDS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    BUILDS
        .get_or_init(|| obs::registry().counter("sweep_graph_builds_total"))
        .add(2);
    AdaGpGraphs::build(design, layers, cfg)
}

/// Everything the cells of one group simulate on: the resolved config,
/// the layer list and the two compiled ADA-GP batch graphs (BP, GP).
/// Built only on a memo miss, at most once per group: each cell re-times
/// the set to its own bandwidth ([`CellGraphs::batch_stats`]), and the set
/// serves every probe of [`crate::roofline`]'s knee search. The set itself
/// is never cached — the memos keep only what it yields. Nothing reads
/// the baseline batch, so the set does not hold it.
pub(crate) struct CellGraphs {
    /// [`cell_sim_config`]`(spec, base)` of the cell that built the set;
    /// its bandwidth is whichever one the graphs were compiled at.
    pub cfg: SimConfig,
    /// `cell_layers(spec, cfg)`.
    pub layers: Vec<SimLayer>,
    /// The compiled BP and GP schedules.
    pub graphs: AdaGpGraphs,
}

impl CellGraphs {
    /// Compiles `spec`'s two ADA-GP batch schedules under
    /// [`cell_sim_config`]`(spec, base)`.
    pub fn build(spec: &CellSpec, base: &SimConfig) -> Self {
        let cfg = cell_sim_config(spec, base);
        let layers = cell_layers(spec, &cfg);
        let graphs = build_graphs(spec.design, &layers, &cfg);
        CellGraphs {
            cfg,
            layers,
            graphs,
        }
    }

    /// The BP and GP batches re-timed to `cfg`'s bandwidth and replayed
    /// untraced: the batch memo's value for a cell of this group resolved
    /// to `cfg`.
    pub fn batch_stats(&mut self, cfg: &SimConfig) -> [BatchStats; 2] {
        if let Some(bw) = cfg.dram_words_per_cycle {
            self.graphs.set_bandwidth(bw);
        }
        [self.graphs.bp.run(), self.graphs.gp.run()]
    }
}

/// Simulates one cell under [`cell_sim_config`]`(spec, base)`: the
/// simulated half of [`crate::runner::evaluate_cell`] — the same compiled
/// BP / GP set, replayed untraced at the cell's resolved config — with no
/// memo, so every call compiles and replays anew (two graphs in
/// `sweep_graph_builds_total`).
pub fn simulate_cell(spec: &CellSpec, base: &SimConfig) -> SimCellDetail {
    let mut set = CellGraphs::build(spec, base);
    let cfg = set.cfg;
    let [bp, gp] = set.batch_stats(&cfg);
    let mix = spec.schedule.mix();
    AdaGpSim { bp, gp, mix }.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DatasetScale, PhaseSchedule};
    use adagp_accel::speedup::{baseline_training_cycles, training_speedup};
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
        let mix = PhaseSchedule::Paper.mix();
        let cfg = AcceleratorConfig::default();
        let baseline = baseline_training_cycles(&cfg, Dataflow::WeightStationary, &shapes, &mix);
        let direct = training_speedup(
            &cfg,
            Dataflow::WeightStationary,
            AdaGpDesign::Max,
            &shapes,
            &mix,
        );
        assert_eq!((baseline / d.sim_cycles).to_bits(), direct.to_bits());
    }

    #[test]
    fn no_contention_base_wins_over_cell_overrides() {
        // A contention-off base on the bandwidth grid: the cells carry
        // bandwidth/buffer overrides, but the base must silence them —
        // zero spills, analytic-exact cycles.
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
        assert_eq!(d.sim_cycles.to_bits(), plain.sim_cycles.to_bits());

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
        assert!(tight.sim_cycles >= free.sim_cycles);
        assert!(tight.pe_utilization <= free.pe_utilization + 1e-12);
        assert!(tight.spill_cycles >= free.spill_cycles);
    }

    #[test]
    fn sim_grid_is_thread_count_invariant_csv_bytes() {
        use crate::store::csv_float;
        let grid = crate::presets::smoke();
        let csv = || {
            let rows = adagp_runtime::pool().parallel_map(grid.expand(), |spec| {
                let d = simulate_cell(&spec, &SimConfig::default());
                format!(
                    "{},{},{},{},{}\n",
                    spec.id,
                    csv_float(d.sim_cycles),
                    csv_float(d.pe_utilization),
                    csv_float(d.overlap_efficiency),
                    csv_float(d.spill_cycles),
                )
            });
            rows.concat()
        };
        let reference = adagp_runtime::with_threads(1, csv);
        for threads in [2, 4] {
            let got = adagp_runtime::with_threads(threads, csv);
            assert_eq!(got, reference, "threads={threads}");
        }
        assert_eq!(reference.lines().count(), grid.cell_count());
    }

    #[test]
    fn batch_key_separates_every_sim_knob_bandwidth_included() {
        use crate::roofline::{KneeMemoKey, KNEE_TOLERANCE};
        let base = SimConfig::default();
        let spec = |model, dataset, dataflow, design, schedule, bw, buf| {
            CellSpec::with_contention(dataflow, dataset, model, design, schedule, bw, buf)
        };
        let vgg = |bw, buf| {
            spec(
                CnnModel::Vgg13,
                DatasetScale::Cifar10,
                Dataflow::WeightStationary,
                AdaGpDesign::Max,
                PhaseSchedule::Paper,
                bw,
                buf,
            )
        };
        let batch = |s: &CellSpec| BatchMemoKey::new(s, &cell_sim_config(s, &base));
        let knee = |s: &CellSpec| KneeMemoKey::new(s, &cell_sim_config(s, &base), KNEE_TOLERANCE);
        let reference = vgg(None, None);

        // Bandwidth: the knee key ignores it (the search is the bandwidth
        // sweep), the batch key does not (it times the replay).
        let narrow = vgg(Some(8), None);
        assert_eq!(knee(&reference), knee(&narrow));
        assert_ne!(batch(&reference), batch(&narrow));

        // Schedule and dataset-at-one-scale share batches: the mix is
        // applied after the replay, CIFAR-100 has CIFAR-10's shapes.
        let shares = [
            spec(
                CnnModel::Vgg13,
                DatasetScale::Cifar10,
                Dataflow::WeightStationary,
                AdaGpDesign::Max,
                PhaseSchedule::SteadyOnly,
                None,
                None,
            ),
            spec(
                CnnModel::Vgg13,
                DatasetScale::Cifar100,
                Dataflow::WeightStationary,
                AdaGpDesign::Max,
                PhaseSchedule::Paper,
                None,
                None,
            ),
        ];
        for s in &shares {
            assert_eq!(batch(&reference), batch(s), "{}", s.key());
        }

        // Every other knob the simulator reads keys a distinct slot.
        let separated = [
            vgg(None, Some(1 << 14)),
            spec(
                CnnModel::ResNet50,
                DatasetScale::Cifar10,
                Dataflow::WeightStationary,
                AdaGpDesign::Max,
                PhaseSchedule::Paper,
                None,
                None,
            ),
            spec(
                CnnModel::Vgg13,
                DatasetScale::ImageNet,
                Dataflow::WeightStationary,
                AdaGpDesign::Max,
                PhaseSchedule::Paper,
                None,
                None,
            ),
            spec(
                CnnModel::Vgg13,
                DatasetScale::Cifar10,
                Dataflow::RowStationary,
                AdaGpDesign::Max,
                PhaseSchedule::Paper,
                None,
                None,
            ),
            spec(
                CnnModel::Vgg13,
                DatasetScale::Cifar10,
                Dataflow::WeightStationary,
                AdaGpDesign::Efficient,
                PhaseSchedule::Paper,
                None,
                None,
            ),
        ];
        for s in &separated {
            assert_ne!(batch(&reference), batch(s), "{}", s.key());
        }
        let cfg = cell_sim_config(&reference, &base);
        for other in [
            SimConfig {
                batch: cfg.batch + 1,
                ..cfg
            },
            SimConfig {
                dram_ports: cfg.dram_ports + 1,
                ..cfg
            },
            SimConfig {
                dram_words_per_cycle: None,
                ..cfg
            },
        ] {
            assert_ne!(
                BatchMemoKey::new(&reference, &other),
                batch(&reference),
                "{other:?}"
            );
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
        assert!(max.sim_cycles < eff.sim_cycles);
    }

    #[test]
    fn every_preset_graph_replays_by_a_pass_that_is_the_event_loop() {
        // Every graph a cold pass of the eight benchmark presets compiles
        // (624 builds of 290 distinct groups, a BP and a GP graph each):
        // each is order-determinate, and its untraced replay starts every
        // task at the cycle the traced event loop does.
        let base = SimConfig::default();
        let mut seen = std::collections::HashSet::new();
        let specs: Vec<CellSpec> = [
            "fig17-ws",
            "fig18-rs",
            "fig19-is",
            "dataflows",
            "schedules",
            "bandwidth",
            "energy",
            "roofline",
        ]
        .iter()
        .flat_map(|name| {
            crate::presets::by_name(name)
                .expect("known preset")
                .expand()
        })
        .filter(|spec| seen.insert(BatchMemoKey::new(spec, &cell_sim_config(spec, &base)).group()))
        .collect();
        assert_eq!(specs.len(), 290, "groups of the eight presets");
        let tasks = adagp_runtime::pool().parallel_map(specs, |spec| {
            let mut set = CellGraphs::build(&spec, &base);
            let mut tasks = 0;
            for graph in [&mut set.graphs.bp, &mut set.graphs.gp] {
                assert!(graph.graph().is_order_determinate(), "{}", spec.key());
                for bw in [1, 3, 64, 1 << 20] {
                    graph.set_bandwidth(bw);
                    let looped = graph.clone().simulate().result;
                    assert_eq!(
                        graph.graph().start_times(),
                        looped.start_of,
                        "{} at {bw} w/c",
                        spec.key()
                    );
                    tasks += looped.start_of.len();
                }
            }
            tasks
        });
        assert_eq!(tasks.iter().sum::<usize>(), 4 * 316_852, "tasks compared");
    }
}
