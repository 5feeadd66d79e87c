//! Training-step task graphs: one batch of the baseline, Phase-BP and
//! Phase-GP schedules for each ADA-GP hardware design.
//!
//! The graphs encode the *paper's* overlap semantics (§3.7, Figures 7–9),
//! layer by layer, so that with contention disabled the simulated
//! makespan equals the analytic per-batch cycle counts of
//! [`adagp_accel::designs`] exactly — not approximately. That equality is
//! what lets the sweep's golden tests pin the simulator to the closed
//! forms bit-for-bit (see `crates/bench/tests/sim_golden.rs`). Per design
//! the schedule shape is:
//!
//! * **Baseline** — forward sweep, then backward sweep (data + weight
//!   gradients), everything serial on the PE array: `Σ (FW + BW)`.
//! * **Efficient** — the predictor shares the PE array: its fill (α)
//!   follows each layer's FW and its update (2α) follows each layer's BW.
//! * **LOW** — like Efficient plus a [`AdaGpDesign::reload_cycles`] weight
//!   reload on the array before every predictor use.
//! * **MAX** — a dedicated predictor array. In Phase GP the predictor fill
//!   for layer *i* runs concurrently with layer *i*'s FW (its input — the
//!   previous layer's output activation — is already on chip), with a
//!   per-layer synchronization barrier: `Σ max(FW, α)` plus the trailing
//!   output-layer fill. In Phase BP each layer forms a window in which the
//!   model's FW+BW runs against the predictor's fill+update:
//!   `Σ max(FW + BW, 3α)`.
//!
//! One builder emits all seven (phase, design) graphs: the design only
//! decides where the predictor runs, and that picks one of two shapes —
//! one chain on the PE array, or one window per layer (MAX).
//!
//! Contention is opt-in through [`SimConfig::dram_words_per_cycle`]: each
//! layer's weights then stream over a DRAM channel before its FW may
//! start, which exposes bandwidth stalls the closed forms cannot see. The
//! prefetch is unbounded: every [`TaskKind::WeightLoad`] has no
//! dependency and a buffer delta of 0, so all of a batch's loads queue on
//! the channel at t = 0 in task-id order, run as far ahead of compute as
//! the channel lets them, and are never charged to the buffer. How many
//! layers ahead a load may run, and what its words cost the buffer, is
//! ROADMAP item 25. A finite [`SimConfig::buffer_words`] adds the
//! second contention axis: layers whose working set exceeds the buffer
//! re-stream operands ([`adagp_accel::buffer::tiled_fw_traffic`] decides
//! how many extra words), modeled as a [`TaskKind::Spill`] task on the
//! same DRAM channel that must drain before the layer's FW starts. With
//! the channel disabled (`dram_words_per_cycle: None`) neither weight
//! loads nor spills exist, whatever the buffer knobs say — so
//! `--no-contention` always reproduces the closed forms bit-for-bit.
//!
//! A schedule is compiled once into a [`BatchGraph`]. The bandwidth only
//! sets the durations of the DRAM tasks (`words.div_ceil(bandwidth)`),
//! never which tasks exist or what they wait on, so the graph keeps each
//! DRAM task's *words* and [`BatchGraph::set_bandwidth`] re-times them:
//! [`BatchGraph::run`] then replays the batch untraced, and
//! [`simulate_batch`] is one build plus one traced run. A build emits
//! into the thread's reusable builder, summing the batch's work totals as
//! it goes, and copies each column of the graph once, at its final
//! length.

use crate::engine::{LayerTask, ResourceId, SimBuilder, SimResult, TaskGraph, TaskId, TaskKind};
use adagp_accel::buffer::{tiled_fw_traffic, BufferConfig};
use adagp_accel::dataflow::{AcceleratorConfig, Dataflow};
use adagp_accel::layer_cost::{model_costs, LayerCost, PredictorCostModel};
use adagp_accel::speedup::MODEL_BATCH;
use adagp_accel::AdaGpDesign;
use adagp_nn::models::shapes::LayerShape;
use std::cell::RefCell;
use std::sync::Arc;

/// Simulator configuration: batch size plus the contention axes — DRAM
/// bandwidth, on-chip buffer capacity and per-resource port counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Off-chip bandwidth in words per cycle; `None` disables the DRAM
    /// channel entirely (no weight streaming, no spills) — the
    /// no-contention configuration that matches the analytic model
    /// bit-for-bit.
    pub dram_words_per_cycle: Option<u64>,
    /// Mini-batch size fed to the cycle model (paper standard: 128).
    pub batch: usize,
    /// On-chip global-buffer capacity in 4-byte words; `None` models an
    /// unbounded buffer (perfect reuse, no spill traffic). Only matters
    /// while the DRAM channel exists — spills *are* DRAM traffic.
    pub buffer_words: Option<u64>,
    /// DRAM channel ports (engine resource capacity): with 1 the weight
    /// stream and spill traffic serialize head-of-line; 2 lets a spill
    /// bypass the prefetch stream (each port moves
    /// `dram_words_per_cycle`, so this scales aggregate bandwidth too).
    pub dram_ports: u32,
}

impl Default for SimConfig {
    /// Contention on at 64 words/cycle over a single-ported channel, with
    /// the paper-class 128K-word (512 KB) buffer — wide enough that large
    /// conv layers stay compute-bound, narrow enough that early
    /// high-resolution layers, FC heads and over-capacity working sets
    /// expose real streaming stalls and spills.
    fn default() -> Self {
        SimConfig {
            dram_words_per_cycle: Some(64),
            batch: MODEL_BATCH,
            buffer_words: Some(BufferConfig::default().capacity_words),
            dram_ports: 1,
        }
    }
}

impl SimConfig {
    /// Infinite-bandwidth, unbounded-buffer configuration: the simulated
    /// makespans equal the analytic per-batch cycle counts exactly.
    pub fn no_contention() -> Self {
        SimConfig {
            dram_words_per_cycle: None,
            batch: MODEL_BATCH,
            buffer_words: None,
            dram_ports: 1,
        }
    }

    /// This configuration with the DRAM bandwidth replaced.
    pub fn with_bandwidth(self, words_per_cycle: u64) -> Self {
        SimConfig {
            dram_words_per_cycle: Some(words_per_cycle),
            ..self
        }
    }
}

/// Which batch schedule to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Plain backpropagation (no predictor).
    Baseline,
    /// ADA-GP warm-up / Phase BP: backprop plus predictor training.
    Bp,
    /// ADA-GP Phase GP: forward plus gradient prediction, backward skipped.
    Gp,
}

impl Phase {
    /// Stable lowercase name (CLI and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Baseline => "baseline",
            Phase::Bp => "bp",
            Phase::Gp => "gp",
        }
    }
}

/// One layer as the simulator sees it: cycle costs plus the word counts
/// that drive contention and buffer-occupancy modeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimLayer {
    /// Display label (shared, so the label tables of the graphs built
    /// over the layer clone no strings).
    pub label: Arc<str>,
    /// Cycle costs (FW / BW / α) of the layer.
    pub cost: LayerCost,
    /// Weight words streamed from DRAM before the layer's FW (0 = none).
    pub weight_words: u64,
    /// Output-activation words held in the buffer while alive (0 = none).
    pub activation_words: u64,
    /// Excess DRAM words the finite buffer forces the layer's FW to
    /// re-stream (tiled traffic minus ideal traffic; 0 = fits).
    pub spill_words: u64,
}

impl SimLayer {
    /// A layer with costs only — no streaming, no buffer footprint.
    /// (Property tests over random cost mixes use this.)
    pub fn from_cost(label: impl Into<Arc<str>>, cost: LayerCost) -> Self {
        SimLayer {
            label: label.into(),
            cost,
            weight_words: 0,
            activation_words: 0,
            spill_words: 0,
        }
    }
}

/// Excess forward-pass DRAM words of one layer under a finite buffer:
/// the tiling model's traffic minus the infinite-buffer ideal. Monotone
/// non-increasing in the capacity (a bigger buffer never spills more).
pub fn layer_spill_words(
    buffer_words: Option<u64>,
    df: Dataflow,
    layer: &LayerShape,
    batch: usize,
) -> u64 {
    let Some(capacity_words) = buffer_words else {
        return 0;
    };
    let tiled = tiled_fw_traffic(&BufferConfig { capacity_words }, df, layer, batch).total();
    let ideal = tiled_fw_traffic(
        &BufferConfig {
            capacity_words: u64::MAX,
        },
        df,
        layer,
        batch,
    )
    .total();
    tiled - ideal
}

/// Derives the simulator's layer list for a model the same way the
/// analytic model does: [`model_costs`] on the same shapes, plus the
/// weight/activation word counts the shapes imply and the spill traffic
/// the configured buffer capacity forces ([`layer_spill_words`]).
pub fn model_sim_layers(
    cfg: &AcceleratorConfig,
    df: Dataflow,
    pred: &PredictorCostModel,
    layers: &[LayerShape],
    sim: &SimConfig,
) -> Vec<SimLayer> {
    let batch = sim.batch;
    let costs = model_costs(cfg, df, pred, layers, batch);
    layers
        .iter()
        .zip(costs)
        .map(|(l, cost)| SimLayer {
            label: l.label.as_str().into(),
            cost,
            weight_words: l.weight_count(),
            activation_words: l.out_activations() * batch as u64,
            spill_words: layer_spill_words(sim.buffer_words, df, l, batch),
        })
        .collect()
}

/// Where one batch schedule runs the predictor — all that separates the
/// baseline, Efficient, LOW and MAX schedules of a phase.
#[derive(Debug, Clone, Copy)]
enum Predictor {
    /// No predictor: the baseline.
    None,
    /// On the PE array, each use after a weight reload of `reload`
    /// cycles, if non-zero ([`AdaGpDesign::reload_cycles`]).
    Shared { reload: u64 },
    /// On its own array (MAX).
    Own(ResourceId),
}

/// One task of a chain: its kind and its cycles.
type Step = (TaskKind, u64);

impl Predictor {
    /// The PE-array steps of one predictor use: the reload, if any, then
    /// the use. None when the predictor is absent or on its own array.
    fn on_pe(self, kind: TaskKind, cycles: u64) -> [Option<Step>; 2] {
        match self {
            Predictor::Shared { reload } => [
                (reload > 0).then_some((TaskKind::PredictorReload, reload)),
                Some((kind, cycles)),
            ],
            Predictor::None | Predictor::Own(_) => [None, None],
        }
    }
}

/// The numbers one batch run yields: the makespan and buffer peak of the
/// run plus the graph's work totals — everything the training-level
/// statistics of [`crate::StepSim`] are derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Batch makespan in cycles.
    pub makespan: u64,
    /// Peak buffer occupancy in words.
    pub buffer_peak: i64,
    /// Busy cycles of the main PE array.
    pub pe_busy: u64,
    /// Σ durations of model tasks (FW, BW-data, BW-weight).
    pub model_cycles: u64,
    /// Σ durations of predictor tasks (fill, update, reload).
    pub predictor_cycles: u64,
    /// Σ durations of buffer-spill tasks (excess DRAM traffic a
    /// too-small buffer forced; 0 with an unbounded buffer or with the
    /// DRAM channel disabled).
    pub spill_cycles: u64,
}

impl BatchStats {
    /// Busy fraction of the main PE array over the batch.
    pub fn pe_utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.pe_busy as f64 / self.makespan as f64
    }

    /// How much of the predictor's work the schedule hid: `1 −
    /// (makespan − model cycles) / predictor cycles`, clamped to `[0, 1]`.
    /// 1 means every predictor cycle overlapped model compute (MAX with
    /// α ≪ FW); 0 means every predictor cycle extended the critical path
    /// (Efficient/LOW on the shared array). Stall cycles from contention
    /// count against the overlap. Returns 1 when there is no predictor
    /// work (baseline).
    pub fn overlap_efficiency(&self) -> f64 {
        if self.predictor_cycles == 0 {
            return 1.0;
        }
        let overhead = self.makespan.saturating_sub(self.model_cycles) as f64;
        (1.0 - overhead / self.predictor_cycles as f64).clamp(0.0, 1.0)
    }
}

/// One simulated batch with its full trace.
#[derive(Debug, Clone)]
pub struct BatchSim {
    /// Which schedule ran.
    pub phase: Phase,
    /// Which design ran it (`None` for the baseline).
    pub design: Option<AdaGpDesign>,
    /// The execution trace.
    pub result: SimResult,
    /// Makespan, buffer peak and work totals of the run.
    pub stats: BatchStats,
    /// Resource id of the main PE array in [`BatchSim::result`].
    pub pe_array: ResourceId,
}

impl BatchSim {
    /// Batch makespan in cycles.
    pub fn makespan(&self) -> u64 {
        self.stats.makespan
    }

    /// Busy fraction of the main PE array over the batch.
    pub fn pe_utilization(&self) -> f64 {
        self.stats.pe_utilization()
    }

    /// Predictor-overlap efficiency ([`BatchStats::overlap_efficiency`]).
    pub fn overlap_efficiency(&self) -> f64 {
        self.stats.overlap_efficiency()
    }
}

/// Splits a layer's BW cycles into the data-gradient and weight-gradient
/// halves; the halves always sum back to `bw`.
pub fn split_bw(bw: u64) -> (u64, u64) {
    let data = bw.div_ceil(2);
    (data, bw - data)
}

/// The shared layer-label table of `layers` ([`BatchGraph::build_labeled`]).
pub(crate) fn layer_labels(layers: &[SimLayer]) -> Arc<[Arc<str>]> {
    layers.iter().map(|l| l.label.clone()).collect()
}

/// One batch schedule compiled for replay: the task graph of `phase`
/// under `design`, built once per (phase, design, layers, ports, buffer).
/// Only the DRAM tasks' durations depend on the bandwidth — they carry
/// their *words* and [`BatchGraph::set_bandwidth`] re-times them — so one
/// build serves every bandwidth probe.
#[derive(Debug, Clone)]
pub struct BatchGraph {
    phase: Phase,
    design: Option<AdaGpDesign>,
    graph: TaskGraph,
    pe_array: ResourceId,
    /// Words per cycle the DRAM tasks are currently timed at (`None`:
    /// built with the channel disabled).
    bandwidth: Option<u64>,
    /// `(task, words)` of every weight-load and spill task.
    dram_words: Vec<(TaskId, u64)>,
    /// Work totals; `makespan` and `buffer_peak` are filled per run.
    totals: BatchStats,
}

thread_local! {
    /// The thread's batch emission state: a builder and a DRAM-word list
    /// that keep their capacity from one build to the next, so a build
    /// grows no column and [`SimBuilder::take_compiled`] copies each one
    /// once, at its final length.
    static SCRATCH: RefCell<(SimBuilder, Vec<(TaskId, u64)>)> = RefCell::default();
}

/// Emits one batch graph into a builder: the resources, the tasks, the
/// DRAM tasks' words and the work totals, summed as the tasks go out.
struct Emitter<'a> {
    b: &'a mut SimBuilder,
    pe: ResourceId,
    /// The DRAM channel and the words per cycle its tasks are timed at.
    dram: Option<(ResourceId, u64)>,
    layers: &'a [SimLayer],
    dram_words: &'a mut Vec<(TaskId, u64)>,
    /// Work totals; `makespan` and `buffer_peak` stay 0.
    totals: BatchStats,
}

impl<'a> Emitter<'a> {
    /// Emits one batch of `phase` under `design` over `layers` into `b`,
    /// registering the resources first.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not [`Phase::Baseline`] while `design` is
    /// `None`.
    fn emit(
        b: &'a mut SimBuilder,
        dram_words: &'a mut Vec<(TaskId, u64)>,
        phase: Phase,
        design: Option<AdaGpDesign>,
        layers: &'a [SimLayer],
        cfg: &SimConfig,
    ) -> Self {
        // Both arrays are single-ported: the paper's schedules serialize
        // through dependency chains, so a second port would change nothing.
        let pe = b.add_resource("pe-array", 1);
        let predictor = match (phase, design) {
            (Phase::Baseline, _) => Predictor::None,
            (_, Some(AdaGpDesign::Max)) => Predictor::Own(b.add_resource("predictor-array", 1)),
            (_, Some(d)) => Predictor::Shared {
                reload: d.reload_cycles(),
            },
            (_, None) => panic!("ADA-GP phases need a design"),
        };
        let dram = cfg
            .dram_words_per_cycle
            .map(|bw| (b.add_resource("dram", cfg.dram_ports), bw));
        let mut e = Emitter {
            b,
            pe,
            dram,
            layers,
            dram_words,
            totals: BatchStats {
                makespan: 0,
                buffer_peak: 0,
                pe_busy: 0,
                model_cycles: 0,
                predictor_cycles: 0,
                spill_cycles: 0,
            },
        };
        e.batch(phase, predictor);
        e
    }

    /// Appends `task` after `deps`, adding its cycles to the totals.
    fn add(&mut self, task: LayerTask, deps: impl IntoIterator<Item = TaskId>) -> TaskId {
        let totals = &mut self.totals;
        match task.kind {
            TaskKind::Forward | TaskKind::BackwardData | TaskKind::BackwardWeight => {
                totals.model_cycles += task.duration
            }
            TaskKind::PredictorFill | TaskKind::PredictorUpdate | TaskKind::PredictorReload => {
                totals.predictor_cycles += task.duration
            }
            TaskKind::Spill => totals.spill_cycles += task.duration,
            TaskKind::WeightLoad | TaskKind::Join => {}
        }
        if task.resource == Some(self.pe) {
            totals.pe_busy += task.duration;
        }
        self.b.add_layer_task(task, deps)
    }

    /// A compute task of `kind` for layer `i`, labeled `"{kind} {layer}"`.
    fn compute(
        &mut self,
        kind: TaskKind,
        i: usize,
        resource: ResourceId,
        duration: u64,
        buffer_delta: i64,
        deps: impl IntoIterator<Item = TaskId>,
    ) -> TaskId {
        self.add(
            LayerTask {
                kind,
                layer: i,
                prefix: kind.name(),
                suffix: "",
                resource: Some(resource),
                duration,
                buffer_delta,
            },
            deps,
        )
    }

    /// A DRAM-channel task streaming `words` for layer `i`, when the
    /// channel exists and there is anything to stream.
    fn dram_task(
        &mut self,
        kind: TaskKind,
        prefix: &'static str,
        i: usize,
        words: u64,
        deps: Option<TaskId>,
    ) -> Option<TaskId> {
        let (dram, bw) = self.dram?;
        if words == 0 {
            return None;
        }
        let id = self.add(
            LayerTask {
                kind,
                layer: i,
                prefix,
                suffix: "",
                resource: Some(dram),
                duration: words.div_ceil(bw),
                buffer_delta: 0,
            },
            deps,
        );
        self.dram_words.push((id, words));
        Some(id)
    }

    /// Layer `i`'s forward pass, gated on `ready` plus the layer's DRAM
    /// traffic when contention is enabled: the weight prefetch (ready at
    /// t = 0, serialized by the channel) and the buffer spill — which
    /// re-reads *operands the previous layer produced*, so it carries the
    /// same readiness dependency the FW has instead of prefetching.
    fn forward(&mut self, i: usize, ready: Option<TaskId>) -> TaskId {
        let l = &self.layers[i];
        let load = self.dram_task(TaskKind::WeightLoad, "load", i, l.weight_words, None);
        let spill = self.dram_task(TaskKind::Spill, "spill", i, l.spill_words, ready);
        self.compute(
            TaskKind::Forward,
            i,
            self.pe,
            l.cost.fw,
            l.activation_words as i64,
            [ready, load, spill].into_iter().flatten(),
        )
    }

    /// Layer `i`'s `steps` in order on `resource`, the first after
    /// `prev`; the last frees the layer's activation when `free`. Returns
    /// the chain's last task (`prev` when `steps` is empty).
    ///
    /// # Panics
    ///
    /// Panics if both `prev` and `steps` are empty.
    fn chain(
        &mut self,
        resource: ResourceId,
        i: usize,
        mut prev: Option<TaskId>,
        steps: impl IntoIterator<Item = Option<Step>>,
        free: bool,
    ) -> TaskId {
        let mut steps = steps.into_iter().flatten().peekable();
        while let Some((kind, cycles)) = steps.next() {
            let delta = if free && steps.peek().is_none() {
                -(self.layers[i].activation_words as i64)
            } else {
                0
            };
            prev = Some(self.compute(kind, i, resource, cycles, delta, prev));
        }
        prev.expect("a chain of at least one task")
    }

    /// A resourceless barrier closing layer `i`'s window, freeing the
    /// layer's activation.
    fn join(&mut self, prefix: &'static str, i: usize, deps: [TaskId; 2]) -> TaskId {
        self.add(
            LayerTask {
                kind: TaskKind::Join,
                layer: i,
                prefix,
                suffix: "",
                resource: None,
                duration: 0,
                buffer_delta: -(self.layers[i].activation_words as i64),
            },
            deps,
        )
    }

    /// Emits one batch of `phase` with the predictor at `predictor`, in
    /// one of two shapes; each layer's last task frees its activation.
    ///
    /// * **Shared array** (baseline, Efficient, LOW) — one chain on the PE
    ///   array: each layer's FW and the predictor's fill, then, unless the
    ///   phase is GP, a reversed sweep of BW-data, BW-weight and the
    ///   predictor's update.
    /// * **Own array** (MAX) — one window per layer, opened by the
    ///   previous window's join: FW (then BW-data and BW-weight) on the PE
    ///   array against the fill (then the update) on the predictor array,
    ///   which reads the layer's *input* activation, already on chip, so
    ///   it needs no FW dependency. GP ends with the output layer's fill,
    ///   which no next layer hides.
    fn batch(&mut self, phase: Phase, predictor: Predictor) {
        let (pe, layers) = (self.pe, self.layers);
        let gp = phase == Phase::Gp;
        // Layer `l`'s BW-data and BW-weight, skipped in Phase GP.
        let backward = |l: &SimLayer| {
            let (data, weight) = split_bw(l.cost.bw);
            [
                (TaskKind::BackwardData, data),
                (TaskKind::BackwardWeight, weight),
            ]
            .map(|step| (!gp).then_some(step))
        };
        let Predictor::Own(pred) = predictor else {
            let mut prev = None;
            for (i, l) in layers.iter().enumerate() {
                let fwd = self.forward(i, prev);
                let fill = predictor.on_pe(TaskKind::PredictorFill, l.cost.alpha);
                prev = Some(self.chain(pe, i, Some(fwd), fill, gp));
            }
            for (i, l) in layers.iter().enumerate().rev().filter(|_| !gp) {
                let [data, weight] = backward(l);
                let [reload, update] = predictor.on_pe(TaskKind::PredictorUpdate, 2 * l.cost.alpha);
                prev = Some(self.chain(pe, i, prev, [data, weight, reload, update], true));
            }
            return;
        };
        let mut barrier = None;
        for (i, l) in layers.iter().enumerate() {
            let fwd = self.forward(i, barrier);
            let model = self.chain(pe, i, Some(fwd), backward(l), false);
            let fill = Some((TaskKind::PredictorFill, l.cost.alpha));
            let update = (!gp).then_some((TaskKind::PredictorUpdate, 2 * l.cost.alpha));
            let predicted = self.chain(pred, i, barrier, [fill, update], false);
            let window = if gp { "slot" } else { "window" };
            barrier = Some(self.join(window, i, [model, predicted]));
        }
        if gp {
            let last = layers.len() - 1;
            self.add(
                LayerTask {
                    kind: TaskKind::PredictorFill,
                    layer: last,
                    prefix: TaskKind::PredictorFill.name(),
                    suffix: " (out)",
                    resource: Some(pred),
                    duration: layers[last].cost.alpha,
                    buffer_delta: 0,
                },
                barrier,
            );
        }
    }
}

impl BatchGraph {
    /// Compiles one batch of `phase` under `design` over `layers`.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, if `phase` is not [`Phase::Baseline`]
    /// while `design` is `None`, or if the configured DRAM bandwidth is
    /// `Some(0)` (disable contention with `None` instead).
    pub fn build(
        phase: Phase,
        design: Option<AdaGpDesign>,
        layers: &[SimLayer],
        cfg: &SimConfig,
    ) -> Self {
        Self::build_labeled(phase, design, layers, cfg, layer_labels(layers))
    }

    /// [`BatchGraph::build`] with the label table of `layers` passed in,
    /// so several graphs over one model share it ([`layer_labels`]).
    pub(crate) fn build_labeled(
        phase: Phase,
        design: Option<AdaGpDesign>,
        layers: &[SimLayer],
        cfg: &SimConfig,
        labels: Arc<[Arc<str>]>,
    ) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        assert!(
            cfg.dram_words_per_cycle != Some(0),
            "DRAM bandwidth must be positive (use None to disable contention)"
        );
        SCRATCH.with_borrow_mut(|(b, dram_words)| {
            b.reset(labels);
            dram_words.clear();
            let e = Emitter::emit(b, dram_words, phase, design, layers, cfg);
            let (pe_array, totals) = (e.pe, e.totals);
            BatchGraph {
                phase,
                design,
                graph: b.take_compiled(),
                pe_array,
                bandwidth: cfg.dram_words_per_cycle,
                dram_words: dram_words.to_vec(),
                totals,
            }
        })
    }

    /// Re-times every DRAM task to `words_per_cycle`; the graph then runs
    /// exactly as one freshly built at that bandwidth would.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_cycle == 0`, or if the graph was built with
    /// the DRAM channel disabled — enabling it changes the topology, so
    /// build with [`SimConfig::with_bandwidth`] instead.
    pub fn set_bandwidth(&mut self, words_per_cycle: u64) {
        assert!(words_per_cycle > 0, "DRAM bandwidth must be positive");
        assert!(
            self.bandwidth.is_some(),
            "graph was built without a DRAM channel"
        );
        if self.bandwidth == Some(words_per_cycle) {
            return;
        }
        self.bandwidth = Some(words_per_cycle);
        self.totals.spill_cycles = 0;
        for &(task, words) in &self.dram_words {
            let cycles = words.div_ceil(words_per_cycle);
            self.graph.set_duration(task, cycles);
            if self.graph.kind(task) == TaskKind::Spill {
                self.totals.spill_cycles += cycles;
            }
        }
    }

    /// The compiled task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Replays the batch at the current bandwidth without a trace.
    pub fn run(&self) -> BatchStats {
        let run = self.graph.run();
        BatchStats {
            makespan: run.makespan,
            buffer_peak: run.buffer_peak,
            ..self.totals
        }
    }

    /// Runs the batch at the current bandwidth with the full trace.
    pub fn simulate(self) -> BatchSim {
        let result = self.graph.simulate();
        BatchSim {
            phase: self.phase,
            design: self.design,
            stats: BatchStats {
                makespan: result.makespan,
                buffer_peak: result.buffer_peak,
                ..self.totals
            },
            result,
            pe_array: self.pe_array,
        }
    }
}

/// Simulates one batch of `phase` under `design` over `layers`: one graph
/// build plus one traced run.
///
/// # Panics
///
/// As [`BatchGraph::build`].
pub fn simulate_batch(
    phase: Phase,
    design: Option<AdaGpDesign>,
    layers: &[SimLayer],
    cfg: &SimConfig,
) -> BatchSim {
    BatchGraph::build(phase, design, layers, cfg).simulate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_accel::designs::{baseline_batch_cycles, bp_batch_cycles, gp_batch_cycles};

    fn layers() -> Vec<SimLayer> {
        [
            LayerCost {
                fw: 1000,
                bw: 2000,
                alpha: 100,
            },
            LayerCost {
                fw: 500,
                bw: 1001,
                alpha: 80,
            },
            LayerCost {
                fw: 2000,
                bw: 4000,
                alpha: 150,
            },
        ]
        .iter()
        .enumerate()
        .map(|(i, &cost)| SimLayer {
            label: format!("l{i}").into(),
            cost,
            weight_words: 10_000,
            activation_words: 5_000,
            spill_words: 0,
        })
        .collect()
    }

    fn spilling_layers() -> Vec<SimLayer> {
        layers()
            .into_iter()
            .map(|mut l| {
                l.spill_words = 50_000;
                l
            })
            .collect()
    }

    fn costs() -> Vec<LayerCost> {
        layers().iter().map(|l| l.cost).collect()
    }

    #[test]
    fn no_contention_matches_analytic_batch_cycles_exactly() {
        let cfg = SimConfig::no_contention();
        let ls = layers();
        assert_eq!(
            simulate_batch(Phase::Baseline, None, &ls, &cfg).makespan(),
            baseline_batch_cycles(&costs())
        );
        for d in AdaGpDesign::all() {
            assert_eq!(
                simulate_batch(Phase::Bp, Some(d), &ls, &cfg).makespan(),
                bp_batch_cycles(d, &costs()),
                "BP {}",
                d.name()
            );
            assert_eq!(
                simulate_batch(Phase::Gp, Some(d), &ls, &cfg).makespan(),
                gp_batch_cycles(d, &costs()),
                "GP {}",
                d.name()
            );
        }
    }

    #[test]
    fn max_bp_with_huge_alpha_hits_the_predictor_bound() {
        // One layer where 3α > FW+BW: the window is predictor-bound.
        let ls = vec![SimLayer::from_cost(
            "fat",
            LayerCost {
                fw: 100,
                bw: 200,
                alpha: 400,
            },
        )];
        let sim = simulate_batch(
            Phase::Bp,
            Some(AdaGpDesign::Max),
            &ls,
            &SimConfig::no_contention(),
        );
        assert_eq!(sim.makespan(), 1200); // 3α
        assert_eq!(
            sim.makespan(),
            bp_batch_cycles(AdaGpDesign::Max, &[ls[0].cost])
        );
    }

    #[test]
    fn contention_only_adds_cycles() {
        let ls = layers();
        for (phase, design) in [
            (Phase::Baseline, None),
            (Phase::Bp, Some(AdaGpDesign::Max)),
            (Phase::Gp, Some(AdaGpDesign::Efficient)),
        ] {
            let free = simulate_batch(phase, design, &ls, &SimConfig::no_contention()).makespan();
            let tight = simulate_batch(
                phase,
                design,
                &ls,
                &SimConfig::no_contention().with_bandwidth(4),
            )
            .makespan();
            let loose = simulate_batch(
                phase,
                design,
                &ls,
                &SimConfig::no_contention().with_bandwidth(1_000_000),
            )
            .makespan();
            assert!(tight >= loose, "{phase:?}");
            assert!(loose >= free, "{phase:?}");
        }
    }

    #[test]
    fn overlap_efficiency_separates_the_designs() {
        let ls = layers();
        let cfg = SimConfig::no_contention();
        let eff = simulate_batch(Phase::Gp, Some(AdaGpDesign::Efficient), &ls, &cfg);
        let max = simulate_batch(Phase::Gp, Some(AdaGpDesign::Max), &ls, &cfg);
        let base = simulate_batch(Phase::Baseline, None, &ls, &cfg);
        assert_eq!(eff.overlap_efficiency(), 0.0); // fully exposed
        assert!(
            max.overlap_efficiency() > 0.5,
            "{}",
            max.overlap_efficiency()
        );
        assert_eq!(base.overlap_efficiency(), 1.0); // nothing to hide
        assert_eq!(base.pe_utilization(), 1.0);
        assert!(max.pe_utilization() < 1.0); // trailing fill idles the array
    }

    #[test]
    fn buffer_occupancy_rises_through_fw_and_returns_to_zero() {
        let ls = layers();
        let sim = simulate_batch(Phase::Baseline, None, &ls, &SimConfig::no_contention());
        assert_eq!(sim.result.buffer_peak, 15_000); // all three alive at FW end
        assert_eq!(sim.result.buffer_curve.last().unwrap().1, 0);
        let gp = simulate_batch(
            Phase::Gp,
            Some(AdaGpDesign::Efficient),
            &ls,
            &SimConfig::no_contention(),
        );
        // GP frees each activation right after its prediction: lower peak.
        assert!(gp.result.buffer_peak < sim.result.buffer_peak);
    }

    #[test]
    fn spills_add_cycles_and_are_metered() {
        let cfg = SimConfig::default(); // 64 w/c: 50_000 words ≈ 782 cycles/layer
        for (phase, design) in [
            (Phase::Baseline, None),
            (Phase::Bp, Some(AdaGpDesign::Max)),
            (Phase::Gp, Some(AdaGpDesign::Efficient)),
        ] {
            let clean = simulate_batch(phase, design, &layers(), &cfg);
            let spilled = simulate_batch(phase, design, &spilling_layers(), &cfg);
            assert_eq!(clean.stats.spill_cycles, 0, "{phase:?}");
            assert_eq!(
                spilled.stats.spill_cycles,
                3 * 50_000u64.div_ceil(64),
                "{phase:?}"
            );
            assert!(spilled.makespan() > clean.makespan(), "{phase:?}");
        }
    }

    #[test]
    fn no_contention_ignores_spill_words_and_buffer_knobs() {
        // The DRAM channel is the only place spill traffic can land: with
        // it disabled the buffer knobs are inert and the analytic equality
        // holds even for layers that would spill.
        let cfg = SimConfig {
            buffer_words: Some(1), // absurdly small — must not matter
            ..SimConfig::no_contention()
        };
        let ls = spilling_layers();
        let cs = costs();
        let sim = simulate_batch(Phase::Baseline, None, &ls, &cfg);
        assert_eq!(sim.stats.spill_cycles, 0);
        assert_eq!(sim.makespan(), baseline_batch_cycles(&cs));
    }

    #[test]
    fn spill_gates_the_layers_forward_pass() {
        // One layer, huge spill: FW may only start once the re-stream
        // drains, so the makespan is load + spill + FW exactly.
        let mut l = SimLayer::from_cost(
            "solo",
            LayerCost {
                fw: 1000,
                bw: 2000,
                alpha: 10,
            },
        );
        l.weight_words = 640;
        l.spill_words = 6_400;
        let cfg = SimConfig::default(); // 64 words/cycle
        let sim = simulate_batch(Phase::Baseline, None, &[l], &cfg);
        assert_eq!(sim.makespan(), 10 + 100 + 1000 + 2000);
    }

    #[test]
    fn second_dram_port_lets_spills_bypass_the_weight_stream() {
        // Single-ported: layer 1's spill queues behind layer 2's prefetch;
        // a second port serves them concurrently, so the makespan can only
        // shrink (and here strictly does).
        let one = SimConfig::default();
        let two = SimConfig {
            dram_ports: 2,
            ..SimConfig::default()
        };
        let ls: Vec<SimLayer> = spilling_layers()
            .into_iter()
            .map(|mut l| {
                l.weight_words = 500_000;
                l
            })
            .collect();
        let serial = simulate_batch(Phase::Baseline, None, &ls, &one);
        let ported = simulate_batch(Phase::Baseline, None, &ls, &two);
        assert!(ported.makespan() < serial.makespan());
    }

    #[test]
    fn model_layers_spill_only_when_the_buffer_is_too_small() {
        use adagp_nn::models::shapes::LayerShape;
        let shapes = vec![
            LayerShape::conv("small", 8, 8, 3, 14),    // 576 weights
            LayerShape::conv("huge", 512, 512, 3, 14), // 2.36M weights
        ];
        let acfg = AcceleratorConfig::default();
        let pred = PredictorCostModel::default();
        let sim_cfg = SimConfig::default(); // 128K-word buffer
        let ls = model_sim_layers(&acfg, Dataflow::WeightStationary, &pred, &shapes, &sim_cfg);
        assert_eq!(ls[0].spill_words, 0, "fitting layer must not spill");
        assert!(ls[1].spill_words > 0, "over-capacity layer must spill");
        let unbounded = model_sim_layers(
            &acfg,
            Dataflow::WeightStationary,
            &pred,
            &shapes,
            &SimConfig {
                buffer_words: None,
                ..sim_cfg
            },
        );
        assert!(unbounded.iter().all(|l| l.spill_words == 0));
        // A bigger buffer never spills more, layer by layer.
        let bigger = model_sim_layers(
            &acfg,
            Dataflow::WeightStationary,
            &pred,
            &shapes,
            &SimConfig {
                buffer_words: Some(1 << 22),
                ..sim_cfg
            },
        );
        for (b, s) in bigger.iter().zip(&ls) {
            assert!(b.spill_words <= s.spill_words);
        }
    }

    #[test]
    #[should_panic(expected = "DRAM bandwidth must be positive")]
    fn zero_bandwidth_is_rejected_not_clamped() {
        let ls = layers();
        simulate_batch(
            Phase::Baseline,
            None,
            &ls,
            &SimConfig::no_contention().with_bandwidth(0),
        );
    }

    #[test]
    fn every_column_of_a_compiled_graph_is_allocated_at_its_final_length() {
        use adagp_nn::models::shapes::{model_shapes, InputScale};
        use adagp_nn::models::CnnModel;
        let (acfg, pred) = (AcceleratorConfig::default(), PredictorCostModel::default());
        let cfg = SimConfig::default();
        let mut schedules = vec![(Phase::Baseline, None)];
        for d in AdaGpDesign::all() {
            schedules.extend([(Phase::Bp, Some(d)), (Phase::Gp, Some(d))]);
        }
        for model in CnnModel::all() {
            let shapes = model_shapes(model, InputScale::ImageNet);
            let ls = model_sim_layers(&acfg, Dataflow::WeightStationary, &pred, &shapes, &cfg);
            for &(phase, design) in &schedules {
                // Built after larger and smaller graphs on this thread: the
                // builder's capacity from one build never leaks into the
                // next graph's columns.
                let g = BatchGraph::build(phase, design, &ls, &cfg);
                for (column, len, capacity) in g.graph.column_sizes() {
                    assert_eq!(capacity, len, "{model:?} {phase:?} {design:?}: {column}");
                }
                assert_eq!(g.dram_words.capacity(), g.dram_words.len());
            }
        }
    }

    #[test]
    fn split_bw_halves_sum_back() {
        for bw in [0u64, 1, 2, 3, 1001, 4000] {
            let (d, w) = split_bw(bw);
            assert_eq!(d + w, bw);
            assert!(d >= w);
        }
    }

    #[test]
    fn task_graph_has_expected_span_counts() {
        let ls = layers();
        let sim = simulate_batch(
            Phase::Bp,
            Some(AdaGpDesign::Low),
            &ls,
            &SimConfig::no_contention(),
        );
        // Per layer: fwd, reload, fill, bwd-data, bwd-weight, reload, update.
        assert_eq!(sim.result.spans.len(), 7 * ls.len());
        let sim = simulate_batch(
            Phase::Gp,
            Some(AdaGpDesign::Max),
            &ls,
            &SimConfig::default(),
        );
        // Per layer: load, fwd, fill, join; plus one trailing fill.
        assert_eq!(sim.result.spans.len(), 4 * ls.len() + 1);
    }
}
