//! # adagp-sim
//!
//! A discrete-event, layer-granular simulator of the ADA-GP training
//! accelerator. Where `adagp-accel` sums closed-form per-layer costs,
//! this crate *executes* one training step as a DAG of per-layer tasks
//! (forward, backward-data, backward-weight, predictor-fill,
//! predictor-update, weight streaming) over capacity-limited resources —
//! the PE array, ADA-GP-MAX's predictor array, and the off-chip DRAM
//! channel — on a virtual cycle clock, and reports *where* the overlap
//! lands: per-task spans (a Gantt timeline), per-resource utilization,
//! buffer occupancy, and Chrome-trace JSON for `chrome://tracing` /
//! Perfetto.
//!
//! The two models are pinned together: with contention disabled
//! ([`SimConfig::no_contention`]) the simulated makespans equal the
//! analytic per-batch cycle counts of [`adagp_accel::designs`] exactly,
//! and the derived training speed-ups are bit-identical to
//! [`adagp_accel::speedup::training_speedup`] (golden-tested over the
//! full fig17 grid in `adagp-bench`). With contention enabled, weight
//! streaming serializes on the DRAM channel and the difference between
//! simulated and analytic cycles *is* the bandwidth stall — a number the
//! closed forms cannot produce. A finite [`SimConfig::buffer_words`]
//! adds the second axis: layers whose working set exceeds the on-chip
//! buffer re-stream operands ([`adagp_accel::buffer`]'s tiling model
//! decides how many words) as [`TaskKind::Spill`] tasks on the same DRAM
//! channel, and [`SimConfig`] port counts turn any resource multi-ported
//! (the engine admits up to `capacity` tasks at once).
//!
//! * [`engine`] — the deterministic event core, *compile once, replay
//!   many*: a [`SimBuilder`] compiles tasks into a [`TaskGraph`]
//!   (struct-of-arrays columns, CSR adjacency, labels rendered on
//!   demand), and one event loop runs it either untraced
//!   ([`TaskGraph::run`]: makespan and buffer peak) or traced
//!   ([`TaskGraph::simulate`]: spans, ready cycles, admission causes,
//!   busy/occupancy accounting) over per-thread reusable scratch.
//! * [`workload`] — batch task graphs per phase × design, mirroring the
//!   paper's §3.7 overlap semantics layer by layer. One builder emits all
//!   of them: the design only decides where the predictor runs (nowhere,
//!   on the PE array with or without LOW's reload, or on MAX's own
//!   array), which picks one of two shapes — one chain on the PE array or
//!   one window per layer. A [`BatchGraph`] is built once per (phase,
//!   design, layers, ports, buffer); its DRAM tasks carry their words and
//!   are re-timed per bandwidth ([`BatchGraph::set_bandwidth`]), so
//!   [`simulate_batch`] is one build plus one traced run and a bandwidth
//!   probe is one untraced replay.
//! * [`step`] — training-run aggregation to cycles, speed-up, utilization
//!   and overlap-efficiency metrics, each weighted by the analytic
//!   model's own epoch blend ([`epoch_total`]); [`StepGraphs`] holds the
//!   three compiled schedules of one design point.
//! * [`steps`] — the §3.7 step timeline (Figures 7–9), now *simulated*
//!   instead of closed-form; it also prices the DNI comparison.
//! * [`schedule`] — multi-device pipeline schedules (GPipe, DAPPLE's 1F1B
//!   and ADA-GP's GP→BP pairs, §3.8/§6.5) as task graphs over one
//!   resource per device; `adagp-pipeline`'s closed forms are pinned to
//!   their makespans.
//! * [`trace`] — Chrome-trace JSON export.
//! * [`report`] — plain-text timeline and utilization reports, and the
//!   bridge into `adagp-obs`'s critical-path analyzer
//!   ([`report::critical_path`]): the engine records each task's ready
//!   cycle and admission cause, so the zero-slack chain walk reproduces
//!   the makespan bit-exactly and attributes it per resource and kind.
//!
//! ## Example
//!
//! ```
//! use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
//! use adagp_accel::speedup::EpochMix;
//! use adagp_nn::models::{shapes, CnnModel};
//! use adagp_sim::{model_sim_layers, SimConfig, StepSim};
//!
//! let shapes = shapes::model_shapes(CnnModel::Vgg13, shapes::InputScale::Cifar);
//! let cfg = SimConfig::no_contention();
//! let layers = model_sim_layers(
//!     &AcceleratorConfig::default(),
//!     Dataflow::WeightStationary,
//!     &Default::default(),
//!     &shapes,
//!     &cfg,
//! );
//! let sim = StepSim::run(AdaGpDesign::Max, &layers, &EpochMix::paper(), &cfg);
//! assert!(sim.training_speedup() > 1.0);
//! assert!(sim.overlap_efficiency() > 0.9); // MAX hides the predictor
//! ```

pub mod engine;
pub mod report;
pub mod schedule;
pub mod step;
pub mod steps;
pub mod trace;
pub mod workload;

pub use adagp_accel::speedup::epoch_total;
pub use engine::{
    LayerTask, ResourceId, ResourceSpec, RunStats, SimBuilder, SimResult, Span, TaskGraph, TaskId,
    TaskKind, TaskSpec,
};
pub use report::{crit_tasks, critical_path};
pub use schedule::{pipeline_graph, PipelineOrder};
pub use step::{StepGraphs, StepSim};
pub use steps::{step_timeline, StepTimeline};
pub use trace::{chrome_trace, write_chrome_trace};
pub use workload::{
    layer_spill_words, model_sim_layers, simulate_batch, BatchGraph, BatchSim, BatchStats, Phase,
    SimConfig, SimLayer,
};
