//! # adagp-accel
//!
//! Analytic models of the DNN training accelerator used in the ADA-GP
//! paper's evaluation (MICRO 2023, §4–§6): a 180-PE weight-stationary
//! systolic baseline with WS/OS/IS/RS dataflows, the three ADA-GP hardware
//! designs (LOW / Efficient / MAX), per-layer cycle costs, DRAM-traffic
//! energy, and FPGA/ASIC resource/area/power models calibrated to the
//! paper's Tables 4–5.
//!
//! The paper itself reasons about performance with a step/cycle analytic
//! model (Figures 7–9: forward = 1 step per layer, backward = 2 steps,
//! predictor latency α); this crate implements that model quantitatively
//! over the *paper-scale* layer shapes from `adagp_nn::models::shapes`.
//! The array itself is modelled only through these closed forms
//! ([`layer_cost`]); there is no cycle-stepped PE simulation, and
//! `adagp-sim` schedules the same per-layer costs as events.
//!
//! ## Example
//!
//! ```
//! use adagp_accel::{AcceleratorConfig, Dataflow, designs::AdaGpDesign, speedup};
//! use adagp_nn::models::{shapes, CnnModel};
//!
//! let cfg = AcceleratorConfig::default();
//! let layers = shapes::model_shapes(CnnModel::Vgg13, shapes::InputScale::Cifar);
//! let s = speedup::training_speedup(
//!     &cfg, Dataflow::WeightStationary, AdaGpDesign::Max, &layers, &speedup::EpochMix::paper(),
//! );
//! assert!(s > 1.0);
//! ```

pub mod buffer;
pub mod dataflow;
pub mod designs;
pub mod energy;
pub mod layer_cost;
pub mod speedup;
pub mod synthesis;
pub mod timeline;

pub use dataflow::{AcceleratorConfig, Dataflow};
pub use designs::AdaGpDesign;
pub use layer_cost::{LayerCost, PredictorCostModel};
