//! # adagp-pipeline
//!
//! Closed-form step counts of the multi-device pipeline schemes (§3.8,
//! §6.5 of the ADA-GP paper): GPipe, DAPPLE and Chimera baselines plus the
//! ADA-GP overlays that fill their pipeline bubbles during Phase GP.
//!
//! The paper's setting: four devices, each mini-batch split into four
//! micro-batches, one *step* = the forward time of one micro-batch on one
//! device, backward = two steps. Under those parameters the paper reports:
//!
//! * GPipe / DAPPLE: 21 steps per batch; ADA-GP finishes a GP+BP batch
//!   pair in 25 steps (§6.5.1–6.5.2) → up to 42/25 ≈ 1.68× speed-up.
//! * Chimera: 16 steps per batch; ADA-GP pairs take 20 steps (§6.5.3) →
//!   up to 32/20 = 1.6×.
//!
//! The schedules themselves run on the event engine
//! (`adagp_sim::schedule`); the GPipe and DAPPLE closed forms here are
//! pinned to those makespans (`tests/properties.rs`), the way
//! `adagp_accel::designs` is pinned to `adagp_sim::workload`. Chimera is
//! still a closed form only.

pub mod schemes;

pub use schemes::{PipelineConfig, PipelineScheme};
