//! Training-run aggregation: from simulated batch makespans to the
//! paper's end-to-end cycle totals and speed-ups.
//!
//! Every epoch-weighted number here is
//! [`adagp_accel::speedup::epoch_total`] of the simulated per-batch
//! values — the blend the analytic training cycles use — so with the
//! per-batch makespans equal to the analytic cycle counts (the
//! no-contention configuration) the training totals and speed-up ratios
//! are bit-identical to the closed forms. The fig17-grid golden test
//! relies on this.

use crate::workload::{
    layer_labels, BatchGraph, BatchStats, ChainCertificate, Phase, SimConfig, SimLayer,
};
use adagp_accel::speedup::{epoch_total, EpochMix};
use adagp_accel::AdaGpDesign;
use std::sync::Arc;

/// ADA-GP's two batch schedules (warm-up / Phase BP and Phase GP) of one
/// (design, layers, ports, buffer) point, compiled once: replayable at
/// any DRAM bandwidth. The baseline batch is not among them — every
/// ADA-GP training statistic and every roofline probe reads these two
/// only; [`StepSim::run`] builds the baseline beside them.
#[derive(Debug, Clone)]
pub struct AdaGpGraphs {
    /// Warm-up / Phase BP batch.
    pub bp: BatchGraph,
    /// Phase GP batch.
    pub gp: BatchGraph,
}

impl AdaGpGraphs {
    /// Compiles the BP and GP batch schedules of `design` over `layers`.
    pub fn build(design: AdaGpDesign, layers: &[SimLayer], cfg: &SimConfig) -> Self {
        Self::build_labeled(design, layers, cfg, layer_labels(layers))
    }

    /// [`AdaGpGraphs::build`] with the label table of `layers` passed in.
    fn build_labeled(
        design: AdaGpDesign,
        layers: &[SimLayer],
        cfg: &SimConfig,
        labels: Arc<[Arc<str>]>,
    ) -> Self {
        let build =
            |phase| BatchGraph::build_labeled(phase, Some(design), layers, cfg, labels.clone());
        AdaGpGraphs {
            bp: build(Phase::Bp),
            gp: build(Phase::Gp),
        }
    }

    /// Re-times both batches to `words_per_cycle`
    /// ([`BatchGraph::set_bandwidth`]).
    pub fn set_bandwidth(&mut self, words_per_cycle: u64) {
        self.bp.set_bandwidth(words_per_cycle);
        self.gp.set_bandwidth(words_per_cycle);
    }

    /// A lower bound on `self.run(mix).training_cycles()` that replays
    /// nothing: the epoch blend of both batches' longest paths
    /// ([`BatchGraph::longest_path`]), with the certificates of the two
    /// chains that attain them. Each path is at most its batch's makespan,
    /// and [`epoch_total`]'s weights are non-negative while IEEE rounding
    /// is monotone, so the bound holds in `f64` too.
    pub fn training_cycles_floor(&self, mix: &EpochMix) -> TrainingFloor {
        let (bp_path, bp) = self.bp.longest_path();
        let (gp_path, gp) = self.gp.longest_path();
        TrainingFloor {
            cycles: epoch_total(mix, bp_path as f64, gp_path as f64),
            bp,
            gp,
        }
    }

    /// Replays both batches at the current bandwidth.
    pub fn run(&self, mix: &EpochMix) -> AdaGpSim {
        AdaGpSim {
            bp: self.bp.run(),
            gp: self.gp.run(),
            mix: *mix,
        }
    }
}

/// [`AdaGpGraphs::training_cycles_floor`] at one bandwidth: the blended
/// floor and a longest chain of each batch. Blending the certificates'
/// [`ChainCertificate::cycles_at`] the same way bounds the floor, and so
/// the training cycles, from below at any other bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingFloor {
    /// `epoch_total` of the two batches' longest paths.
    pub cycles: f64,
    /// A longest chain of the Phase-BP batch.
    pub bp: ChainCertificate,
    /// A longest chain of the Phase-GP batch.
    pub gp: ChainCertificate,
}

/// The two simulated batches of one ADA-GP training run plus its
/// epoch-weighted statistics.
#[derive(Debug, Clone)]
pub struct AdaGpSim {
    /// Warm-up / Phase BP batch.
    pub bp: BatchStats,
    /// Phase GP batch.
    pub gp: BatchStats,
    /// The epoch mix the totals are weighted by.
    pub mix: EpochMix,
}

impl AdaGpSim {
    /// Simulated ADA-GP training cycles — the analytic
    /// [`adagp_accel::speedup::adagp_training_cycles`] shape: per stage,
    /// `epochs × (g × GP batch + (1 − g) × BP batch)`.
    pub fn training_cycles(&self) -> f64 {
        epoch_total(&self.mix, self.bp.makespan as f64, self.gp.makespan as f64)
    }

    /// Epoch-weighted mean of a per-batch statistic over the training run
    /// (warm-up and BP stages weigh the BP batch, GP shares the GP batch).
    fn epoch_weighted(&self, bp: f64, gp: f64) -> f64 {
        epoch_total(&self.mix, bp, gp) / self.mix.total() as f64
    }

    /// Epoch-weighted main-array utilization.
    pub fn pe_utilization(&self) -> f64 {
        self.epoch_weighted(self.bp.pe_utilization(), self.gp.pe_utilization())
    }

    /// Epoch-weighted predictor-overlap efficiency.
    pub fn overlap_efficiency(&self) -> f64 {
        self.epoch_weighted(self.bp.overlap_efficiency(), self.gp.overlap_efficiency())
    }

    /// Simulated spill cycles over the training run — the same epoch
    /// weighting as [`AdaGpSim::training_cycles`], applied to each
    /// batch's [`BatchStats::spill_cycles`]. Exactly zero with an
    /// unbounded buffer or with the DRAM channel disabled.
    pub fn spill_cycles(&self) -> f64 {
        epoch_total(
            &self.mix,
            self.bp.spill_cycles as f64,
            self.gp.spill_cycles as f64,
        )
    }
}

/// One (design, schedule) training run against its baseline: the
/// simulated baseline batch beside ADA-GP's two.
#[derive(Debug, Clone)]
pub struct StepSim {
    /// Baseline batch (no predictor).
    pub baseline: BatchStats,
    /// The ADA-GP run's BP and GP batches and their epoch statistics.
    pub adagp: AdaGpSim,
}

impl StepSim {
    /// Simulates the baseline batch and the two ADA-GP batch schedules of
    /// `design` over `layers`.
    pub fn run(design: AdaGpDesign, layers: &[SimLayer], mix: &EpochMix, cfg: &SimConfig) -> Self {
        let labels = layer_labels(layers);
        StepSim {
            baseline: BatchGraph::build_labeled(Phase::Baseline, None, layers, cfg, labels.clone())
                .run(),
            adagp: AdaGpGraphs::build_labeled(design, layers, cfg, labels).run(mix),
        }
    }

    /// Simulated baseline training cycles — the analytic
    /// [`adagp_accel::speedup::baseline_training_cycles`] shape:
    /// `total epochs × baseline batch`.
    pub fn baseline_training_cycles(&self) -> f64 {
        self.adagp.mix.total() as f64 * self.baseline.makespan as f64
    }

    /// Simulated end-to-end training speed-up.
    pub fn training_speedup(&self) -> f64 {
        self.baseline_training_cycles() / self.adagp.training_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_accel::layer_cost::LayerCost;
    use adagp_accel::speedup::{adagp_training_cycles, baseline_training_cycles, training_speedup};
    use adagp_accel::{AcceleratorConfig, Dataflow};
    use adagp_nn::models::shapes::{model_shapes, InputScale};
    use adagp_nn::models::CnnModel;

    #[test]
    fn no_contention_training_speedup_is_bit_exact_vs_analytic() {
        let cfg = AcceleratorConfig::default();
        let shapes = model_shapes(CnnModel::Vgg13, InputScale::Cifar);
        let mix = EpochMix::paper();
        let sim_cfg = SimConfig::no_contention();
        let layers = crate::workload::model_sim_layers(
            &cfg,
            Dataflow::WeightStationary,
            &Default::default(),
            &shapes,
            &sim_cfg,
        );
        for design in AdaGpDesign::all() {
            let sim = StepSim::run(design, &layers, &mix, &sim_cfg);
            let direct = training_speedup(&cfg, Dataflow::WeightStationary, design, &shapes, &mix);
            assert_eq!(
                sim.training_speedup().to_bits(),
                direct.to_bits(),
                "{}",
                design.name()
            );
            assert_eq!(
                sim.baseline_training_cycles().to_bits(),
                baseline_training_cycles(&cfg, Dataflow::WeightStationary, &shapes, &mix).to_bits()
            );
            assert_eq!(
                sim.adagp.training_cycles().to_bits(),
                adagp_training_cycles(&cfg, Dataflow::WeightStationary, design, &shapes, &mix)
                    .to_bits()
            );
        }
    }

    #[test]
    fn weighted_stats_sit_between_their_phase_values() {
        let layers: Vec<SimLayer> = (0..4u64)
            .map(|i| {
                SimLayer::from_cost(
                    format!("l{i}"),
                    LayerCost {
                        fw: 1000 + i * 100,
                        bw: 2000,
                        alpha: 90,
                    },
                )
            })
            .collect();
        let sim = StepSim::run(
            AdaGpDesign::Max,
            &layers,
            &EpochMix::paper(),
            &SimConfig::no_contention(),
        );
        let (bp, gp) = (&sim.adagp.bp, &sim.adagp.gp);
        let (lo, hi) = (
            bp.pe_utilization().min(gp.pe_utilization()),
            bp.pe_utilization().max(gp.pe_utilization()),
        );
        let u = sim.adagp.pe_utilization();
        assert!(u >= lo && u <= hi, "{lo} <= {u} <= {hi}");
        assert!(sim.training_speedup() > 1.0);
    }
}
