//! End-to-end training speed-up (Figures 17–19 and §6.6.1 iso-resource
//! comparisons).
//!
//! Total training cost combines the per-phase batch cycles with the
//! phase schedule: warm-up epochs are pure BP, then the GP fraction
//! anneals 4:1 → 3:1 → 2:1 → 1:1 (§3.5). The speed-up is
//! `baseline cycles / ADA-GP cycles` over the whole run.

use crate::dataflow::{AcceleratorConfig, Dataflow};
use crate::designs::{self, AdaGpDesign};
use crate::layer_cost::{model_costs, LayerCost, PredictorCostModel};
use adagp_nn::models::shapes::LayerShape;
use serde::{Deserialize, Serialize};

/// Mini-batch size assumed by the cycle model — the paper-standard 128.
/// (The predictor's cost is batch-independent thanks to the batch-mean
/// reorganization, so larger batches amortize α against more layer work.)
pub const MODEL_BATCH: usize = 128;

/// How many epochs the run spends in each schedule stage — mirrors
/// `adagp_core::ScheduleConfig` without using that crate. (The manifest
/// still lists `adagp-core`, an unused edge recorded in
/// `benchmark/Cargo.lock`; ROADMAP's benchmark PR drops it.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochMix {
    /// Warm-up epochs (pure backprop).
    pub warmup: usize,
    /// Epochs at GP:BP = 4:1.
    pub stage_4_1: usize,
    /// Epochs at 3:1.
    pub stage_3_1: usize,
    /// Epochs at 2:1.
    pub stage_2_1: usize,
    /// Epochs at the steady 1:1 ratio.
    pub stage_1_1: usize,
}

impl EpochMix {
    /// The paper's 90-epoch run: 10 warm-up + 4 + 4 + 4 + 68.
    pub fn paper() -> Self {
        EpochMix {
            warmup: 10,
            stage_4_1: 4,
            stage_3_1: 4,
            stage_2_1: 4,
            stage_1_1: 68,
        }
    }

    /// Total epochs.
    pub fn total(&self) -> usize {
        self.warmup + self.stage_4_1 + self.stage_3_1 + self.stage_2_1 + self.stage_1_1
    }

    /// `(gp_fraction, epochs)` pairs for each stage.
    pub fn stages(&self) -> [(f64, usize); 5] {
        [
            (0.0, self.warmup),
            (4.0 / 5.0, self.stage_4_1),
            (3.0 / 4.0, self.stage_3_1),
            (2.0 / 3.0, self.stage_2_1),
            (0.5, self.stage_1_1),
        ]
    }
}

/// The ADA-GP run's blend of a per-batch value: per stage,
/// `epochs × (g × gp + (1 − g) × bp)`, summed. The analytic training
/// cycles and every epoch-weighted statistic of the simulator go through
/// this one expression, so a simulated makespan equal to the closed form
/// yields a bit-identical total.
pub fn epoch_total(mix: &EpochMix, bp: f64, gp: f64) -> f64 {
    mix.stages()
        .iter()
        .map(|&(g, epochs)| epochs as f64 * (g * gp + (1.0 - g) * bp))
        .sum()
}

/// The per-layer cost table both training-cycle closed forms read:
/// [`model_costs`] at [`MODEL_BATCH`] under the default predictor model.
/// A caller that needs both totals builds it once and hands it to
/// [`adagp_cycles_of`] and [`baseline_cycles_of`].
pub fn training_costs(
    cfg: &AcceleratorConfig,
    df: Dataflow,
    layers: &[LayerShape],
) -> Vec<LayerCost> {
    model_costs(cfg, df, &PredictorCostModel::default(), layers, MODEL_BATCH)
}

/// [`adagp_training_cycles`] on a [`training_costs`] table.
pub fn adagp_cycles_of(design: AdaGpDesign, costs: &[LayerCost], mix: &EpochMix) -> f64 {
    let bp = designs::bp_batch_cycles(design, costs) as f64;
    let gp = designs::gp_batch_cycles(design, costs) as f64;
    epoch_total(mix, bp, gp)
}

/// [`baseline_training_cycles`] on a [`training_costs`] table.
pub fn baseline_cycles_of(costs: &[LayerCost], mix: &EpochMix) -> f64 {
    mix.total() as f64 * designs::baseline_batch_cycles(costs) as f64
}

/// Total ADA-GP training cycles per "epoch-batch unit" (one batch per
/// epoch; batch counts cancel in the speed-up ratio).
pub fn adagp_training_cycles(
    cfg: &AcceleratorConfig,
    df: Dataflow,
    design: AdaGpDesign,
    layers: &[LayerShape],
    mix: &EpochMix,
) -> f64 {
    adagp_cycles_of(design, &training_costs(cfg, df, layers), mix)
}

/// Total baseline training cycles for the same run length.
pub fn baseline_training_cycles(
    cfg: &AcceleratorConfig,
    df: Dataflow,
    layers: &[LayerShape],
    mix: &EpochMix,
) -> f64 {
    baseline_cycles_of(&training_costs(cfg, df, layers), mix)
}

/// End-to-end speed-up of an ADA-GP design over the baseline.
pub fn training_speedup(
    cfg: &AcceleratorConfig,
    df: Dataflow,
    design: AdaGpDesign,
    layers: &[LayerShape],
    mix: &EpochMix,
) -> f64 {
    baseline_training_cycles(cfg, df, layers, mix)
        / adagp_training_cycles(cfg, df, design, layers, mix)
}

/// §6.6.1 iso-resource comparison: the baseline gets `pe_bonus` more PEs
/// (10% iso-power FPGA, 11% iso-area ASIC) while ADA-GP-MAX keeps the
/// original array. Returns ADA-GP-MAX's residual speed-up.
pub fn iso_resource_speedup(
    cfg: &AcceleratorConfig,
    df: Dataflow,
    layers: &[LayerShape],
    mix: &EpochMix,
    pe_bonus: f64,
) -> f64 {
    let boosted = cfg.scaled_pes(1.0 + pe_bonus);
    baseline_training_cycles(&boosted, df, layers, mix)
        / adagp_training_cycles(cfg, df, AdaGpDesign::Max, layers, mix)
}

/// Geometric mean helper for the figures' "Geomean" column.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_nn::models::shapes::{model_shapes, InputScale};
    use adagp_nn::models::CnnModel;

    fn vgg13() -> Vec<LayerShape> {
        model_shapes(CnnModel::Vgg13, InputScale::Cifar)
    }

    #[test]
    fn speedup_exceeds_one_for_all_designs() {
        let cfg = AcceleratorConfig::default();
        for design in AdaGpDesign::all() {
            let s = training_speedup(
                &cfg,
                Dataflow::WeightStationary,
                design,
                &vgg13(),
                &EpochMix::paper(),
            );
            assert!(s > 1.0, "{}: {s}", design.name());
            assert!(
                s < 3.0,
                "{}: {s} (3x is the theoretical ceiling)",
                design.name()
            );
        }
    }

    #[test]
    fn max_beats_efficient_beats_low() {
        let cfg = AcceleratorConfig::default();
        let mix = EpochMix::paper();
        let s = |d| training_speedup(&cfg, Dataflow::WeightStationary, d, &vgg13(), &mix);
        assert!(s(AdaGpDesign::Max) >= s(AdaGpDesign::Efficient));
        assert!(s(AdaGpDesign::Efficient) >= s(AdaGpDesign::Low));
    }

    #[test]
    fn paper_range_for_max_design() {
        // Figures 17–19 report ADA-GP-MAX averages of ≈1.46–1.48×.
        let cfg = AcceleratorConfig::default();
        let mix = EpochMix::paper();
        let speeds: Vec<f64> = CnnModel::all()
            .iter()
            .map(|&m| {
                training_speedup(
                    &cfg,
                    Dataflow::WeightStationary,
                    AdaGpDesign::Max,
                    &model_shapes(m, InputScale::Cifar),
                    &mix,
                )
            })
            .collect();
        let g = geomean(&speeds);
        assert!(
            (1.30..1.60).contains(&g),
            "geomean speed-up {g} outside the paper's ballpark"
        );
    }

    #[test]
    fn more_gp_epochs_more_speedup() {
        let cfg = AcceleratorConfig::default();
        let light = EpochMix {
            warmup: 50,
            stage_4_1: 0,
            stage_3_1: 0,
            stage_2_1: 0,
            stage_1_1: 40,
        };
        let heavy = EpochMix::paper();
        let s_light = training_speedup(
            &cfg,
            Dataflow::WeightStationary,
            AdaGpDesign::Max,
            &vgg13(),
            &light,
        );
        let s_heavy = training_speedup(
            &cfg,
            Dataflow::WeightStationary,
            AdaGpDesign::Max,
            &vgg13(),
            &heavy,
        );
        assert!(s_heavy > s_light);
    }

    #[test]
    fn iso_resource_still_wins() {
        // §6.6.1: with a +10% PE baseline, ADA-GP-MAX keeps a few percent.
        let cfg = AcceleratorConfig::default();
        let s = iso_resource_speedup(
            &cfg,
            Dataflow::WeightStationary,
            &vgg13(),
            &EpochMix::paper(),
            0.10,
        );
        assert!(s > 1.0, "iso-power speed-up {s}");
        let plain = training_speedup(
            &cfg,
            Dataflow::WeightStationary,
            AdaGpDesign::Max,
            &vgg13(),
            &EpochMix::paper(),
        );
        assert!(s < plain);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn epoch_mix_totals() {
        assert_eq!(EpochMix::paper().total(), 90);
    }
}
