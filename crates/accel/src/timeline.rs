//! Per-layer characterization of Figure 16.
//!
//! The §3.7 step timeline (Figures 7–9) is *simulated* by
//! `adagp_sim::steps::step_timeline`, so that exactly one place — the
//! discrete-event engine — computes overlap windows. This module only
//! weights each layer's per-batch cycles by the epoch mix; the cycles
//! themselves are [`crate::designs`]' per-batch costs of that one layer.

use crate::designs::{self, AdaGpDesign};
use crate::layer_cost::LayerCost;
use std::slice;

/// Per-layer cycle characterization for Figure 16: how a layer's training
/// cycles split across Warm-up, Phase BP and Phase GP under a given
/// epoch mix, versus the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCharacterization {
    /// Layer label.
    pub label: String,
    /// Baseline cycles over the whole run.
    pub baseline: f64,
    /// ADA-GP warm-up cycles.
    pub warmup: f64,
    /// ADA-GP Phase BP cycles.
    pub phase_bp: f64,
    /// ADA-GP Phase GP cycles.
    pub phase_gp: f64,
}

impl LayerCharacterization {
    /// Total ADA-GP cycles.
    pub fn adagp_total(&self) -> f64 {
        self.warmup + self.phase_bp + self.phase_gp
    }
}

/// Figure 16 characterization: per-layer costs under `design` (the
/// figure uses ADA-GP-Efficient).
///
/// `gp_fraction_post_warmup` is the average GP share after warm-up;
/// `warmup_share` is the fraction of epochs spent warming up.
pub fn characterize_layers(
    labels: &[String],
    costs: &[LayerCost],
    design: AdaGpDesign,
    warmup_share: f64,
    gp_fraction_post_warmup: f64,
) -> Vec<LayerCharacterization> {
    assert_eq!(labels.len(), costs.len(), "labels/costs length mismatch");
    let post = 1.0 - warmup_share;
    let g = gp_fraction_post_warmup;
    labels
        .iter()
        .zip(costs.iter())
        .map(|(label, c)| {
            let layer = slice::from_ref(c);
            let baseline_batch = designs::baseline_batch_cycles(layer) as f64;
            let bp_batch = designs::bp_batch_cycles(design, layer) as f64;
            let gp_batch = designs::gp_batch_cycles(design, layer) as f64;
            LayerCharacterization {
                label: label.clone(),
                baseline: baseline_batch,
                warmup: warmup_share * bp_batch,
                phase_bp: post * (1.0 - g) * bp_batch,
                phase_gp: post * g * gp_batch,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_costs() -> (Vec<String>, Vec<LayerCost>) {
        (
            vec!["l1".into(), "l2".into()],
            vec![
                LayerCost {
                    fw: 100,
                    bw: 200,
                    alpha: 10,
                },
                LayerCost {
                    fw: 300,
                    bw: 600,
                    alpha: 20,
                },
            ],
        )
    }

    #[test]
    fn characterization_sums_to_less_than_baseline() {
        let (labels, costs) = sample_costs();
        let chars = characterize_layers(&labels, &costs, AdaGpDesign::Efficient, 0.1, 0.55);
        for ch in &chars {
            assert!(ch.adagp_total() < ch.baseline, "{}", ch.label);
            assert!(ch.phase_gp > 0.0 && ch.warmup > 0.0 && ch.phase_bp > 0.0);
        }
    }

    #[test]
    fn zero_warmup_has_no_warmup_cycles() {
        let (labels, costs) = sample_costs();
        let chars = characterize_layers(&labels, &costs, AdaGpDesign::Efficient, 0.0, 0.5);
        assert!(chars.iter().all(|c| c.warmup == 0.0));
    }
}
