//! The §3.7 step timeline (Figures 7–9), re-based on the simulator.
//!
//! This used to live in `adagp_accel::timeline` as a closed form; it now
//! *runs* the schedules: each layer costs one step forward and two steps
//! backward, the predictor costs α of a step, and the three numbers are
//! the simulated makespans of the baseline, Phase-BP and Phase-GP batch
//! graphs on the shared-array (Efficient) design. There is exactly one
//! place that computes overlap windows — the event engine — and the
//! paper's `12 / 12 + 12α / 4 + 4α` step counts fall out of it.
//!
//! The same three numbers price §2's DNI comparison (`paper
//! comparison_dni`): DNI's batch is the Phase-BP schedule — α after every
//! forward, 2α after every backward, no backward skipped — against
//! ADA-GP's Phase-GP batch and the baseline.
//!
//! Steps are simulated in a `2^20`-cycles-per-step fixed point, so every
//! α representable in 20 fractional bits (0.25, 0.5, …) is exact.

use crate::workload::{BatchGraph, Phase, SimConfig, SimLayer};
use adagp_accel::layer_cost::LayerCost;
use adagp_accel::AdaGpDesign;

/// Cycles per step in the fixed-point encoding.
const STEP: u64 = 1 << 20;

/// Timeline of a single batch in steps (one step = one layer's FW time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTimeline {
    /// Baseline steps (FW + BW for every layer).
    pub baseline: f64,
    /// Phase BP steps including predictor work (α per layer FW, 2α BW).
    pub phase_bp: f64,
    /// Phase GP steps (FW plus α per layer; no BW).
    pub phase_gp: f64,
}

/// Simulates the §3.7 step timeline for an `n_layers` model with relative
/// predictor latency `alpha` (fraction of one FW step).
///
/// # Panics
///
/// Panics if `n_layers == 0` or `alpha < 0`.
pub fn step_timeline(n_layers: usize, alpha: f64) -> StepTimeline {
    assert!(n_layers > 0, "need at least one layer");
    assert!(alpha >= 0.0, "alpha must be non-negative");
    let alpha_cycles = (alpha * STEP as f64).round() as u64;
    let layers: Vec<SimLayer> = (0..n_layers)
        .map(|i| {
            SimLayer::from_cost(
                format!("layer{i}"),
                LayerCost {
                    fw: STEP,
                    bw: 2 * STEP,
                    alpha: alpha_cycles,
                },
            )
        })
        .collect();
    let cfg = SimConfig::no_contention();
    let steps = |phase, design| {
        BatchGraph::build(phase, design, &layers, &cfg)
            .run()
            .makespan as f64
            / STEP as f64
    };
    StepTimeline {
        baseline: steps(Phase::Baseline, None),
        phase_bp: steps(Phase::Bp, Some(AdaGpDesign::Efficient)),
        phase_gp: steps(Phase::Gp, Some(AdaGpDesign::Efficient)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_layer_baseline_is_12_steps() {
        // Figure 7: "the baseline system requires 12 time steps ... for a
        // 4-layer model".
        let t = step_timeline(4, 0.1);
        assert_eq!(t.baseline, 12.0);
    }

    #[test]
    fn phase_bp_adds_12_alpha() {
        // Figure 8: "ADA-GP increases the model's training time by 12α".
        let alpha = 0.25;
        let t = step_timeline(4, alpha);
        assert!((t.phase_bp - (12.0 + 12.0 * alpha)).abs() < 1e-12);
    }

    #[test]
    fn phase_gp_is_4_plus_4_alpha() {
        // Figure 9: "ADA-GP can minimize the processing time to merely
        // 4 + 4α steps".
        let alpha = 0.25;
        let t = step_timeline(4, alpha);
        assert!((t.phase_gp - (4.0 + 4.0 * alpha)).abs() < 1e-12);
    }

    #[test]
    fn two_epoch_claim_16_plus_16_alpha() {
        // §3.7: two epochs drop from 24 steps to 16 + 16α (one BP batch +
        // one GP batch).
        let alpha = 0.0;
        let t = step_timeline(4, alpha);
        assert_eq!(t.phase_bp + t.phase_gp, 16.0);
        assert_eq!(2.0 * t.baseline, 24.0);
    }

    #[test]
    fn dni_never_skips_backward_in_step_model() {
        // The paper's §2 point: DNI (the Phase-BP schedule) >= baseline
        // cost; ADA-GP GP << both.
        let t = step_timeline(10, 0.1);
        assert!(t.phase_bp >= t.baseline);
        assert!(t.phase_gp < t.baseline / 2.0);
        assert!(t.phase_gp < t.phase_bp / 2.0);
    }

    #[test]
    fn unrepresentable_alpha_stays_close() {
        // 0.1 has no exact 20-bit fixed-point form; the simulated
        // timeline must still land within a part in a million.
        let t = step_timeline(8, 0.1);
        assert!((t.phase_gp - 8.8).abs() < 1e-5, "{}", t.phase_gp);
    }
}
