//! Step-count models of the three pipeline schemes and their ADA-GP
//! overlays (§3.8, Figures 10–12).

use serde::{Deserialize, Serialize};

/// Pipeline setup: the paper uses 4 devices × 4 micro-batches with
/// forward = 1 step and backward = 2 steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Number of pipeline stages/devices.
    pub devices: usize,
    /// Micro-batches per mini-batch.
    pub microbatches: usize,
    /// Steps per micro-batch forward on one device.
    pub fw: usize,
    /// Steps per micro-batch backward on one device.
    pub bw: usize,
}

impl Default for PipelineConfig {
    /// The paper's §6.5 setup.
    fn default() -> Self {
        PipelineConfig {
            devices: 4,
            microbatches: 4,
            fw: 1,
            bw: 2,
        }
    }
}

/// Which baseline pipelining technique ADA-GP overlays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineScheme {
    /// GPipe (Huang et al.): all-forward then all-backward.
    GPipe,
    /// DAPPLE (Fan et al.): 1F1B interleaving (same makespan for one
    /// batch; lower activation memory).
    Dapple,
    /// Chimera (Li & Hoefler): bidirectional pipelines.
    Chimera,
}

impl PipelineScheme {
    /// All three schemes in the paper's order.
    pub fn all() -> [PipelineScheme; 3] {
        [
            PipelineScheme::GPipe,
            PipelineScheme::Dapple,
            PipelineScheme::Chimera,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineScheme::GPipe => "GPipe",
            PipelineScheme::Dapple => "DAPPLE",
            PipelineScheme::Chimera => "Chimera",
        }
    }

    /// Steps the baseline scheme needs for **one** mini-batch.
    ///
    /// GPipe/DAPPLE: `(D + M − 1) · (fw + bw)` — the makespan of the
    /// batch's task graph on the event engine (`adagp_sim::schedule`).
    /// Chimera's bidirectional pipelines overlap half the micro-batches:
    /// `(D + M/2 − 1) · (fw + bw) + fw` (a closed form only).
    pub fn batch_steps(&self, cfg: &PipelineConfig) -> usize {
        let (d, m) = (cfg.devices, cfg.microbatches);
        match self {
            PipelineScheme::GPipe | PipelineScheme::Dapple => (d + m - 1) * (cfg.fw + cfg.bw),
            PipelineScheme::Chimera => (d + m.div_ceil(2) - 1) * (cfg.fw + cfg.bw) + cfg.fw,
        }
    }

    /// Steps ADA-GP needs for a **pair** of batches (one Phase GP + one
    /// Phase BP, §6.5): the GP batch has no backward pass, so its forward
    /// micro-batches stream into the baseline schedule's bubbles, adding
    /// only `M · fw` steps (for GPipe/DAPPLE, again the engine's makespan
    /// of the GP→BP pair).
    pub fn adagp_pair_steps(&self, cfg: &PipelineConfig) -> usize {
        self.batch_steps(cfg) + cfg.microbatches * cfg.fw
    }

    /// ADA-GP speed-up over the baseline at the steady 1:1 GP:BP ratio,
    /// with `alpha_ratio` = predictor latency as a fraction of one
    /// forward step (model-dependent; Figure 20's per-model variation).
    pub fn adagp_speedup(&self, cfg: &PipelineConfig, alpha_ratio: f64) -> f64 {
        let baseline = 2.0 * self.batch_steps(cfg) as f64;
        // The predictor adds α on each device's critical-path forward.
        let overhead = alpha_ratio * (cfg.devices + cfg.microbatches) as f64 * cfg.fw as f64;
        baseline / (self.adagp_pair_steps(cfg) as f64 + overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_step_counts() {
        let cfg = PipelineConfig::default();
        // §6.5: GPipe 21, DAPPLE 21, Chimera 16 steps per batch.
        assert_eq!(PipelineScheme::GPipe.batch_steps(&cfg), 21);
        assert_eq!(PipelineScheme::Dapple.batch_steps(&cfg), 21);
        assert_eq!(PipelineScheme::Chimera.batch_steps(&cfg), 16);
    }

    #[test]
    fn paper_adagp_pair_counts() {
        let cfg = PipelineConfig::default();
        // §6.5: ADA-GP needs 25 steps (GPipe/DAPPLE) and 20 (Chimera) for
        // two batches.
        assert_eq!(PipelineScheme::GPipe.adagp_pair_steps(&cfg), 25);
        assert_eq!(PipelineScheme::Dapple.adagp_pair_steps(&cfg), 25);
        assert_eq!(PipelineScheme::Chimera.adagp_pair_steps(&cfg), 20);
    }

    #[test]
    fn paper_peak_speedups() {
        let cfg = PipelineConfig::default();
        // With a negligible predictor: 42/25 = 1.68× and 32/20 = 1.6×.
        assert!((PipelineScheme::GPipe.adagp_speedup(&cfg, 0.0) - 1.68).abs() < 0.001);
        assert!((PipelineScheme::Chimera.adagp_speedup(&cfg, 0.0) - 1.60).abs() < 0.001);
    }

    #[test]
    fn alpha_reduces_speedup_toward_paper_averages() {
        let cfg = PipelineConfig::default();
        // Figure 20: averages 1.654 (GPipe/DAPPLE) and 1.575 (Chimera)
        // across models — a small positive alpha lands there.
        let s = PipelineScheme::GPipe.adagp_speedup(&cfg, 0.05);
        assert!(s < 1.68 && s > 1.60, "speed-up {s}");
        let c = PipelineScheme::Chimera.adagp_speedup(&cfg, 0.05);
        assert!(c < 1.60 && c > 1.50, "speed-up {c}");
    }

    #[test]
    fn chimera_beats_gpipe() {
        let cfg = PipelineConfig::default();
        assert!(
            PipelineScheme::Chimera.batch_steps(&cfg) < PipelineScheme::GPipe.batch_steps(&cfg)
        );
    }

    #[test]
    fn speedup_monotone_in_alpha() {
        let cfg = PipelineConfig::default();
        let a = PipelineScheme::GPipe.adagp_speedup(&cfg, 0.0);
        let b = PipelineScheme::GPipe.adagp_speedup(&cfg, 0.2);
        assert!(a > b);
    }
}
