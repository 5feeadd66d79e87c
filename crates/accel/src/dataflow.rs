//! PE-array configuration and dataflow utilization models (§4.1).
//!
//! The paper's baseline is a weight-stationary accelerator with 180 PEs;
//! Figures 17–19 repeat the evaluation for Row-Stationary and
//! Input-Stationary baselines. A dataflow determines which operand stays
//! pinned in the PE registers and therefore how well a given layer shape
//! utilizes the array.

use adagp_nn::models::shapes::{LayerKind, LayerShape};
use serde::{Deserialize, Serialize};

/// Which operand remains stationary in the PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Weights pinned (paper baseline; e.g. TPU).
    WeightStationary,
    /// Partial sums pinned (e.g. ShiDianNao).
    OutputStationary,
    /// Inputs pinned.
    InputStationary,
    /// Eyeriss-style row stationary.
    RowStationary,
}

impl Dataflow {
    /// Every dataflow the cycle model understands, in a stable order —
    /// the enumeration the sweep grid axes build on.
    pub fn all() -> [Dataflow; 4] {
        [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
            Dataflow::RowStationary,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "WS",
            Dataflow::OutputStationary => "OS",
            Dataflow::InputStationary => "IS",
            Dataflow::RowStationary => "RS",
        }
    }
}

/// Hardware configuration of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Number of processing elements (paper: 180).
    pub pes: usize,
    /// Pipeline fill/drain overhead per layer invocation, in cycles.
    pub ramp_cycles: u64,
    /// Backward-pass cost multiplier relative to forward (paper §3.7
    /// assumes 2×).
    pub bw_multiplier: f64,
}

impl Default for AcceleratorConfig {
    /// The paper's setup: 180 PEs, BW = 2×FW.
    fn default() -> Self {
        AcceleratorConfig {
            pes: 180,
            ramp_cycles: 64,
            bw_multiplier: 2.0,
        }
    }
}

impl AcceleratorConfig {
    /// Scales the PE count by `factor` (used by the iso-power/iso-area
    /// comparisons of §6.6.1, which grant the baseline +10%/+11% PEs).
    pub fn scaled_pes(&self, factor: f64) -> Self {
        AcceleratorConfig {
            pes: ((self.pes as f64 * factor).round() as usize).max(1),
            ..*self
        }
    }
}

/// Fraction of the PE array a layer keeps busy under a dataflow, in
/// `(0, 1]`.
///
/// The stationary operand must fill the array for full utilization: a
/// weight-stationary array idles when a layer has fewer weights than PEs,
/// an output-stationary array when it has few output activations, and so
/// on. Row-stationary's reuse makes it the most robust (Eyeriss), modeled
/// with a higher utilization floor.
pub fn utilization(df: Dataflow, layer: &LayerShape, pes: usize) -> f64 {
    let pes = pes as f64;
    let weights = layer.weight_count() as f64;
    let outs = layer.out_activations() as f64;
    let ins = match layer.kind {
        LayerKind::Linear => layer.in_ch as f64,
        _ => (layer.in_ch * layer.h_out * layer.w_out) as f64,
    };
    let raw = match df {
        Dataflow::WeightStationary => weights / pes,
        Dataflow::OutputStationary => outs / pes,
        Dataflow::InputStationary => ins / pes,
        Dataflow::RowStationary => {
            // Rows of the filter × output channels map onto the array.
            (layer.k as f64 * layer.out_ch as f64) / pes
        }
    };
    let floor = match df {
        Dataflow::RowStationary => 0.55,
        _ => 0.35,
    };
    raw.min(1.0).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_nn::models::shapes::LayerShape;

    #[test]
    fn default_is_paper_config() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.pes, 180);
        assert_eq!(c.bw_multiplier, 2.0);
    }

    #[test]
    fn scaled_pes_rounds() {
        let c = AcceleratorConfig::default().scaled_pes(1.10);
        assert_eq!(c.pes, 198);
    }

    #[test]
    fn big_layers_fully_utilize() {
        let big = LayerShape::conv("c", 128, 256, 3, 28);
        for df in [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
            Dataflow::RowStationary,
        ] {
            assert_eq!(utilization(df, &big, 180), 1.0, "{}", df.name());
        }
    }

    #[test]
    fn tiny_layers_underutilize_ws() {
        // 1x1 conv with few weights starves a weight-stationary array.
        let tiny = LayerShape::conv("c", 4, 4, 1, 28);
        let u = utilization(Dataflow::WeightStationary, &tiny, 180);
        assert!(u < 1.0);
        assert!(u >= 0.35); // floor
    }

    #[test]
    fn rs_has_higher_floor() {
        let tiny = LayerShape::conv("c", 2, 2, 1, 2);
        let ws = utilization(Dataflow::WeightStationary, &tiny, 180);
        let rs = utilization(Dataflow::RowStationary, &tiny, 180);
        assert!(rs >= ws);
    }

    #[test]
    fn all_covers_every_dataflow_once() {
        let all = Dataflow::all();
        assert_eq!(all.len(), 4);
        let names: std::collections::HashSet<_> = all.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), 4, "duplicate dataflow names");
    }

    #[test]
    fn serde_round_trips_config_and_dataflow() {
        // The formerly inert derives are real now: values survive JSON.
        let cfg = AcceleratorConfig::default();
        let back: AcceleratorConfig =
            serde::json::from_str(&serde::json::to_string(&cfg)).expect("config round-trip");
        assert_eq!(back, cfg);
        for df in Dataflow::all() {
            let js = serde::json::to_string(&df);
            assert_eq!(
                js,
                format!("{:?}", format!("{df:?}")),
                "external tag is the variant name"
            );
            let back: Dataflow = serde::json::from_str(&js).expect("dataflow round-trip");
            assert_eq!(back, df);
        }
        assert!(serde::json::from_str::<Dataflow>("\"Diagonal\"").is_err());
    }
}
