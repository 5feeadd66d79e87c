//! Global-buffer tiling model (§4.1: "A global buffer stores input data,
//! weights, and intermediate results").
//!
//! The energy model in [`crate::energy`] assumes ideal reuse; this module
//! refines it: a layer whose working set exceeds the on-chip buffer must
//! stream some operand from DRAM multiple times. The tiling chooser mirrors
//! the dataflow: the *stationary* operand is pinned in the buffer and the
//! streaming operand determines the number of passes.

use crate::dataflow::Dataflow;
use adagp_nn::models::shapes::LayerShape;
use serde::{Deserialize, Serialize};

/// On-chip buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Capacity in 4-byte words (paper-class accelerators: 100s of KB;
    /// default 128K words = 512 KB).
    pub capacity_words: u64,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            capacity_words: 128 * 1024,
        }
    }
}

/// DRAM traffic of one layer's forward pass under tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TiledTraffic {
    /// Words of weights read from DRAM (with re-reads if they don't fit).
    pub weight_reads: u64,
    /// Words of input activations read.
    pub input_reads: u64,
    /// Words of output activations written.
    pub output_writes: u64,
    /// Number of passes over the streamed operand.
    pub passes: u64,
}

impl TiledTraffic {
    /// Total DRAM words moved.
    pub fn total(&self) -> u64 {
        self.weight_reads + self.input_reads + self.output_writes
    }
}

/// Input activation footprint of a layer (per batch), in words.
fn input_words(layer: &LayerShape, batch: usize) -> u64 {
    // Approximate the input spatial size by the output size times the
    // stride-1 assumption used throughout the shape lists.
    let spatial = (layer.h_out * layer.w_out) as u64;
    batch as u64 * layer.in_ch as u64 * spatial
}

/// Computes the tiled forward-pass DRAM traffic of one layer.
///
/// Under a weight-stationary mapping the weights are pinned: if they fit in
/// the buffer they are read once; otherwise the *inputs* are re-read once
/// per weight tile. Output/input-stationary mappings pin the activations
/// and may re-read weights instead.
pub fn tiled_fw_traffic(
    cfg: &BufferConfig,
    df: Dataflow,
    layer: &LayerShape,
    batch: usize,
) -> TiledTraffic {
    let w = layer.weight_count();
    let inp = input_words(layer, batch);
    let out = batch as u64 * layer.out_activations();
    match df {
        Dataflow::WeightStationary | Dataflow::RowStationary => {
            // Weights pinned; number of weight tiles = ceil(W / capacity).
            let passes = w.div_ceil(cfg.capacity_words).max(1);
            TiledTraffic {
                weight_reads: w,
                input_reads: inp * passes,
                output_writes: out,
                passes,
            }
        }
        Dataflow::InputStationary => {
            let passes = inp.div_ceil(cfg.capacity_words).max(1);
            TiledTraffic {
                weight_reads: w * passes,
                input_reads: inp,
                output_writes: out,
                passes,
            }
        }
        Dataflow::OutputStationary => {
            let passes = out.div_ceil(cfg.capacity_words).max(1);
            TiledTraffic {
                weight_reads: w * passes,
                input_reads: inp * passes,
                output_writes: out,
                passes,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_nn::models::shapes::{model_shapes, InputScale};
    use adagp_nn::models::CnnModel;

    fn small_layer() -> LayerShape {
        LayerShape::conv("s", 8, 8, 3, 14) // 576 weights — fits anywhere
    }

    fn huge_layer() -> LayerShape {
        LayerShape::conv("h", 512, 512, 3, 14) // 2.36M weights
    }

    #[test]
    fn fitting_layer_reads_once() {
        let cfg = BufferConfig::default();
        let t = tiled_fw_traffic(&cfg, Dataflow::WeightStationary, &small_layer(), 8);
        assert_eq!(t.passes, 1);
        assert_eq!(t.weight_reads, small_layer().weight_count());
    }

    #[test]
    fn oversized_weights_cause_input_rereads() {
        let cfg = BufferConfig::default(); // 128K words < 2.36M weights
        let t = tiled_fw_traffic(&cfg, Dataflow::WeightStationary, &huge_layer(), 8);
        assert!(t.passes > 1, "expected multiple passes, got {}", t.passes);
        let ideal = input_words(&huge_layer(), 8);
        assert_eq!(t.input_reads, ideal * t.passes);
    }

    #[test]
    fn bigger_buffer_never_hurts() {
        let small = BufferConfig {
            capacity_words: 16 * 1024,
        };
        let big = BufferConfig {
            capacity_words: 1024 * 1024,
        };
        let layers = model_shapes(CnnModel::Vgg13, InputScale::Cifar);
        for df in [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
        ] {
            for l in &layers {
                let t_small = tiled_fw_traffic(&small, df, l, 16).total();
                let t_big = tiled_fw_traffic(&big, df, l, 16).total();
                assert!(t_big <= t_small, "{df:?} {}", l.label);
            }
        }
    }

    #[test]
    fn dataflow_choice_changes_traffic() {
        let cfg = BufferConfig {
            capacity_words: 8 * 1024,
        };
        let ws = tiled_fw_traffic(&cfg, Dataflow::WeightStationary, &huge_layer(), 8);
        let is = tiled_fw_traffic(&cfg, Dataflow::InputStationary, &huge_layer(), 8);
        assert_ne!(ws.total(), is.total());
    }
}
