//! MobileNet-V2 (Sandler et al.) — inverted residual blocks with depthwise
//! convolutions.

use super::ModelConfig;
use crate::containers::{Residual, Sequential};
use crate::layers::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, Relu};
use adagp_tensor::Prng;

/// MobileNet-V2 inverted residual settings: `(expansion, out_ch, repeats,
/// stride)` per stage, from the original paper.
const STAGES: [(usize, usize, usize, usize); 7] = [
    (1, 16, 1, 1),
    (6, 24, 2, 1), // stride 1 at CIFAR scale (original uses 2 at 224²)
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
];

/// One inverted residual: 1×1 expand → depthwise 3×3 → 1×1 project, with a
/// skip connection when shapes allow.
fn inverted_residual(
    in_ch: usize,
    out_ch: usize,
    expansion: usize,
    stride: usize,
    label: &str,
    rng: &mut Prng,
) -> Box<dyn crate::module::Module> {
    let hidden = (in_ch * expansion).max(2);
    let mut body = Sequential::new();
    if expansion != 1 {
        body.push(Conv2d::new(in_ch, hidden, 1, 1, 0, false, rng).with_label(format!("{label}.e")));
        body.push(BatchNorm2d::new(hidden));
        body.push(Relu::new());
    }
    body.push(Conv2d::depthwise(hidden, 3, stride, 1, rng).with_label(format!("{label}.d")));
    body.push(BatchNorm2d::new(hidden));
    body.push(Relu::new());
    body.push(Conv2d::new(hidden, out_ch, 1, 1, 0, false, rng).with_label(format!("{label}.p")));
    body.push(BatchNorm2d::new(out_ch));
    if stride == 1 && in_ch == out_ch {
        Box::new(Residual::new(body))
    } else {
        Box::new(body)
    }
}

/// Builds a (scaled) MobileNet-V2.
pub fn mobilenet_v2(cfg: &ModelConfig, in_ch: usize, rng: &mut Prng) -> Sequential {
    let stem_ch = cfg.ch(32).max(4);
    let mut net = Sequential::new();
    net.push(Conv2d::new(in_ch, stem_ch, 3, 1, 1, false, rng).with_label("stem"));
    net.push(BatchNorm2d::new(stem_ch));
    net.push(Relu::new());

    let mut ch = stem_ch;
    for (stage, &(expansion, out_ref, repeats, stride)) in STAGES.iter().enumerate() {
        let out_ch = cfg.ch(out_ref);
        let n = cfg.blocks(repeats);
        for b in 0..n {
            let s = if b == 0 { stride } else { 1 };
            let label = format!("ir{}_{}", stage + 1, b + 1);
            net.push_boxed(inverted_residual(ch, out_ch, expansion, s, &label, rng));
            ch = out_ch;
        }
    }
    let head_ch = cfg.ch(1280).max(8);
    net.push(Conv2d::new(ch, head_ch, 1, 1, 0, false, rng).with_label("head"));
    net.push(BatchNorm2d::new(head_ch));
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Flatten::new());
    net.push(Linear::new(head_ch, cfg.classes, true, rng).with_label("fc"));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{count_sites, ForwardCtx, Module};
    use adagp_tensor::Tensor;

    #[test]
    fn mobilenet_forward_backward() {
        let mut rng = Prng::seed_from_u64(0);
        let cfg = ModelConfig::tiny(10);
        let mut net = mobilenet_v2(&cfg, 3, &mut rng);
        let x = Tensor::ones(&[2, 3, 16, 16]);
        let y = net.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[2, 10]);
        let dx = net.backward(&Tensor::ones(&[2, 10]));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn inverted_residual_skip_only_when_shapes_match() {
        let mut rng = Prng::seed_from_u64(1);
        // Same in/out + stride 1: residual (skip path exists).
        let mut same = inverted_residual(8, 8, 6, 1, "a", &mut rng);
        let x = Tensor::ones(&[1, 8, 8, 8]);
        let y = same.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[1, 8, 8, 8]);
        // Stride 2: plain sequential, spatial halves.
        let mut down = inverted_residual(8, 16, 6, 2, "b", &mut rng);
        let y = down.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[1, 16, 4, 4]);
    }

    #[test]
    fn has_depthwise_sites() {
        let mut rng = Prng::seed_from_u64(2);
        let cfg = ModelConfig::tiny(10);
        let mut net = mobilenet_v2(&cfg, 3, &mut rng);
        assert!(count_sites(&mut net) > 10);
    }
}
