//! Layer-shape tables of the bench experiments that the sweep engine's
//! CNN grid does not cover: Figure 16's VGG13 convs and the paper-scale
//! Transformer and YOLO tables (Tables 2–3). CNN shapes come from
//! [`adagp_sweep::shapes::cached_shapes`], one memoized derivation per
//! (model, input scale) shared with the sweep runner.

use adagp_nn::models::shapes::{InputScale, LayerKind, LayerShape};
use adagp_nn::models::CnnModel;
use adagp_sweep::shapes::cached_shapes;

/// VGG13's ten conv layers at CIFAR scale (Figure 16's characterization).
pub fn vgg13_conv_shapes() -> Vec<LayerShape> {
    cached_shapes(CnnModel::Vgg13, InputScale::Cifar)
        .iter()
        .filter(|l| l.kind == LayerKind::Conv)
        .cloned()
        .collect()
}

/// Paper-scale layer shapes of the Table 2 Transformer (3 encoder + 3
/// decoder layers, d_model 512, FFN 2048, sequence length 32). Per-token
/// linear layers are encoded as 1×1 convs over the sequence axis, which
/// makes their MAC count `tokens × in × out` as required.
pub fn transformer_shapes() -> Vec<LayerShape> {
    let (d, ff, seq) = (512usize, 2048usize, 32usize);
    let mut shapes = Vec::new();
    let lin = |label: String, i: usize, o: usize| LayerShape {
        label,
        kind: LayerKind::Conv,
        in_ch: i,
        out_ch: o,
        k: 1,
        h_out: seq,
        w_out: 1,
    };
    for l in 0..3 {
        for p in ["wq", "wk", "wv", "wo"] {
            shapes.push(lin(format!("enc{l}.{p}"), d, d));
        }
        shapes.push(lin(format!("enc{l}.ff1"), d, ff));
        shapes.push(lin(format!("enc{l}.ff2"), ff, d));
    }
    for l in 0..3 {
        for p in ["sq", "sk", "sv", "so", "cq", "ck", "cv", "co"] {
            shapes.push(lin(format!("dec{l}.{p}"), d, d));
        }
        shapes.push(lin(format!("dec{l}.ff1"), d, ff));
        shapes.push(lin(format!("dec{l}.ff2"), ff, d));
    }
    shapes.push(lin("head".to_string(), d, 32_000));
    shapes
}

/// Paper-scale layer shapes of the Table 3 YOLO-v3-style detector at VOC
/// resolution (416², stride-8 grid).
pub fn yolo_shapes() -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    let widths = [16usize, 32, 64, 128, 256];
    let mut ch = 3usize;
    let mut size = 416usize;
    for (i, &w) in widths.iter().enumerate() {
        shapes.push(LayerShape::conv(format!("yolo_c{i}"), ch, w, 3, size));
        if i + 1 < widths.len() {
            size /= 2;
        }
        ch = w;
    }
    shapes.push(LayerShape::conv("yolo_head", ch, 75, 1, size)); // 5+20 classes, 3 anchors
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformer_and_yolo_shapes_nonempty() {
        let t = transformer_shapes();
        assert_eq!(t.len(), 3 * 6 + 3 * 10 + 1);
        let y = yolo_shapes();
        assert_eq!(y.len(), 6);
    }

    #[test]
    fn vgg13_has_ten_conv_layers() {
        assert_eq!(vgg13_conv_shapes().len(), 10);
    }
}
