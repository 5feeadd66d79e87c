//! Paper-scale layer shapes for every evaluated model.
//!
//! The accelerator cycle model (crate `adagp-accel`) evaluates the *real*
//! layer dimensions of each architecture — VGG13's `Conv2d(128, 256, 3x3)`
//! at 28², not the width-scaled trainable version — because the speed-up
//! figures (16–20) depend on the actual compute/parameter ratios. No
//! weights are materialized here; only shapes.

/// Kind of a compute layer for cost modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Standard convolution.
    Conv,
    /// Depthwise convolution (MACs scale with channels, not channel²).
    DepthwiseConv,
    /// Fully connected.
    Linear,
}

/// Shape of one parameterized layer at paper scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerShape {
    /// Human-readable label.
    pub label: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Input channels (or input features for linear).
    pub in_ch: usize,
    /// Output channels (or output features).
    pub out_ch: usize,
    /// Square kernel size (1 for linear).
    pub k: usize,
    /// Output height (1 for linear).
    pub h_out: usize,
    /// Output width (1 for linear).
    pub w_out: usize,
}

impl LayerShape {
    /// Convolution shape constructor.
    pub fn conv(
        label: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        out: usize,
    ) -> Self {
        LayerShape {
            label: label.into(),
            kind: LayerKind::Conv,
            in_ch,
            out_ch,
            k,
            h_out: out,
            w_out: out,
        }
    }

    /// Depthwise convolution shape constructor (`in_ch == out_ch`).
    pub fn dwconv(label: impl Into<String>, ch: usize, k: usize, out: usize) -> Self {
        LayerShape {
            label: label.into(),
            kind: LayerKind::DepthwiseConv,
            in_ch: ch,
            out_ch: ch,
            k,
            h_out: out,
            w_out: out,
        }
    }

    /// Linear shape constructor.
    pub fn linear(label: impl Into<String>, in_f: usize, out_f: usize) -> Self {
        LayerShape {
            label: label.into(),
            kind: LayerKind::Linear,
            in_ch: in_f,
            out_ch: out_f,
            k: 1,
            h_out: 1,
            w_out: 1,
        }
    }

    /// Multiply–accumulate operations for one input sample's forward pass.
    pub fn macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv => {
                self.out_ch as u64
                    * self.in_ch as u64
                    * (self.k * self.k) as u64
                    * (self.h_out * self.w_out) as u64
            }
            LayerKind::DepthwiseConv => {
                self.out_ch as u64 * (self.k * self.k) as u64 * (self.h_out * self.w_out) as u64
            }
            LayerKind::Linear => self.in_ch as u64 * self.out_ch as u64,
        }
    }

    /// Number of weights (= number of gradients ADA-GP must predict).
    pub fn weight_count(&self) -> u64 {
        match self.kind {
            LayerKind::Conv => (self.out_ch * self.in_ch * self.k * self.k) as u64,
            LayerKind::DepthwiseConv => (self.out_ch * self.k * self.k) as u64,
            LayerKind::Linear => (self.in_ch * self.out_ch) as u64,
        }
    }

    /// Output activation element count per sample.
    pub fn out_activations(&self) -> u64 {
        (self.out_ch * self.h_out * self.w_out) as u64
    }
}

/// Dataset-dependent input resolution: CIFAR-scale 32², ImageNet-scale 224².
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputScale {
    /// 32×32 (CIFAR10/CIFAR100).
    Cifar,
    /// 224×224 (ImageNet).
    ImageNet,
}

impl InputScale {
    /// Side length in pixels.
    pub fn size(&self) -> usize {
        match self {
            InputScale::Cifar => 32,
            InputScale::ImageNet => 224,
        }
    }
}

/// Paper-scale shapes for a model at the given input scale.
pub fn model_shapes(model: super::CnnModel, scale: InputScale) -> Vec<LayerShape> {
    use super::CnnModel::*;
    let s = scale.size();
    match model {
        Vgg13 => vgg_shapes(&[2, 2, 2, 2, 2], s),
        Vgg16 => vgg_shapes(&[2, 2, 3, 3, 3], s),
        Vgg19 => vgg_shapes(&[2, 2, 4, 4, 4], s),
        ResNet50 => resnet_shapes(&[3, 4, 6, 3], s),
        ResNet101 => resnet_shapes(&[3, 4, 23, 3], s),
        ResNet152 => resnet_shapes(&[3, 8, 36, 3], s),
        DenseNet121 => densenet_shapes(&[6, 12, 24, 16], 32, s),
        DenseNet161 => densenet_shapes(&[6, 12, 36, 24], 48, s),
        DenseNet169 => densenet_shapes(&[6, 12, 32, 32], 32, s),
        DenseNet201 => densenet_shapes(&[6, 12, 48, 32], 32, s),
        InceptionV3 => inception_shapes(&[3, 4, 2], 2, s),
        InceptionV4 => inception_shapes(&[4, 7, 3], 3, s),
        MobileNetV2 => mobilenet_shapes(s),
    }
}

fn vgg_shapes(stages: &[usize; 5], input: usize) -> Vec<LayerShape> {
    let widths = [64usize, 128, 256, 512, 512];
    let mut shapes = Vec::new();
    let mut ch = 3usize;
    let mut size = input;
    for (stage, (&n, &w)) in stages.iter().zip(widths.iter()).enumerate() {
        for i in 0..n {
            shapes.push(LayerShape::conv(
                format!("conv{}_{}", stage + 1, i + 1),
                ch,
                w,
                3,
                size,
            ));
            ch = w;
        }
        if size >= 2 {
            size /= 2;
        }
    }
    let flat = ch * size * size;
    shapes.push(LayerShape::linear("fc1", flat, 4096));
    shapes.push(LayerShape::linear("fc2", 4096, 4096));
    shapes.push(LayerShape::linear("fc3", 4096, 1000));
    shapes
}

fn resnet_shapes(blocks: &[usize; 4], input: usize) -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    // Stem: 7x7/2 for ImageNet scale, 3x3/1 for CIFAR scale.
    let (mut size, stem_k) = if input >= 64 {
        (input / 4, 7) // conv stride 2 + maxpool stride 2
    } else {
        (input, 3)
    };
    shapes.push(LayerShape::conv("stem", 3, 64, stem_k, size));
    let mut ch = 64usize;
    for (stage, &n) in blocks.iter().enumerate() {
        let mid = 64 << stage;
        for b in 0..n {
            if stage > 0 && b == 0 && size >= 2 {
                size /= 2;
            }
            let label = |part: &str| format!("res{}_{}{part}", stage + 2, b + 1);
            shapes.push(LayerShape::conv(label(".a"), ch, mid, 1, size));
            shapes.push(LayerShape::conv(label(".b"), mid, mid, 3, size));
            shapes.push(LayerShape::conv(label(".c"), mid, mid * 4, 1, size));
            if b == 0 {
                shapes.push(LayerShape::conv(label(".p"), ch, mid * 4, 1, size));
            }
            ch = mid * 4;
        }
    }
    shapes.push(LayerShape::linear("fc", ch, 1000));
    shapes
}

fn densenet_shapes(blocks: &[usize; 4], growth: usize, input: usize) -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    let mut size = if input >= 64 { input / 4 } else { input };
    let mut ch = 2 * growth;
    shapes.push(LayerShape::conv(
        "stem",
        3,
        ch,
        if input >= 64 { 7 } else { 3 },
        size,
    ));
    for (stage, &n) in blocks.iter().enumerate() {
        for l in 0..n {
            // Bottleneck 1x1 to 4*growth, then 3x3 to growth.
            shapes.push(LayerShape::conv(
                format!("dense{}_{}a", stage + 1, l + 1),
                ch,
                4 * growth,
                1,
                size,
            ));
            shapes.push(LayerShape::conv(
                format!("dense{}_{}b", stage + 1, l + 1),
                4 * growth,
                growth,
                3,
                size,
            ));
            ch += growth;
        }
        if stage + 1 < blocks.len() {
            let out = ch / 2;
            shapes.push(LayerShape::conv(
                format!("trans{}", stage + 1),
                ch,
                out,
                1,
                size,
            ));
            if size >= 2 {
                size /= 2;
            }
            ch = out;
        }
    }
    shapes.push(LayerShape::linear("fc", ch, 1000));
    shapes
}

fn inception_shapes(
    stage_modules: &[usize; 3],
    stem_depth: usize,
    input: usize,
) -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    let mut size = if input >= 64 { input / 4 } else { input };
    let mut ch = 3usize;
    for i in 0..stem_depth {
        let out = 32 << i.min(2);
        shapes.push(LayerShape::conv(format!("stem{}", i + 1), ch, out, 3, size));
        ch = out;
    }
    for (stage, &n) in stage_modules.iter().enumerate() {
        let base = 64 << stage;
        for m in 0..n {
            let label = |b: &str| format!("inc{}_{}{b}", stage + 1, m + 1);
            // Branch 1: 1x1.
            shapes.push(LayerShape::conv(label(".b1"), ch, base, 1, size));
            // Branch 2: 1x1 -> 3x3.
            shapes.push(LayerShape::conv(label(".b2a"), ch, base, 1, size));
            shapes.push(LayerShape::conv(label(".b2b"), base, base, 3, size));
            // Branch 3: 1x1 -> 3x3 -> 3x3.
            shapes.push(LayerShape::conv(label(".b3a"), ch, base, 1, size));
            shapes.push(LayerShape::conv(label(".b3b"), base, base, 3, size));
            shapes.push(LayerShape::conv(label(".b3c"), base, base, 3, size));
            // Branch 4: pool projection 1x1.
            shapes.push(LayerShape::conv(label(".b4"), ch, base, 1, size));
            ch = 4 * base;
        }
        if stage + 1 < stage_modules.len() && size >= 2 {
            size /= 2;
        }
    }
    shapes.push(LayerShape::linear("fc", ch, 1000));
    shapes
}

fn mobilenet_shapes(input: usize) -> Vec<LayerShape> {
    // (expansion, out_ch, repeats, stride) from the MobileNet-V2 paper.
    const STAGES: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut shapes = Vec::new();
    let mut size = if input >= 64 { input / 2 } else { input };
    shapes.push(LayerShape::conv("stem", 3, 32, 3, size));
    let mut ch = 32usize;
    for (stage, &(e, out, n, stride)) in STAGES.iter().enumerate() {
        for b in 0..n {
            // CIFAR-scale MobileNets keep stage 2 at stride 1.
            let s = if b == 0 && !(input < 64 && stage == 1) {
                stride
            } else {
                1
            };
            if s == 2 && size >= 2 {
                size /= 2;
            }
            let hidden = ch * e;
            let label = |p: &str| format!("ir{}_{}{p}", stage + 1, b + 1);
            if e != 1 {
                shapes.push(LayerShape::conv(label(".e"), ch, hidden, 1, size));
            }
            shapes.push(LayerShape::dwconv(label(".d"), hidden, 3, size));
            shapes.push(LayerShape::conv(label(".p"), hidden, out, 1, size));
            ch = out;
        }
    }
    shapes.push(LayerShape::conv("head", ch, 1280, 1, size));
    shapes.push(LayerShape::linear("fc", 1280, 1000));
    shapes
}

#[cfg(test)]
mod tests {
    use super::super::CnnModel;
    use super::*;

    #[test]
    fn vgg13_has_10_convs_3_fcs() {
        let shapes = model_shapes(CnnModel::Vgg13, InputScale::Cifar);
        let convs = shapes.iter().filter(|s| s.kind == LayerKind::Conv).count();
        let fcs = shapes
            .iter()
            .filter(|s| s.kind == LayerKind::Linear)
            .count();
        assert_eq!(convs, 10);
        assert_eq!(fcs, 3);
    }

    #[test]
    fn vgg13_paper_example_layer() {
        // §3.6: "the fourth layer of the VGG13 model — Conv2d(128, 256,
        // 3x3) ... output activation size (batch, 256, 28, 28)" at 224²
        // input — layer conv3_1 in our labelling (28 = 224 / 8).
        let shapes = model_shapes(CnnModel::Vgg13, InputScale::ImageNet);
        let l = shapes.iter().find(|s| s.label == "conv3_1").unwrap();
        assert_eq!(l.in_ch, 128);
        assert_eq!(l.out_ch, 256);
        assert_eq!(l.k, 3);
        assert_eq!(l.h_out, 56); // stage 3 runs at 56² (28² after its pool)
        assert_eq!(l.weight_count(), 128 * 256 * 9);
    }

    #[test]
    fn deeper_models_cost_more() {
        for scale in [InputScale::Cifar, InputScale::ImageNet] {
            let m50: u64 = model_shapes(CnnModel::ResNet50, scale)
                .iter()
                .map(|s| s.macs())
                .sum();
            let m101: u64 = model_shapes(CnnModel::ResNet101, scale)
                .iter()
                .map(|s| s.macs())
                .sum();
            let m152: u64 = model_shapes(CnnModel::ResNet152, scale)
                .iter()
                .map(|s| s.macs())
                .sum();
            assert!(m50 < m101 && m101 < m152);
        }
    }

    #[test]
    fn imagenet_scale_exceeds_cifar_scale() {
        for model in CnnModel::all() {
            let c: u64 = model_shapes(model, InputScale::Cifar)
                .iter()
                .map(|s| s.macs())
                .sum();
            let i: u64 = model_shapes(model, InputScale::ImageNet)
                .iter()
                .map(|s| s.macs())
                .sum();
            assert!(i > c, "{}: imagenet {i} <= cifar {c}", model.name());
        }
    }

    #[test]
    fn resnet50_conv_count() {
        let shapes = model_shapes(CnnModel::ResNet50, InputScale::ImageNet);
        let convs = shapes.iter().filter(|s| s.kind == LayerKind::Conv).count();
        // stem + 16 blocks * 3 + 4 projections = 53.
        assert_eq!(convs, 53);
    }

    #[test]
    fn depthwise_macs_are_cheap() {
        let dw = LayerShape::dwconv("d", 128, 3, 14);
        let full = LayerShape::conv("c", 128, 128, 3, 14);
        assert_eq!(dw.macs() * 128, full.macs());
    }

    #[test]
    fn mobilenet_contains_depthwise() {
        let shapes = model_shapes(CnnModel::MobileNetV2, InputScale::Cifar);
        assert!(shapes.iter().any(|s| s.kind == LayerKind::DepthwiseConv));
    }

    #[test]
    fn all_models_produce_nonempty_shapes() {
        for model in CnnModel::all() {
            let shapes = model_shapes(model, InputScale::Cifar);
            assert!(!shapes.is_empty(), "{} empty", model.name());
            assert!(shapes.iter().all(|s| s.macs() > 0));
        }
    }
}
