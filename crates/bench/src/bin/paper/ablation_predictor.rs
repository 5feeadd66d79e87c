//! Ablation: the two scalability choices of §3.6.
//!
//! 1. **Single shared predictor vs per-layer predictors** — parameter
//!    storage comparison over the model zoo (the "Curse of Scale",
//!    challenge 1 of the paper).
//! 2. **Tensor reorganization vs a flat FC predictor** — the paper's own
//!    VGG13 conv example: a flat predictor needs
//!    `batch·out_ch·W·H × out_ch·in_ch·k·k` weights; reorganization cuts
//!    the FC to `feat × in_ch·k·k`.

use adagp_bench::report::render_table;
use adagp_core::{Predictor, PredictorConfig};
use adagp_nn::models::shapes::{model_shapes, InputScale, LayerKind};
use adagp_nn::models::CnnModel;
use adagp_nn::{SiteKind, SiteMeta};
use adagp_tensor::Prng;

fn site_metas_for(model: CnnModel) -> Vec<SiteMeta> {
    model_shapes(model, InputScale::ImageNet)
        .into_iter()
        .map(|l| SiteMeta {
            kind: match l.kind {
                LayerKind::Linear => SiteKind::Linear,
                _ => SiteKind::Conv2d,
            },
            weight_shape: match l.kind {
                LayerKind::Linear => vec![l.out_ch, l.in_ch],
                LayerKind::DepthwiseConv => vec![l.out_ch, 1, l.k, l.k],
                LayerKind::Conv => vec![l.out_ch, l.in_ch, l.k, l.k],
            },
            label: l.label,
        })
        .collect()
}

pub fn run() {
    let cfg = PredictorConfig::default();
    let mut rows = Vec::new();
    for model in [CnnModel::Vgg13, CnnModel::ResNet50, CnnModel::DenseNet201] {
        let sites = site_metas_for(model);
        let mut rng = Prng::seed_from_u64(0);
        let mut shared = Predictor::for_sites(cfg, &sites, &mut rng);
        let shared_params = shared.param_count();
        // Per-layer predictors: one FC head sized per layer.
        let per_layer: usize = sites
            .iter()
            .map(|s| {
                let mut rng = Prng::seed_from_u64(0);
                let mut p = Predictor::new(cfg, s.grads_per_out_channel(), &mut rng);
                p.param_count()
            })
            .sum();
        rows.push(vec![
            model.name().to_string(),
            sites.len().to_string(),
            format!("{:.2}M", shared_params as f64 / 1e6),
            format!("{:.2}M", per_layer as f64 / 1e6),
            format!("{:.1}x", per_layer as f64 / shared_params as f64),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Ablation 1: shared predictor vs per-layer predictors (storage)",
            &[
                "Model",
                "Layers",
                "Shared params",
                "Per-layer params",
                "Reduction"
            ],
            &rows,
        )
    );

    // Ablation 2: the §3.6 example — VGG13's Conv2d(128, 256, 3x3) at 28².
    let batch = 128u64;
    let (out_ch, in_ch, k, w, h) = (256u64, 128u64, 3u64, 28u64, 28u64);
    let flat_in = batch * out_ch * w * h;
    let flat_out = out_ch * in_ch * k * k;
    let flat_weights = flat_in * flat_out;
    let feat = (cfg.conv_channels * cfg.pooled_size * cfg.pooled_size) as u64;
    let reorg_weights = feat * (in_ch * k * k);
    println!("Ablation 2: flat FC vs tensor reorganization for VGG13 Conv2d(128,256,3x3) @28^2");
    println!(
        "  flat FC predictor weights:        {:.2e}",
        flat_weights as f64
    );
    println!(
        "  reorganized FC predictor weights: {:.2e}",
        reorg_weights as f64
    );
    println!(
        "  reduction: {:.1e}x",
        flat_weights as f64 / reorg_weights as f64
    );
}
