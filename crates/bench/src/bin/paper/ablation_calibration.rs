//! Ablation: gradient-norm calibration on/off.
//!
//! This reproduction adds one engineering refinement over the paper's
//! description: predicted gradients are rescaled to an EMA of the site's
//! true-gradient norm (DESIGN.md §5). This harness quantifies its effect
//! at the CPU budget.

use adagp_core::trainer::evaluate_accuracy;
use adagp_core::{AdaGp, AdaGpConfig, ScheduleConfig};
use adagp_nn::data::{DatasetSpec, VisionDataset};
use adagp_nn::models::{build_cnn, CnnModel, ModelConfig};
use adagp_nn::optim::Sgd;
use adagp_tensor::Prng;

fn accuracy(calibrate: bool) -> f32 {
    let spec = DatasetSpec {
        classes: 10,
        channels: 3,
        size: 12,
        train_len: 160,
        test_len: 64,
    };
    let ds = VisionDataset::new(spec, 42);
    let model_cfg = ModelConfig {
        width: 0.0625,
        depth_div: 4,
        classes: spec.classes,
    };
    let mut rng = Prng::seed_from_u64(1);
    let mut model = build_cnn(CnnModel::Vgg13, &model_cfg, 3, spec.size, &mut rng);
    let mut cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 2,
            epochs_per_stage: 1,
            ..Default::default()
        },
        track_metrics: false,
        norm_calibration: calibrate,
        ..Default::default()
    };
    cfg.predictor.lr = 1e-3;
    let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
    let mut opt = Sgd::new(0.01, 0.9);
    for _ in 0..6 {
        for b in 0..16 {
            let (x, y) = ds.train_batch(b, 8);
            adagp.train_batch(&mut model, &mut opt, &x, &y);
        }
        adagp.controller_mut().end_epoch();
    }
    evaluate_accuracy(&mut model, (0..4).map(|b| ds.test_batch(b, 8)))
}

pub fn run() {
    let with = accuracy(true);
    let without = accuracy(false);
    println!("== Ablation: predicted-gradient norm calibration (VGG13, CIFAR10 stand-in) ==");
    println!("with calibration:    {with:.2}%");
    println!("without calibration: {without:.2}%");
    println!("delta:               {:+.2} points", with - without);
}
