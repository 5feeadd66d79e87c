//! Related-work comparison (§2): DNI-style synthetic gradients vs ADA-GP.
//!
//! DNI applies synthetic gradients but never skips backprop, so it cannot
//! speed up training; ADA-GP skips backprop on GP batches. This harness
//! trains both on the same task and prints accuracy plus the §3.7 step
//! costs.

use adagp_bench::report::render_table;
use adagp_core::dni::{dni_vs_adagp_steps, DniTrainer};
use adagp_core::trainer::evaluate_accuracy;
use adagp_core::{AdaGp, AdaGpConfig, PredictorConfig, ScheduleConfig};
use adagp_nn::data::{DatasetSpec, VisionDataset};
use adagp_nn::models::{build_cnn, CnnModel, ModelConfig};
use adagp_nn::optim::Sgd;
use adagp_tensor::Prng;

pub fn run() {
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
    let (epochs, batches, batch) = (8, 16, 8);

    // DNI arm.
    let mut rng = Prng::seed_from_u64(1);
    let mut dni_model = build_cnn(CnnModel::Vgg13, &model_cfg, 3, spec.size, &mut rng);
    let pred_cfg = PredictorConfig {
        lr: 1e-3,
        ..Default::default()
    };
    let mut dni = DniTrainer::new(pred_cfg, &mut dni_model, &mut rng);
    let mut opt = Sgd::new(0.01, 0.9);
    for _ in 0..epochs {
        for b in 0..batches {
            let (x, y) = ds.train_batch(b, batch);
            dni.train_batch(&mut dni_model, &mut opt, &x, &y);
        }
    }
    let dni_acc = evaluate_accuracy(&mut dni_model, (0..4).map(|b| ds.test_batch(b, batch)));

    // ADA-GP arm (same seed).
    let mut rng = Prng::seed_from_u64(1);
    let mut gp_model = build_cnn(CnnModel::Vgg13, &model_cfg, 3, spec.size, &mut rng);
    let mut cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 2,
            epochs_per_stage: 1,
            ..Default::default()
        },
        track_metrics: false,
        ..Default::default()
    };
    cfg.predictor.lr = 1e-3;
    let mut adagp = AdaGp::new(cfg, &mut gp_model, &mut rng);
    let mut opt = Sgd::new(0.01, 0.9);
    for _ in 0..epochs {
        for b in 0..batches {
            let (x, y) = ds.train_batch(b, batch);
            adagp.train_batch(&mut gp_model, &mut opt, &x, &y);
        }
        adagp.controller_mut().end_epoch();
    }
    let gp_acc = evaluate_accuracy(&mut gp_model, (0..4).map(|b| ds.test_batch(b, batch)));
    let (_, _, gp_batches) = adagp.controller_mut().phase_counts();

    let (dni_steps, adagp_gp_steps, baseline_steps) = dni_vs_adagp_steps(13, 0.1);
    let rows = vec![
        vec![
            "DNI-style".to_string(),
            format!("{dni_acc:.2}%"),
            "0".to_string(),
            format!("{dni_steps:.1} (>= baseline {baseline_steps:.0})"),
        ],
        vec![
            "ADA-GP".to_string(),
            format!("{gp_acc:.2}%"),
            gp_batches.to_string(),
            format!("{adagp_gp_steps:.1} per GP batch"),
        ],
    ];
    println!(
        "{}",
        render_table(
            "Related work: DNI-style synthetic gradients vs ADA-GP (VGG13, C10 stand-in)",
            &[
                "Scheme",
                "Accuracy",
                "Backward passes skipped",
                "Steps/batch (13-layer model)"
            ],
            &rows,
        )
    );
    println!("DNI never skips backprop (paper §2), so it cannot accelerate training;");
    println!("ADA-GP's speed-up comes from eliminating the BW pass on GP batches.");
}
