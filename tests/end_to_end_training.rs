//! Integration tests: full ADA-GP training loops spanning the tensor, nn
//! and core crates.

use ada_gp::adagp::trainer::evaluate_accuracy;
use ada_gp::adagp::{AdaGp, AdaGpConfig, BaselineTrainer, Phase, ScheduleConfig};
use ada_gp::nn::containers::Sequential;
use ada_gp::nn::data::{DatasetSpec, VisionDataset};
use ada_gp::nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
use ada_gp::nn::models::{build_cnn, CnnModel, ModelConfig};
use ada_gp::nn::module::{ForwardCtx, Module};
use ada_gp::nn::optim::Sgd;
use ada_gp::tensor::Prng;

fn small_cnn(classes: usize, rng: &mut Prng) -> Sequential {
    let mut m = Sequential::new();
    m.push(Conv2d::new(3, 8, 3, 1, 1, true, rng).with_label("c1"));
    m.push(Relu::new());
    m.push(MaxPool2d::new(2, 2));
    m.push(Conv2d::new(8, 12, 3, 1, 1, true, rng).with_label("c2"));
    m.push(Relu::new());
    m.push(Flatten::new());
    m.push(Linear::new(12 * 6 * 6, classes, true, rng).with_label("fc"));
    m
}

/// The baseline must learn the synthetic task well above chance.
#[test]
fn baseline_learns_synthetic_task() {
    let spec = DatasetSpec::tiny(4, 12);
    let ds = VisionDataset::new(spec, 9);
    let mut rng = Prng::seed_from_u64(9);
    let mut model = small_cnn(4, &mut rng);
    let mut trainer = BaselineTrainer::new();
    let mut opt = Sgd::new(0.02, 0.9);
    for epoch in 0..6 {
        for b in 0..12 {
            let (x, y) = ds.train_batch(b + epoch, 8);
            trainer.train_batch(&mut model, &mut opt, &x, &y);
        }
    }
    let acc = evaluate_accuracy(&mut model, (0..4).map(|b| ds.test_batch(b, 8)));
    assert!(acc > 50.0, "baseline accuracy {acc}%");
}

/// ADA-GP with warm-up + alternating phases must also learn well above
/// chance, and its phase counts must follow the schedule.
#[test]
fn adagp_learns_and_follows_schedule() {
    let spec = DatasetSpec::tiny(4, 12);
    let ds = VisionDataset::new(spec, 9);
    let mut rng = Prng::seed_from_u64(9);
    let mut model = small_cnn(4, &mut rng);
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
    let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
    let mut opt = Sgd::new(0.02, 0.9);
    for _epoch in 0..7 {
        for b in 0..12 {
            let (x, y) = ds.train_batch(b, 8);
            adagp.train_batch(&mut model, &mut opt, &x, &y);
        }
        adagp.controller_mut().end_epoch();
    }
    let (warmup, bp, gp) = adagp.controller_mut().phase_counts();
    assert_eq!(warmup, 24, "2 warm-up epochs x 12 batches");
    assert!(gp > bp, "post-warm-up schedule is GP-heavy early on");
    let acc = evaluate_accuracy(&mut model, (0..4).map(|b| ds.test_batch(b, 8)));
    assert!(acc > 40.0, "ADA-GP accuracy {acc}%");
}

/// During Phase GP, non-site parameters (biases, BN) receive no gradient
/// and sites receive exactly the predicted gradient — verifying that
/// backprop is truly skipped.
#[test]
fn gp_phase_touches_only_prediction_sites() {
    let mut rng = Prng::seed_from_u64(3);
    let mut model = small_cnn(4, &mut rng);
    let cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 0,
            ..Default::default()
        },
        track_metrics: false,
        ..Default::default()
    };
    let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
    // With zero momentum, parameters that get no gradient cannot move.
    let mut opt = Sgd::new(0.05, 0.0);
    let x = ada_gp::tensor::init::gaussian(&[4, 3, 12, 12], 0.0, 1.0, &mut rng);

    // Snapshot every parameter; remember which are site weights.
    let mut before = Vec::new();
    model.visit_params(&mut |p| before.push(p.value.clone()));
    let mut site_weight_shapes = Vec::new();
    model.visit_sites(&mut |s| site_weight_shapes.push(s.meta().weight_shape.clone()));

    let stats = adagp.train_batch(&mut model, &mut opt, &x, &[0, 1, 2, 3]);
    assert_eq!(stats.phase, Phase::GP);

    let mut after = Vec::new();
    model.visit_params(&mut |p| after.push(p.value.clone()));
    for (b, a) in before.iter().zip(after.iter()) {
        let is_site_weight = site_weight_shapes.iter().any(|s| s[..] == *b.shape());
        let moved = b.sub(a).norm() > 0.0;
        if is_site_weight {
            assert!(moved, "site weight {:?} did not move in GP", b.shape());
        } else {
            assert!(!moved, "non-site param {:?} moved in GP", b.shape());
        }
    }
}

/// The whole pipeline is deterministic: identical seeds give identical
/// final weights.
#[test]
fn training_is_deterministic() {
    let run = || {
        let spec = DatasetSpec::tiny(3, 12);
        let ds = VisionDataset::new(spec, 5);
        let mut rng = Prng::seed_from_u64(5);
        let mut model = small_cnn(3, &mut rng);
        let mut cfg = AdaGpConfig::default();
        cfg.schedule.warmup_epochs = 0;
        cfg.track_metrics = false;
        let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
        let mut opt = Sgd::new(0.01, 0.9);
        for b in 0..6 {
            let (x, y) = ds.train_batch(b, 4);
            adagp.train_batch(&mut model, &mut opt, &x, &y);
        }
        let mut sum = 0.0f64;
        model.visit_params(&mut |p| sum += p.value.data().iter().map(|v| *v as f64).sum::<f64>());
        sum
    };
    assert_eq!(run().to_bits(), run().to_bits());
}

/// FNV-1a over the little-endian bytes of every parameter after two warm-up
/// batches and two GP/BP pairs of `AdaGp::train_batch`.
///
/// With `max_rows: Some(r)` the BP batches also run the metrics pass
/// (`track_metrics`), sites with more than `r` output channels train on
/// sub-sampled rows, and every site's `predict_gradient` on one fixed
/// activation after training joins the hash: a wrong update to a predictor
/// row that only some sites use surfaces there.
fn trained_weights_hash(
    seed: u64,
    in_size: usize,
    max_rows: Option<usize>,
    build: impl Fn(&mut Prng) -> Sequential,
) -> u64 {
    let ds = VisionDataset::new(DatasetSpec::tiny(4, in_size), seed);
    let mut rng = Prng::seed_from_u64(seed);
    let mut model = build(&mut rng);
    let mut cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 1,
            ratios: [(1, 1); 4],
            ..Default::default()
        },
        track_metrics: max_rows.is_some(),
        ..Default::default()
    };
    if let Some(rows) = max_rows {
        cfg.predictor.max_rows_per_batch = rows;
    }
    let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
    if let Some(rows) = max_rows {
        assert!(adagp.sites().iter().any(|m| m.out_channels() > rows));
    }
    let mut opt = Sgd::new(0.02, 0.9);
    for (epoch, batches) in [2, 4].into_iter().enumerate() {
        for b in 0..batches {
            let (x, y) = ds.train_batch(b + 2 * epoch, 4);
            adagp.train_batch(&mut model, &mut opt, &x, &y);
        }
        adagp.controller_mut().end_epoch();
    }
    assert_eq!(adagp.controller_mut().phase_counts(), (2, 2, 2));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut hash = |t: &ada_gp::tensor::Tensor| {
        for byte in t.data().iter().flat_map(|v| v.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    model.visit_params(&mut |p| hash(&p.value));
    if max_rows.is_some() {
        let mut record = ForwardCtx {
            train: false,
            record_activations: true,
        };
        model.forward(&ds.test_batch(0, 4).0, &mut record);
        let mut sites = Vec::new();
        model.visit_sites(&mut |s| sites.push((s.meta(), s.take_activation().expect("recorded"))));
        for (meta, act) in sites {
            hash(&adagp.predictor_mut().predict_gradient(&meta, &act));
        }
    }
    h
}

/// Cross-commit pin of training itself: the bytes of every weight after
/// warm-up, BP and GP batches on a dense CNN and on MobileNet-V2 (dense,
/// 1x1 and depthwise sites, batch-norm, residuals). The constants were
/// captured from a build of the commit *before* the convolution kernels
/// took channel groups, in the dev and release profiles and at
/// `ADAGP_THREADS` 1 and 3; a change that moves one moves every training
/// output compared byte for byte across commits, and has to say so.
///
/// The third case (MobileNet-V2 with the metrics pass, rows sub-sampled at
/// 24 and the trained predictor's output hashed) pins the predictor head
/// that computes only each site's own `row_len` columns; its constant was
/// captured from a build of the commit before that head, which ran every
/// site at the full `max_row_len` width, with the same profiles and
/// thread counts.
#[test]
fn trained_weight_bytes_are_pinned() {
    let mobilenet =
        |rng: &mut Prng| build_cnn(CnnModel::MobileNetV2, &ModelConfig::tiny(4), 3, 16, rng);
    let small = trained_weights_hash(21, 12, None, |rng| small_cnn(4, rng));
    let mobile = trained_weights_hash(22, 16, None, mobilenet);
    let predicted = trained_weights_hash(23, 16, Some(24), mobilenet);
    assert_eq!(
        (small, mobile, predicted),
        (
            0x7830_1303_d64d_2855,
            0x486d_3fcf_f199_b4d3,
            0x7687_1725_b4fa_55e7
        ),
        "trained weights moved: small_cnn {small:#018x}, MobileNet-V2 {mobile:#018x}, \
         MobileNet-V2 + predictor {predicted:#018x}"
    );
}
