//! Table 3 experiment: YOLO-style detector on the PascalVOC stand-in, BP
//! vs ADA-GP-Efficient/MAX.
//!
//! The cycle columns come from the accelerator model (both ADA-GP designs
//! run the same algorithm, so their accuracy is identical and only cycles
//! differ — exactly the structure of the paper's Table 3).
//!
//! The detection loss lives in [`YoloHead`], not in the model, so the
//! ADA-GP arm hands [`AdaGp::train_step`] a closure over `head.loss`; the
//! phase machine is the same one the classification harnesses use.

use adagp_core::{AdaGp, AdaGpConfig, ScheduleConfig};
use adagp_nn::containers::Sequential;
use adagp_nn::data::DetectionDataset;
use adagp_nn::metrics::mean_average_precision;
use adagp_nn::models::{yolo_v3_tiny, ModelConfig, YoloHead};
use adagp_nn::module::{ForwardCtx, Module};
use adagp_nn::optim::{Optimizer, Sgd};
use adagp_tensor::Prng;

/// One arm's detection metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionArm {
    /// Responsible-cell classification accuracy, percent.
    pub class_acc: f32,
    /// Mean average precision at IoU 0.5.
    pub test_map: f32,
}

/// Budget of the detection experiment.
#[derive(Debug, Clone, Copy)]
pub struct DetectionBudget {
    /// Training epochs.
    pub epochs: usize,
    /// ADA-GP warm-up epochs.
    pub warmup: usize,
    /// Batches per epoch.
    pub batches_per_epoch: usize,
    /// Images per batch.
    pub batch: usize,
    /// Number of object classes.
    pub classes: usize,
    /// Image side length.
    pub size: usize,
}

impl DetectionBudget {
    /// Quick harness budget: 8 classes at 32².
    pub fn quick() -> Self {
        DetectionBudget {
            epochs: 6,
            warmup: 2,
            batches_per_epoch: 12,
            batch: 8,
            classes: 8,
            size: 32,
        }
    }

    /// Full budget: 20 VOC classes.
    pub fn full() -> Self {
        DetectionBudget {
            epochs: 12,
            warmup: 3,
            batches_per_epoch: 24,
            batch: 8,
            classes: 20,
            size: 32,
        }
    }
}

fn evaluate(
    model: &mut Sequential,
    head: &YoloHead,
    data: &DetectionDataset,
    batches: usize,
    batch: usize,
) -> DetectionArm {
    let mut dets = Vec::new();
    let mut gts = Vec::new();
    let mut acc_sum = 0.0f32;
    for bi in 0..batches {
        let (x, labels) = data.test_batch(bi, batch);
        let raw = model.forward(&x, &mut ForwardCtx::eval());
        acc_sum += head.class_accuracy(&raw, &labels);
        let mut batch_dets = head.decode(&raw);
        // Re-index detections into the global image numbering.
        for d in &mut batch_dets {
            d.image += bi * batch;
        }
        dets.extend(batch_dets);
        gts.extend(labels);
    }
    DetectionArm {
        class_acc: acc_sum / batches.max(1) as f32,
        test_map: mean_average_precision(&dets, &gts, 0.5, head.classes),
    }
}

/// Runs both arms of the Table 3 experiment; returns `(bp, adagp)`.
pub fn run_detection_experiment(
    budget: &DetectionBudget,
    seed: u64,
) -> (DetectionArm, DetectionArm) {
    let data = DetectionDataset::new(budget.classes, budget.size, 256, 64, seed);
    let head = YoloHead::new(budget.classes);
    let cfg = model_config(budget);
    let eval_batches = 4;

    // --- BP arm.
    let mut rng = Prng::seed_from_u64(seed);
    let mut model = yolo_v3_tiny(&cfg, budget.classes, &mut rng);
    let mut opt = Sgd::new(0.005, 0.9);
    for _ in 0..budget.epochs {
        for b in 0..budget.batches_per_epoch {
            let (x, labels) = data.train_batch(b, budget.batch);
            let raw = model.forward(&x, &mut ForwardCtx::train());
            let (_, grad) = head.loss(&raw, &labels);
            model.backward(&grad);
            opt.step(&mut model);
        }
    }
    let bp = evaluate(&mut model, &head, &data, eval_batches, budget.batch);

    // --- ADA-GP arm.
    let mut rng = Prng::seed_from_u64(seed);
    let mut model = yolo_v3_tiny(&cfg, budget.classes, &mut rng);
    let mut adagp = AdaGp::new(adagp_config(budget), &mut model, &mut rng);
    let mut opt = Sgd::new(0.005, 0.9);
    for _ in 0..budget.epochs {
        for b in 0..budget.batches_per_epoch {
            let (x, labels) = data.train_batch(b, budget.batch);
            adagp.train_step(&mut model, &mut opt, |model, backprop| {
                let raw = model.forward(&x, &mut ForwardCtx::train_recording());
                let (loss, grad) = head.loss(&raw, &labels);
                if backprop {
                    model.backward(&grad);
                }
                loss
            });
        }
        adagp.controller_mut().end_epoch();
    }
    let gp = evaluate(&mut model, &head, &data, eval_batches, budget.batch);
    (bp, gp)
}

fn model_config(budget: &DetectionBudget) -> ModelConfig {
    ModelConfig {
        width: 0.25,
        depth_div: 1,
        classes: budget.classes,
    }
}

fn adagp_config(budget: &DetectionBudget) -> AdaGpConfig {
    AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: budget.warmup,
            epochs_per_stage: 1,
            ..Default::default()
        },
        track_metrics: false,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_experiment_produces_valid_metrics() {
        let budget = DetectionBudget {
            epochs: 2,
            warmup: 1,
            batches_per_epoch: 4,
            batch: 4,
            classes: 4,
            size: 16,
        };
        let (bp, gp) = run_detection_experiment(&budget, 3);
        for arm in [bp, gp] {
            assert!((0.0..=100.0).contains(&arm.class_acc));
            assert!((0.0..=1.0).contains(&arm.test_map));
        }
        assert_eq!(gp, hook_reference_arm(&budget, 3));
    }

    /// The ADA-GP arm re-issued from `AdaGp`'s public hooks; `train_step`
    /// must produce the same model, bit for bit.
    fn hook_reference_arm(budget: &DetectionBudget, seed: u64) -> DetectionArm {
        use adagp_core::Phase;
        let data = DetectionDataset::new(budget.classes, budget.size, 256, 64, seed);
        let head = YoloHead::new(budget.classes);
        let mut rng = Prng::seed_from_u64(seed);
        let mut model = yolo_v3_tiny(&model_config(budget), budget.classes, &mut rng);
        let mut adagp = AdaGp::new(adagp_config(budget), &mut model, &mut rng);
        let mut opt = Sgd::new(0.005, 0.9);
        for _ in 0..budget.epochs {
            for b in 0..budget.batches_per_epoch {
                let (x, labels) = data.train_batch(b, budget.batch);
                let phase = adagp.controller_mut().next_phase();
                let raw = model.forward(&x, &mut ForwardCtx::train_recording());
                if phase == Phase::GP {
                    adagp.apply_predicted_gradients(&mut model);
                } else {
                    let (_, grad) = head.loss(&raw, &labels);
                    model.backward(&grad);
                    adagp.train_predictor_from_sites(&mut model);
                }
                opt.step(&mut model);
            }
            adagp.controller_mut().end_epoch();
        }
        evaluate(&mut model, &head, &data, 4, budget.batch)
    }
}
