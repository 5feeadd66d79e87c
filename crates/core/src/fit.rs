//! High-level training loops: [`fit_adagp_pipelined`] and [`fit_baseline`]
//! over one copy of the epoch / plateau-scheduler / final-evaluation
//! plumbing. Harnesses that train a classifier call these; a harness
//! that must observe per-batch state loops over [`AdaGp::train_batch`]
//! itself.

use crate::trainer::{evaluate_accuracy, AdaGp, AdaGpConfig, BaselineTrainer};
use adagp_nn::module::Module;
use adagp_nn::optim::Optimizer;
use adagp_nn::sched::ReduceLrOnPlateau;
use adagp_tensor::{Prng, Tensor};

/// A classification data source: indexable train/test batches.
///
/// Implemented for anything that can produce `(images, labels)` batches —
/// the synthetic datasets in `adagp_nn::data` qualify via the blanket impl
/// below.
pub trait BatchSource {
    /// Training batch `idx` of `batch_size` samples.
    fn train(&self, idx: usize, batch_size: usize) -> (Tensor, Vec<usize>);
    /// Test batch `idx` of `batch_size` samples.
    fn test(&self, idx: usize, batch_size: usize) -> (Tensor, Vec<usize>);
}

impl BatchSource for adagp_nn::data::VisionDataset {
    fn train(&self, idx: usize, batch_size: usize) -> (Tensor, Vec<usize>) {
        self.train_batch(idx, batch_size)
    }

    fn test(&self, idx: usize, batch_size: usize) -> (Tensor, Vec<usize>) {
        self.test_batch(idx, batch_size)
    }
}

/// Epoch-level training options.
#[derive(Debug, Clone, Copy)]
pub struct FitOptions {
    /// Number of epochs.
    pub epochs: usize,
    /// Batches per epoch.
    pub batches_per_epoch: usize,
    /// Samples per batch.
    pub batch_size: usize,
    /// Test batches used for the final evaluation.
    pub eval_batches: usize,
    /// Plateau scheduler on the epoch training loss (paper §5.2:
    /// `ReduceLROnPlateau`); `None` keeps a fixed rate.
    pub plateau: Option<(f32, usize)>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            epochs: 8,
            batches_per_epoch: 16,
            batch_size: 8,
            eval_batches: 4,
            plateau: Some((0.5, 3)),
        }
    }
}

/// Result of a fit: final accuracy plus per-epoch mean losses.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Final top-1 test accuracy, percent.
    pub accuracy: f32,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// `(warmup, bp, gp)` batch counts (all-BP for the baseline).
    pub phase_counts: (u64, u64, u64),
}

/// The plumbing both fits share: runs `epoch` (one epoch of training,
/// returning its mean loss) `options.epochs` times, steps the plateau
/// scheduler on each mean, then evaluates on the test batches. The
/// caller fills in `phase_counts`.
fn fit_epochs(
    model: &mut dyn Module,
    data: &dyn BatchSource,
    opt: &mut dyn Optimizer,
    options: &FitOptions,
    mut epoch: impl FnMut(&mut dyn Module, &mut dyn Optimizer) -> f32,
) -> FitReport {
    let mut sched = options.plateau.map(|(f, p)| ReduceLrOnPlateau::new(f, p));
    let mut epoch_losses = Vec::with_capacity(options.epochs);
    for _ in 0..options.epochs {
        let mean = epoch(model, opt);
        epoch_losses.push(mean);
        if let Some(s) = &mut sched {
            let lr = s.step(mean, opt.lr());
            opt.set_lr(lr);
        }
    }
    let accuracy = evaluate_accuracy(
        model,
        (0..options.eval_batches).map(|b| data.test(b, options.batch_size)),
    );
    FitReport {
        accuracy,
        epoch_losses,
        phase_counts: (0, 0, 0),
    }
}

/// Trains `model` with ADA-GP end to end and evaluates it, one
/// [`AdaGp::train_epoch_pipelined`] per epoch: batch generation, model
/// work and predictor updates overlap across batches. The result is
/// bit-identical to a serial [`AdaGp::train_batch`] loop over the same
/// batches — the pipeline buys wall-clock time, not different math.
///
/// `queue_depth` bounds the prefetch/predictor queues (2–4 is plenty).
pub fn fit_adagp_pipelined<D: BatchSource + Sync>(
    model: &mut dyn Module,
    data: &D,
    cfg: AdaGpConfig,
    opt: &mut dyn Optimizer,
    options: &FitOptions,
    queue_depth: usize,
    rng: &mut Prng,
) -> FitReport {
    let mut adagp = AdaGp::new(cfg, model, rng);
    let report = fit_epochs(model, data, opt, options, |model, opt| {
        let epoch =
            adagp.train_epoch_pipelined(model, opt, options.batches_per_epoch, queue_depth, |b| {
                data.train(b, options.batch_size)
            });
        adagp.controller_mut().end_epoch();
        epoch.mean_loss()
    });
    FitReport {
        phase_counts: adagp.controller_mut().phase_counts(),
        ..report
    }
}

/// Trains `model` with plain backprop end to end and evaluates it — the
/// Table 1 baseline arm.
pub fn fit_baseline(
    model: &mut dyn Module,
    data: &dyn BatchSource,
    opt: &mut dyn Optimizer,
    options: &FitOptions,
) -> FitReport {
    let mut trainer = BaselineTrainer::new();
    let report = fit_epochs(model, data, opt, options, |model, opt| {
        let mut loss = 0.0f32;
        for b in 0..options.batches_per_epoch {
            let (x, y) = data.train(b, options.batch_size);
            loss += trainer.train_batch(model, opt, &x, &y).loss;
        }
        loss / options.batches_per_epoch.max(1) as f32
    });
    FitReport {
        phase_counts: (0, (options.epochs * options.batches_per_epoch) as u64, 0),
        ..report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ScheduleConfig;
    use adagp_nn::containers::Sequential;
    use adagp_nn::data::{DatasetSpec, VisionDataset};
    use adagp_nn::layers::{Conv2d, Flatten, Linear, Relu};
    use adagp_nn::optim::Sgd;

    fn model(rng: &mut Prng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Conv2d::new(3, 6, 3, 1, 1, true, rng));
        m.push(Relu::new());
        m.push(Flatten::new());
        m.push(Linear::new(6 * 12 * 12, 4, true, rng));
        m
    }

    #[test]
    fn fit_baseline_learns() {
        let ds = VisionDataset::new(DatasetSpec::tiny(4, 12), 1);
        let mut rng = Prng::seed_from_u64(1);
        let mut m = model(&mut rng);
        let mut opt = Sgd::new(0.02, 0.9);
        let report = fit_baseline(&mut m, &ds, &mut opt, &FitOptions::default());
        assert!(report.accuracy > 50.0, "accuracy {}", report.accuracy);
        assert_eq!(report.epoch_losses.len(), 8);
        // Loss decreases overall.
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
    }

    #[test]
    fn fit_pipelined_matches_fit_serial() {
        let ds = VisionDataset::new(DatasetSpec::tiny(4, 12), 1);
        let cfg = AdaGpConfig {
            schedule: ScheduleConfig {
                warmup_epochs: 1,
                epochs_per_stage: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let options = FitOptions {
            epochs: 3,
            ..Default::default()
        };

        // Serial reference: a plain `train_batch` loop under the same
        // epoch plumbing.
        let mut rng = Prng::seed_from_u64(5);
        let mut m_serial = model(&mut rng);
        let mut opt = Sgd::new(0.02, 0.9);
        let mut adagp = AdaGp::new(cfg, &mut m_serial, &mut rng);
        let mut serial = fit_epochs(&mut m_serial, &ds, &mut opt, &options, |model, opt| {
            let mut loss = 0.0f32;
            for b in 0..options.batches_per_epoch {
                let (x, y) = ds.train_batch(b, options.batch_size);
                loss += adagp.train_batch(model, opt, &x, &y).loss;
            }
            adagp.controller_mut().end_epoch();
            loss / options.batches_per_epoch as f32
        });
        serial.phase_counts = adagp.controller_mut().phase_counts();

        let mut rng = Prng::seed_from_u64(5);
        let mut m_pipe = model(&mut rng);
        let mut opt = Sgd::new(0.02, 0.9);
        let piped = fit_adagp_pipelined(&mut m_pipe, &ds, cfg, &mut opt, &options, 3, &mut rng);

        assert_eq!(serial.epoch_losses, piped.epoch_losses);
        assert_eq!(serial.accuracy, piped.accuracy);
        assert_eq!(serial.phase_counts, piped.phase_counts);
        let mut ws = Vec::new();
        m_serial.visit_params(&mut |p| ws.push(p.value.clone()));
        let mut wp = Vec::new();
        m_pipe.visit_params(&mut |p| wp.push(p.value.clone()));
        assert_eq!(ws, wp);
    }

    #[test]
    fn fit_adagp_learns_and_reports_phases() {
        let ds = VisionDataset::new(DatasetSpec::tiny(4, 12), 1);
        let mut rng = Prng::seed_from_u64(1);
        let mut m = model(&mut rng);
        let mut opt = Sgd::new(0.02, 0.9);
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
        let report = fit_adagp_pipelined(
            &mut m,
            &ds,
            cfg,
            &mut opt,
            &FitOptions::default(),
            3,
            &mut rng,
        );
        assert!(report.accuracy > 40.0, "accuracy {}", report.accuracy);
        let (warmup, bp, gp) = report.phase_counts;
        assert_eq!(warmup, 32);
        assert!(gp > 0 && bp > 0);
    }
}
