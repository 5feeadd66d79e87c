//! A DNI-style baseline (Jaderberg et al., §2 of the ADA-GP paper):
//! synthetic gradients are *applied immediately* to every layer while the
//! backpropagation pass still runs in full to train the auxiliary
//! predictor.
//!
//! The paper's central criticism of this line of work is performance: "DNI
//! does not eliminate the backpropagation step at all. Instead, it
//! increases computations of the backpropagation step." This module lets
//! the repository demonstrate that comparison directly: `DniTrainer` never
//! skips a backward pass (so the accelerator model gives it ≤1× speed-up),
//! whereas `AdaGp` skips it on every GP batch. Its per-batch step cost is
//! the Phase-BP schedule — predictor work after every forward and every
//! backward, nothing skipped — which `adagp_sim::step_timeline` simulates.

use crate::metrics::{gradient_errors, GradientErrors, MAPE_EPS};
use crate::predictor::{Predictor, PredictorConfig};
use adagp_nn::module::{site_metas, ForwardCtx, Module};
use adagp_nn::optim::Optimizer;
use adagp_nn::SiteMeta;
use adagp_tensor::softmax::cross_entropy;
use adagp_tensor::{Prng, Tensor};

/// Per-batch statistics of a DNI training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DniBatchStats {
    /// Task loss.
    pub loss: f32,
    /// Mean predictor training loss across sites.
    pub predictor_loss: f32,
    /// Mean MAPE between synthetic and true gradients.
    pub mape: f32,
}

/// Decoupled-Neural-Interface-style trainer: weights are updated with
/// synthetic (predicted) gradients as soon as activations are available,
/// and the full backward pass still runs to supervise the predictor.
pub struct DniTrainer {
    predictor: Predictor,
    sites: Vec<SiteMeta>,
}

impl std::fmt::Debug for DniTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DniTrainer(sites={})", self.sites.len())
    }
}

impl DniTrainer {
    /// Builds a DNI trainer for `model`, sharing ADA-GP's predictor
    /// architecture for a like-for-like comparison.
    ///
    /// # Panics
    ///
    /// Panics if the model has no prediction sites.
    pub fn new(cfg: PredictorConfig, model: &mut dyn Module, rng: &mut Prng) -> Self {
        let sites = site_metas(model);
        assert!(!sites.is_empty(), "model exposes no prediction sites");
        let predictor = Predictor::for_sites(cfg, &sites, rng);
        DniTrainer { predictor, sites }
    }

    /// Site metadata.
    pub fn sites(&self) -> &[SiteMeta] {
        &self.sites
    }

    /// One DNI training batch:
    ///
    /// 1. forward (recording activations);
    /// 2. synthetic gradients are written into every site (the "decoupled"
    ///    update signal);
    /// 3. the real backward pass runs anyway — its true gradients
    ///    *replace* the bookkeeping gradient for non-site parameters and
    ///    supervise the predictor;
    /// 4. one optimizer step applies the synthetic site gradients and the
    ///    true non-site gradients.
    ///
    /// Crucially the backward pass is never skipped, so DNI's cost is the
    /// baseline's cost plus predictor work — the paper's §2 argument.
    pub fn train_batch(
        &mut self,
        model: &mut dyn Module,
        opt: &mut dyn Optimizer,
        x: &Tensor,
        targets: &[usize],
    ) -> DniBatchStats {
        let logits = model.forward(x, &mut ForwardCtx::train_recording());
        let (loss, dlogits) = cross_entropy(&logits, targets);
        // Full backward (true gradients accumulate everywhere).
        model.backward(&dlogits);

        // For every site: compare + train predictor on the true gradient,
        // then *overwrite* the site gradient with the synthetic one.
        let predictor = &mut self.predictor;
        let mut pred_losses = Vec::with_capacity(self.sites.len());
        let mut mapes = Vec::with_capacity(self.sites.len());
        model.visit_sites(&mut |site| {
            let meta = site.meta();
            if let Some(act) = site.take_activation() {
                let true_grad = site.weight_param().grad.clone();
                let synthetic = predictor.predict_gradient(&meta, &act);
                let e: GradientErrors = gradient_errors(&synthetic, &true_grad, MAPE_EPS);
                mapes.push(e.mape);
                pred_losses.push(predictor.train_step_owned(&meta, &act, true_grad));
                let w = site.weight_param();
                w.zero_grad();
                w.accumulate_grad(&synthetic);
            }
        });
        opt.step(model);
        let n = pred_losses.len().max(1) as f32;
        DniBatchStats {
            loss,
            predictor_loss: pred_losses.iter().sum::<f32>() / n,
            mape: mapes.iter().sum::<f32>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_nn::containers::Sequential;
    use adagp_nn::layers::{Conv2d, Flatten, Linear, Relu};
    use adagp_nn::optim::Sgd;

    fn tiny_model(rng: &mut Prng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Conv2d::new(1, 4, 3, 1, 1, true, rng));
        m.push(Relu::new());
        m.push(Flatten::new());
        m.push(Linear::new(4 * 4 * 4, 3, true, rng));
        m
    }

    #[test]
    fn dni_trains_and_reports_stats() {
        let mut rng = Prng::seed_from_u64(0);
        let mut model = tiny_model(&mut rng);
        let mut dni = DniTrainer::new(PredictorConfig::default(), &mut model, &mut rng);
        let mut opt = Sgd::new(0.01, 0.9);
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let stats = dni.train_batch(&mut model, &mut opt, &x, &[0, 1]);
        assert!(stats.loss.is_finite());
        assert!(stats.predictor_loss.is_finite());
        assert!(stats.mape.is_finite());
        assert_eq!(dni.sites().len(), 2);
    }

    #[test]
    fn dni_updates_sites_with_synthetic_gradients() {
        let mut rng = Prng::seed_from_u64(1);
        let mut model = tiny_model(&mut rng);
        let mut dni = DniTrainer::new(PredictorConfig::default(), &mut model, &mut rng);
        let mut opt = Sgd::new(0.05, 0.0);
        let mut before = Vec::new();
        model.visit_sites(&mut |s| before.push(s.weight_param().value.clone()));
        let x = Tensor::ones(&[2, 1, 4, 4]);
        dni.train_batch(&mut model, &mut opt, &x, &[0, 1]);
        let mut after = Vec::new();
        model.visit_sites(&mut |s| after.push(s.weight_param().value.clone()));
        assert!(before
            .iter()
            .zip(after.iter())
            .any(|(b, a)| b.sub(a).norm() > 0.0));
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut rng = Prng::seed_from_u64(9);
            let mut model = tiny_model(&mut rng);
            let mut dni = DniTrainer::new(PredictorConfig::default(), &mut model, &mut rng);
            let mut opt = Sgd::new(0.01, 0.9);
            let x = Tensor::ones(&[2, 1, 4, 4]);
            dni.train_batch(&mut model, &mut opt, &x, &[0, 1]).loss
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }
}
