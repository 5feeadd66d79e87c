//! Optimizers: SGD with momentum and Adam.
//!
//! The paper trains original models with SGD+Momentum (lr 0.001) and the
//! predictor model with Adam (lr 0.0001) — §5.2. Both optimizers keep
//! per-parameter state indexed by visit order, which is deterministic for a
//! fixed architecture.

use crate::module::Module;
use adagp_tensor::Tensor;

/// Clips the global gradient norm of a model to `max_norm`, returning the
/// pre-clip norm. Standard stabilization for the transformer/YOLO training
/// loops.
///
/// # Panics
///
/// Panics if `max_norm <= 0`.
pub fn clip_grad_norm(model: &mut dyn Module, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut sq = 0.0f64;
    model.visit_params(&mut |p| {
        sq += p
            .grad
            .data()
            .iter()
            .map(|g| (*g as f64) * (*g as f64))
            .sum::<f64>();
    });
    let norm = (sq as f32).sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        model.visit_params(&mut |p| p.grad.scale_in_place(scale));
    }
    norm
}

/// Optimizer interface: one `step` consumes the accumulated gradients and
/// zeroes them.
pub trait Optimizer {
    /// Applies one update step to every parameter of `model` and clears the
    /// gradients.
    fn step(&mut self, model: &mut dyn Module);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Sets the learning rate (used by schedulers).
    fn set_lr(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum and optional weight
/// decay.
///
/// `v = mu * v + g + wd * w;  w -= lr * v`
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates SGD with the given learning rate and momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Module) {
        let mut idx = 0;
        let lr = self.lr;
        let mu = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.shape()));
            }
            let v = &mut velocity[idx];
            debug_assert_eq!(v.shape(), p.value.shape(), "optimizer state shape drift");
            for ((vv, &g), &w) in v
                .data_mut()
                .iter_mut()
                .zip(p.grad.data().iter())
                .zip(p.value.data().iter())
            {
                *vv = mu * *vv + g + wd * w;
            }
            p.value.axpy(-lr, v);
            p.zero_grad();
            idx += 1;
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas
    /// `(0.9, 0.999)`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Overrides the exponential decay rates.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// The first and second moment estimates, one tensor per parameter in
    /// `visit_params` order (empty before the first step).
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Module) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let mut idx = 0;
        let (ms, vs) = (&mut self.m, &mut self.v);
        model.visit_params(&mut |p| {
            if ms.len() <= idx {
                ms.push(Tensor::zeros(p.value.shape()));
                vs.push(Tensor::zeros(p.value.shape()));
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            for (((mv, vv), &g), w) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(p.grad.data().iter())
                .zip(p.value.data_mut().iter_mut())
            {
                *mv = b1 * *mv + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            p.zero_grad();
            idx += 1;
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::module::ForwardCtx;
    use adagp_tensor::{softmax::mse_loss, Prng};

    /// Trains y = 2x with a 1x1 linear layer; both optimizers must converge.
    fn converges(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut rng = Prng::seed_from_u64(0);
        let mut model = Linear::new(1, 1, true, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]);
        let target = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[4, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..iters {
            let y = model.forward(&x, &mut ForwardCtx::train());
            let (loss, dy) = mse_loss(&y, &target);
            model.backward(&dy);
            opt.step(&mut model);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_regression() {
        let mut opt = Sgd::new(0.05, 0.9);
        assert!(converges(&mut opt, 500) < 1e-3);
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        // Adam's effective step stays near lr when gradients are steady, so
        // it needs more iterations than SGD to settle on this problem.
        let mut opt = Adam::new(0.05);
        assert!(converges(&mut opt, 2000) < 1e-3);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = Prng::seed_from_u64(1);
        let mut model = Linear::new(2, 2, false, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let y = model.forward(&x, &mut ForwardCtx::train());
        model.backward(&Tensor::ones(y.shape()));
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut model);
        model.visit_params(&mut |p| assert_eq!(p.grad.norm(), 0.0));
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut opt = Adam::new(0.001);
        assert_eq!(opt.lr(), 0.001);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }

    #[test]
    fn clip_grad_norm_caps_large_gradients() {
        let mut rng = Prng::seed_from_u64(3);
        let mut model = Linear::new(4, 4, false, &mut rng);
        model.visit_params(&mut |p| {
            p.grad = Tensor::full(p.value.shape(), 10.0);
        });
        let pre = clip_grad_norm(&mut model, 1.0);
        assert!(pre > 1.0);
        let mut post_sq = 0.0f32;
        model.visit_params(&mut |p| post_sq += p.grad.data().iter().map(|g| g * g).sum::<f32>());
        assert!((post_sq.sqrt() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients() {
        let mut rng = Prng::seed_from_u64(4);
        let mut model = Linear::new(2, 2, false, &mut rng);
        model.visit_params(&mut |p| {
            p.grad = Tensor::full(p.value.shape(), 0.01);
        });
        clip_grad_norm(&mut model, 100.0);
        model.visit_params(&mut |p| {
            assert!(p.grad.data().iter().all(|&g| (g - 0.01).abs() < 1e-7));
        });
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = Prng::seed_from_u64(2);
        let mut model = Linear::new(4, 4, false, &mut rng);
        let before = model.weight().value.norm();
        // No gradient signal: decay alone should shrink the weights.
        let mut opt = Sgd::new(0.1, 0.0).with_weight_decay(0.1);
        for _ in 0..10 {
            opt.step(&mut model);
        }
        assert!(model.weight().value.norm() < before);
    }
}
