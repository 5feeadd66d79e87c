//! Optimizers: SGD with momentum and Adam.
//!
//! The paper trains original models with SGD+Momentum (lr 0.001) and the
//! predictor model with Adam (lr 0.0001) — §5.2. Both optimizers keep
//! per-parameter state indexed by visit order, which is deterministic for a
//! fixed architecture.

use crate::module::Module;
use adagp_tensor::Tensor;

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

/// Stochastic gradient descent with classical momentum.
///
/// `v = mu * v + g;  w -= lr * v`
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
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
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Module) {
        let mut idx = 0;
        let lr = self.lr;
        let mu = self.momentum;
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.shape()));
            }
            let v = &mut velocity[idx];
            debug_assert_eq!(v.shape(), p.value.shape(), "optimizer state shape drift");
            for (vv, &g) in v.data_mut().iter_mut().zip(p.grad.data().iter()) {
                *vv = mu * *vv + g;
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

/// Adam's exponential decay rates for the first and second moments.
const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;

/// Adam optimizer (Kingma & Ba) with bias correction and betas
/// `(0.9, 0.999)`.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
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
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, BETA1, BETA2, self.eps);
        let mut idx = 0;
        let (ms, vs) = (&mut self.m, &mut self.v);
        model.visit_params(&mut |p| {
            if ms.len() <= idx {
                ms.push(Tensor::zeros(p.value.shape()));
                vs.push(Tensor::zeros(p.value.shape()));
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            // One pass: each gradient is zeroed as it is read.
            for (((mv, vv), g), w) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(p.grad.data_mut().iter_mut())
                .zip(p.value.data_mut().iter_mut())
            {
                let g = std::mem::replace(g, 0.0);
                *mv = b1 * *mv + (1.0 - b1) * g;
                *vv = b2 * *vv + (1.0 - b2) * g * g;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
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
    use crate::Param;
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

    /// Adam's step as it was before it zeroed each gradient in its one
    /// pass: the update loop, then `zero_grad`. The reference the one-pass
    /// step is held to.
    struct TwoPassAdam {
        lr: f32,
        eps: f32,
        t: u64,
        m: Vec<Tensor>,
        v: Vec<Tensor>,
    }

    impl TwoPassAdam {
        fn step(&mut self, params: &mut [Param]) {
            self.t += 1;
            let bc1 = 1.0 - BETA1.powi(self.t as i32);
            let bc2 = 1.0 - BETA2.powi(self.t as i32);
            let (lr, b1, b2, eps) = (self.lr, BETA1, BETA2, self.eps);
            for (idx, p) in params.iter_mut().enumerate() {
                if self.m.len() <= idx {
                    self.m.push(Tensor::zeros(p.value.shape()));
                    self.v.push(Tensor::zeros(p.value.shape()));
                }
                let (m, v) = (&mut self.m[idx], &mut self.v[idx]);
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
            }
        }
    }

    /// Bare parameters as a module.
    struct Params(Vec<Param>);

    impl Module for Params {
        fn forward(&mut self, x: &Tensor, _ctx: &mut ForwardCtx) -> Tensor {
            x.clone()
        }

        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }

        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.iter_mut().for_each(f);
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The one-pass step leaves every value, gradient and moment bit where
    /// the two-pass step does, over 12 steps of gradients that hold `±0.0`,
    /// subnormals, `±∞` and NaN among Gaussian draws.
    #[test]
    fn one_pass_step_matches_the_two_pass_step_bit_for_bit() {
        let special = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
        ];
        let mut rng = Prng::seed_from_u64(12);
        let shapes: [&[usize]; 3] = [&[7, 5], &[16], &[3, 2, 3, 3]];
        let values: Vec<Tensor> = shapes
            .iter()
            .map(|s| adagp_tensor::init::gaussian(s, 0.0, 1.0, &mut rng))
            .collect();
        let mut model = Params(values.iter().cloned().map(Param::new).collect());
        let mut reference: Vec<Param> = values.into_iter().map(Param::new).collect();
        let mut adam = Adam::new(3e-2);
        let mut two_pass = TwoPassAdam {
            lr: 3e-2,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        };
        for step in 0..12 {
            for (i, (p, q)) in model.0.iter_mut().zip(&mut reference).enumerate() {
                let mut g = adagp_tensor::init::gaussian(p.value.shape(), 0.0, 0.1, &mut rng);
                // A different special value lands on a different element
                // each step; the rest of the tensor keeps finite draws.
                for (j, v) in g.data_mut().iter_mut().enumerate() {
                    if (j + i + step) % 3 == 0 {
                        *v = special[(j + step) % special.len()];
                    }
                }
                p.grad = g.clone();
                q.grad = g;
            }
            adam.step(&mut model);
            two_pass.step(&mut reference);
            for (i, (p, q)) in model.0.iter().zip(&reference).enumerate() {
                assert_eq!(bits(&p.value), bits(&q.value), "step {step}: value {i}");
                assert_eq!(bits(&p.grad), bits(&q.grad), "step {step}: grad {i}");
                assert!(p.grad.data().iter().all(|g| g.to_bits() == 0));
            }
            let (m, v) = adam.moments();
            for (i, (a, b)) in m.iter().zip(&two_pass.m).enumerate() {
                assert_eq!(bits(a), bits(b), "step {step}: first moment {i}");
            }
            for (i, (a, b)) in v.iter().zip(&two_pass.v).enumerate() {
                assert_eq!(bits(a), bits(b), "step {step}: second moment {i}");
            }
        }
        // The specials did reach the state: some values are non-finite.
        let non_finite = |p: &Param| p.value.data().iter().any(|v| !v.is_finite());
        assert!(model.0.iter().any(non_finite));
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut opt = Adam::new(0.001);
        assert_eq!(opt.lr(), 0.001);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }
}
