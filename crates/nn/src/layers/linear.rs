//! Fully connected layer — the second prediction-site kind for ADA-GP.

use crate::module::{ForwardCtx, Module, PredictionSite, SiteKind, SiteMeta};
use crate::param::Param;
use adagp_tensor::{init, Prng, Tensor};

/// A fully connected layer `y = x W^T + b`.
///
/// Weight layout `(out_features, in_features)` so that the weight rows map
/// one-to-one onto output features — the same "output channel" structure
/// ADA-GP's tensor reorganization exploits for conv layers (§3.6).
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    label: String,
    input_cache: Option<Tensor>,
    activation_cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer `in_features -> out_features`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Prng) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "linear dims must be positive"
        );
        let weight = Param::new(init::kaiming_uniform(
            &[out_features, in_features],
            in_features,
            rng,
        ));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_features])));
        Linear {
            weight,
            bias,
            label: format!("fc{in_features}x{out_features}"),
            input_cache: None,
            activation_cache: None,
        }
    }

    /// Overrides the human-readable label used in site metadata.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects (batch, features) input");
        let mut y = x.matmul_nt(&self.weight.value);
        if let Some(b) = &self.bias {
            let (n, f) = (y.dim(0), y.dim(1));
            for i in 0..n {
                for j in 0..f {
                    y.data_mut()[i * f + j] += b.value.data()[j];
                }
            }
        }
        if ctx.train {
            self.input_cache = Some(x.clone());
        }
        if ctx.record_activations {
            self.activation_cache = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .input_cache
            .as_ref()
            .expect("Linear::backward called before forward");
        // y = x @ W^T  =>  dx = dy @ W, dW = dy^T @ x.
        let dx = dy.matmul(&self.weight.value);
        self.weight.accumulate_grad(&dy.matmul_tn(x));
        if let Some(b) = &mut self.bias {
            let (n, f) = (dy.dim(0), dy.dim(1));
            let mut db = vec![0.0f32; f];
            for i in 0..n {
                for j in 0..f {
                    db[j] += dy.data()[i * f + j];
                }
            }
            b.accumulate_grad(&Tensor::from_vec(db, &[f]));
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        f(self);
    }
}

impl PredictionSite for Linear {
    fn meta(&self) -> SiteMeta {
        SiteMeta {
            kind: SiteKind::Linear,
            weight_shape: self.weight.value.shape().to_vec(),
            label: self.label.clone(),
        }
    }

    fn weight_param(&mut self) -> &mut Param {
        &mut self.weight
    }

    fn activation(&self) -> Option<&Tensor> {
        self.activation_cache.as_ref()
    }

    fn take_activation(&mut self) -> Option<Tensor> {
        self.activation_cache.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_is_affine() {
        let mut rng = Prng::seed_from_u64(1);
        let mut lin = Linear::new(3, 2, true, &mut rng);
        // Set known weights: W = [[1,0,0],[0,1,0]], b = [10, 20].
        lin.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);
        if let Some(b) = &mut lin.bias {
            b.value = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        }
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = lin.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.data(), &[11.0, 22.0]);
    }

    #[test]
    fn backward_gradcheck() {
        let mut rng = Prng::seed_from_u64(2);
        let mut lin = Linear::new(4, 3, true, &mut rng);
        let x = adagp_tensor::init::gaussian(&[2, 4], 0.0, 1.0, &mut rng);
        let y = lin.forward(&x, &mut ForwardCtx::train());
        let dx = lin.backward(&Tensor::ones(y.shape()));

        let eps = 1e-2;
        let w0 = lin.weight.value.clone();
        let f = |lin: &mut Linear, x: &Tensor| lin.forward(x, &mut ForwardCtx::eval()).sum();
        // Check weight gradient.
        for i in (0..w0.len()).step_by(3) {
            lin.weight.value = w0.clone();
            lin.weight.value.data_mut()[i] += eps;
            let up = f(&mut lin, &x);
            lin.weight.value = w0.clone();
            lin.weight.value.data_mut()[i] -= eps;
            let dn = f(&mut lin, &x);
            let num = (up - dn) / (2.0 * eps);
            assert!(
                (num - lin.weight.grad.data()[i]).abs() < 1e-2,
                "dW[{i}]: numeric {num} vs {}",
                lin.weight.grad.data()[i]
            );
        }
        lin.weight.value = w0;
        // Check input gradient.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&mut lin, &xp) - f(&mut lin, &xm)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn site_meta() {
        let mut rng = Prng::seed_from_u64(3);
        let lin = Linear::new(512, 10, true, &mut rng);
        let m = lin.meta();
        assert_eq!(m.kind, SiteKind::Linear);
        assert_eq!(m.weight_shape, vec![10, 512]);
        assert_eq!(m.out_channels(), 10);
    }

    #[test]
    fn activation_recorded_only_when_requested() {
        let mut rng = Prng::seed_from_u64(4);
        let mut lin = Linear::new(2, 2, false, &mut rng);
        lin.forward(&Tensor::ones(&[1, 2]), &mut ForwardCtx::train());
        assert!(lin.activation().is_none());
        lin.forward(&Tensor::ones(&[1, 2]), &mut ForwardCtx::train_recording());
        assert!(lin.activation().is_some());
    }
}
