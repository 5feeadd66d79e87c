//! Fully connected layer — the second prediction-site kind for ADA-GP.

use crate::module::{ForwardCtx, Module, PredictionSite, SiteKind, SiteMeta};
use crate::param::Param;
use adagp_tensor::gemm::{gemm, Mat};
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

    /// The first `cols` output features only: `(batch, cols)`, bit for bit
    /// the first `cols` columns of [`Module::forward`] (`gemm` sums each
    /// output on its own, so a column does not depend on how many others
    /// are computed). [`Module::backward`] then takes `cols` from `dy` and
    /// leaves the gradient of the other outputs' weight rows and bias
    /// entries untouched — this is the ADA-GP predictor's "mask and skip"
    /// (§3.6).
    ///
    /// # Panics
    ///
    /// As [`Linear::infer_cols`].
    pub fn forward_cols(&mut self, x: &Tensor, ctx: &mut ForwardCtx, cols: usize) -> Tensor {
        let y = self.infer_cols(x, cols);
        if ctx.train {
            self.input_cache = Some(x.clone());
        }
        if ctx.record_activations {
            self.activation_cache = Some(y.clone());
        }
        y
    }

    /// [`Linear::forward_cols`]'s output from `&self`, without caching
    /// anything. Many threads can run it on one layer at once (ADA-GP's
    /// shared predictor in Phase GP).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `(batch, in_features)` or `cols` exceeds
    /// `out_features`.
    pub fn infer_cols(&self, x: &Tensor, cols: usize) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear expects (batch, features) input");
        let (n, feat) = (x.dim(0), self.in_features());
        assert_eq!(x.dim(1), feat, "Linear input has the wrong feature count");
        let (xv, w) = (Mat::rows(x.data(), feat), self.weight_rows(cols));
        let mut y = vec![0.0f32; n * cols];
        gemm(n, cols, feat, xv, w.t(), &mut y, false);
        if let Some(b) = &self.bias {
            for row in y.chunks_mut(cols.max(1)) {
                for (v, bj) in row.iter_mut().zip(b.value.data()) {
                    *v += bj;
                }
            }
        }
        Tensor::from_vec(y, &[n, cols])
    }

    /// The weight's first `cols` rows as a `(cols, in_features)` view.
    fn weight_rows(&self, cols: usize) -> Mat<'_> {
        assert!(
            cols <= self.out_features(),
            "{cols} outputs requested of a {}-output Linear",
            self.out_features()
        );
        let feat = self.in_features();
        Mat::rows(&self.weight.value.data()[..cols * feat], feat)
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let cols = self.out_features();
        self.forward_cols(x, ctx, cols)
    }

    /// `dy` is `(batch, cols)` for the `cols` of the forward pass.
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .input_cache
            .as_ref()
            .expect("Linear::backward called before forward");
        let (n, cols, feat) = (dy.dim(0), dy.dim(1), self.in_features());
        assert_eq!(x.dim(0), n, "Linear::backward batch disagrees with forward");
        let dyv = Mat::rows(dy.data(), cols);
        // y = x @ W^T  =>  dx = dy @ W, dW = dy^T @ x, over the first `cols` rows of W.
        let mut dx = vec![0.0f32; n * feat];
        gemm(n, feat, cols, dyv, self.weight_rows(cols), &mut dx, false);
        let dw = &mut self.weight.grad.data_mut()[..cols * feat];
        gemm(cols, feat, n, dyv.t(), Mat::rows(x.data(), feat), dw, true);
        if let Some(b) = &mut self.bias {
            let mut db = vec![0.0f32; cols];
            for row in dy.data().chunks(cols.max(1)) {
                for (s, v) in db.iter_mut().zip(row) {
                    *s += v;
                }
            }
            for (g, s) in b.grad.data_mut().iter_mut().zip(db) {
                *g += s;
            }
        }
        Tensor::from_vec(dx, &[n, feat])
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

    #[test]
    fn output_prefix_is_the_full_layer_bit_for_bit() {
        // Random weights, bias and an already accumulated gradient, so that
        // "untouched" and "+= 0" are told apart from "zeroed".
        let build = || {
            let mut rng = Prng::seed_from_u64(5);
            let mut lin = Linear::new(7, 13, true, &mut rng);
            lin.visit_params(&mut |p| {
                p.value = init::gaussian(p.value.shape(), 0.0, 1.0, &mut rng);
                p.grad = init::gaussian(p.value.shape(), 0.0, 1.0, &mut rng);
            });
            lin
        };
        let grads = |lin: &mut Linear| {
            let mut g = Vec::new();
            lin.visit_params(&mut |p| g.push(p.grad.data().to_vec()));
            g
        };
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (cols, mut full, mut prefix) = (5, build(), build());
        let mut rng = Prng::seed_from_u64(6);
        let x = init::gaussian(&[6, 7], 0.0, 1.0, &mut rng);
        let dy = init::gaussian(&[6, cols], 0.0, 1.0, &mut rng);
        // What the full layer was handed: `dy` padded with +0.0 columns.
        let padded = dy
            .data()
            .chunks(cols)
            .flat_map(|r| r.iter().copied().chain([0.0; 8]));
        let dy_full = Tensor::from_vec(padded.collect(), &[6, 13]);

        let y = full.forward(&x, &mut ForwardCtx::train());
        let y_cols = prefix.forward_cols(&x, &mut ForwardCtx::train(), cols);
        let y_first: Vec<u32> = y.data().chunks(13).flat_map(|r| bits(&r[..cols])).collect();
        assert_eq!(bits(y_cols.data()), y_first);

        let dx_full = full.backward(&dy_full);
        let dx = prefix.backward(&dy);
        assert_eq!(bits(dx.data()), bits(dx_full.data()));
        let (before, after) = (grads(&mut build()), grads(&mut prefix));
        for ((g, want), untouched) in after.iter().zip(grads(&mut full)).zip(before) {
            assert_eq!(bits(g), bits(&want), "dW / db rows");
            let live = cols * g.len() / 13;
            assert_eq!(bits(&g[live..]), bits(&untouched[live..]), "skipped rows");
        }
    }
}
