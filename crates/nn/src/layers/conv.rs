//! 2-D convolution layer — the primary prediction site for ADA-GP.

use crate::module::{ForwardCtx, Module, PredictionSite, SiteKind, SiteMeta};
use crate::param::Param;
use adagp_tensor::conv::{conv2d, conv2d_backward_data, conv2d_backward_weight, Conv2dParams};
use adagp_tensor::{init, Prng, Tensor};

/// A 2-D convolution with optional bias, dense or over channel groups.
///
/// Weight layout `(out_ch, in_ch / groups, kh, kw)`, Kaiming-normal
/// initialized. When the forward context requests activation recording, the
/// layer keeps its output tensor so ADA-GP's predictor can consume it
/// (Figure 1b). A depthwise layer ([`Conv2d::depthwise`]) is the same
/// prediction site with weight `(C, 1, k, k)`: one predictor row per output
/// channel (§3.6).
///
/// ```
/// use adagp_nn::{layers::Conv2d, module::{Module, ForwardCtx}};
/// use adagp_tensor::{Prng, Tensor};
/// let mut rng = Prng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng);
/// let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), &mut ForwardCtx::train());
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    params: Conv2dParams,
    kh: usize,
    kw: usize,
    label: String,
    input_cache: Option<Tensor>,
    activation_cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a dense convolution `in_ch -> out_ch` with square kernel `k`,
    /// given stride and padding.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut Prng,
    ) -> Self {
        let params = Conv2dParams::new(stride, padding);
        Self::with_params(in_ch, out_ch, k, params, bias, rng)
    }

    /// Creates a depthwise convolution — one `k×k` filter per channel, no
    /// bias — the workhorse of MobileNet-V2's inverted residual blocks.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `k` is zero.
    pub fn depthwise(
        channels: usize,
        k: usize,
        stride: usize,
        padding: usize,
        rng: &mut Prng,
    ) -> Self {
        let params = Conv2dParams::new(stride, padding).grouped(channels);
        Self::with_params(channels, channels, k, params, false, rng)
            .with_label(format!("dwconv{channels}k{k}"))
    }

    /// Creates a convolution `in_ch -> out_ch` with square kernel `k` over
    /// `params.groups` channel groups: each band of `out_ch / groups` filters
    /// reads its own band of `in_ch / groups` input channels.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `params.groups` does not divide
    /// both channel counts.
    pub fn with_params(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        params: Conv2dParams,
        bias: bool,
        rng: &mut Prng,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && k > 0,
            "conv dims must be positive"
        );
        let groups = params.groups;
        assert!(
            groups > 0 && in_ch.is_multiple_of(groups) && out_ch.is_multiple_of(groups),
            "conv groups must divide both channel counts"
        );
        let in_g = in_ch / groups;
        let fan_in = in_g * k * k;
        let weight = Param::new(init::kaiming_normal(&[out_ch, in_g, k, k], fan_in, rng));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_ch])));
        Conv2d {
            weight,
            bias,
            params,
            kh: k,
            kw: k,
            label: format!("conv{in_ch}x{out_ch}k{k}"),
            input_cache: None,
            activation_cache: None,
        }
    }

    /// Overrides the human-readable label used in site metadata.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Input channels each filter reads: the layer's input channel count
    /// divided by its groups (1 for a depthwise layer).
    pub fn in_channels(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The layer's output for `x`, from `&self`: what [`Module::forward`]
    /// returns, without caching anything. Many threads can run it on one
    /// layer at once (ADA-GP's shared predictor in Phase GP).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        conv2d(
            x,
            &self.weight.value,
            self.bias.as_ref().map(|b| &b.value),
            &self.params,
        )
    }

    /// The parameter half of [`Module::backward`]: accumulates the weight
    /// and bias gradients and computes no input gradient, for a layer whose
    /// input is data (ADA-GP's predictor reads pooled activations).
    ///
    /// # Panics
    ///
    /// Panics if no training forward pass preceded it.
    pub fn backward_params(&mut self, dy: &Tensor) {
        let x = self.cached_input();
        let (dw, db) = conv2d_backward_weight(x, dy, self.kh, self.kw, &self.params);
        self.weight.accumulate_grad(&dw);
        if let Some(b) = &mut self.bias {
            b.accumulate_grad(&db);
        }
    }

    fn cached_input(&self) -> &Tensor {
        self.input_cache
            .as_ref()
            .expect("Conv2d::backward called before forward")
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let y = self.infer(x);
        if ctx.train {
            self.input_cache = Some(x.clone());
        }
        if ctx.record_activations {
            self.activation_cache = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_params(dy);
        let x = self.cached_input();
        conv2d_backward_data(dy, &self.weight.value, x.dim(2), x.dim(3), &self.params)
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

impl PredictionSite for Conv2d {
    fn meta(&self) -> SiteMeta {
        SiteMeta {
            kind: SiteKind::Conv2d,
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
    use crate::module::{count_params, count_sites};

    #[test]
    fn forward_shape_and_cache() {
        let mut rng = Prng::seed_from_u64(1);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, true, &mut rng);
        let x = Tensor::ones(&[2, 3, 6, 6]);
        let y = conv.forward(&x, &mut ForwardCtx::train_recording());
        assert_eq!(y.shape(), &[2, 4, 6, 6]);
        assert!(conv.activation().is_some());
        let act = conv.take_activation().unwrap();
        assert_eq!(act.shape(), y.shape());
        assert!(conv.activation().is_none());
    }

    #[test]
    fn no_activation_cache_without_recording() {
        let mut rng = Prng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        conv.forward(&Tensor::ones(&[1, 1, 2, 2]), &mut ForwardCtx::train());
        assert!(conv.activation().is_none());
    }

    #[test]
    fn backward_accumulates_grads() {
        let mut rng = Prng::seed_from_u64(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = conv.forward(&x, &mut ForwardCtx::train());
        let dx = conv.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        assert!(conv.weight().grad.norm() > 0.0);
    }

    #[test]
    fn param_and_site_counts() {
        let mut rng = Prng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, true, &mut rng);
        assert_eq!(count_params(&mut conv), 4 * 2 * 9 + 4);
        assert_eq!(count_sites(&mut conv), 1);
    }

    #[test]
    fn meta_reports_weight_shape() {
        let mut rng = Prng::seed_from_u64(4);
        let conv = Conv2d::new(8, 16, 3, 1, 1, false, &mut rng).with_label("stage1");
        let m = conv.meta();
        assert_eq!(m.kind, SiteKind::Conv2d);
        assert_eq!(m.weight_shape, vec![16, 8, 3, 3]);
        assert_eq!(m.label, "stage1");
        assert_eq!(m.grads_per_out_channel(), 72);
    }

    #[test]
    fn depthwise_forward_preserves_channels() {
        let mut rng = Prng::seed_from_u64(0);
        let mut dw = Conv2d::depthwise(4, 3, 1, 1, &mut rng);
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let y = dw.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[2, 4, 6, 6]);
    }

    #[test]
    fn depthwise_channels_are_independent() {
        let mut rng = Prng::seed_from_u64(1);
        let mut dw = Conv2d::depthwise(2, 1, 1, 0, &mut rng);
        // 1x1 depthwise = per-channel scaling.
        dw.weight.value = Tensor::from_vec(vec![2.0, 3.0], &[2, 1, 1, 1]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 2, 1, 2]);
        let y = dw.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.data(), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn depthwise_stride_halves_spatial() {
        let mut rng = Prng::seed_from_u64(3);
        let mut dw = Conv2d::depthwise(3, 3, 2, 1, &mut rng);
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let y = dw.forward(&x, &mut ForwardCtx::train());
        assert_eq!(y.shape(), &[1, 3, 4, 4]);
    }

    /// A depthwise site: weight `(C, 1, k, k)`, no bias, `dwconv` label —
    /// what the predictor and MobileNet-V2's site table see.
    #[test]
    fn depthwise_site_shape_and_label() {
        let mut rng = Prng::seed_from_u64(4);
        let mut dw = Conv2d::depthwise(6, 3, 1, 1, &mut rng);
        assert_eq!((dw.in_channels(), dw.out_channels()), (1, 6));
        assert_eq!(count_params(&mut dw), 6 * 9);
        let m = dw.meta();
        assert_eq!(m.weight_shape, vec![6, 1, 3, 3]);
        assert_eq!(m.label, "dwconv6k3");
        assert_eq!(m.grads_per_out_channel(), 9);
    }

    #[test]
    #[should_panic(expected = "groups must divide both channel counts")]
    fn groups_must_divide_channels() {
        let mut rng = Prng::seed_from_u64(5);
        let params = Conv2dParams::new(1, 1).grouped(2);
        Conv2d::with_params(4, 3, 3, params, false, &mut rng);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut rng = Prng::seed_from_u64(5);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        conv.backward(&Tensor::ones(&[1, 1, 1, 1]));
    }
}
