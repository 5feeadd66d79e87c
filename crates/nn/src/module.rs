//! The [`Module`] trait: explicit forward/backward layers with parameter and
//! prediction-site visitors.
//!
//! ADA-GP needs two non-standard hooks from its training substrate:
//!
//! 1. Access to the **output activations** of every parameterized layer
//!    during the forward pass (the predictor's input, Figure 1b of the
//!    paper), and
//! 2. The ability to read/write each layer's **weight gradient** directly
//!    (true gradients train the predictor in Phase BP; predicted gradients
//!    replace backprop in Phase GP).
//!
//! Both are provided by [`PredictionSite`], which parameterized layers
//! implement and containers expose via [`Module::visit_sites`].

use crate::param::Param;
use adagp_tensor::Tensor;

/// Context threaded through a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardCtx {
    /// `true` during training (batch-norm batch statistics, dropout active).
    pub train: bool,
    /// When `true`, parameterized layers cache their output activation so
    /// that [`PredictionSite::take_activation`] can hand it to the ADA-GP
    /// predictor after the pass.
    pub record_activations: bool,
}

impl ForwardCtx {
    /// Training-mode context without activation recording.
    pub fn train() -> Self {
        ForwardCtx {
            train: true,
            record_activations: false,
        }
    }

    /// Training-mode context that records activations at prediction sites.
    pub fn train_recording() -> Self {
        ForwardCtx {
            train: true,
            record_activations: true,
        }
    }

    /// Inference-mode context.
    pub fn eval() -> Self {
        ForwardCtx {
            train: false,
            record_activations: false,
        }
    }
}

/// What kind of parameterized layer a prediction site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A 2-D convolution; weight shape `(out_ch, in_ch, kh, kw)`.
    Conv2d,
    /// A fully connected layer; weight shape `(out_features, in_features)`.
    Linear,
}

/// Static metadata describing a prediction site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteMeta {
    /// Layer kind.
    pub kind: SiteKind,
    /// Weight tensor shape.
    pub weight_shape: Vec<usize>,
    /// Human-readable layer label (e.g. `"conv3_1"`).
    pub label: String,
}

impl SiteMeta {
    /// For conv sites: `in_ch * kh * kw`, the per-output-channel gradient
    /// row predicted after tensor reorganization (§3.6). For linear sites:
    /// `in_features`.
    pub fn grads_per_out_channel(&self) -> usize {
        match self.kind {
            SiteKind::Conv2d => self.weight_shape[1] * self.weight_shape[2] * self.weight_shape[3],
            SiteKind::Linear => self.weight_shape[1],
        }
    }

    /// Output channels (conv) or output features (linear).
    pub fn out_channels(&self) -> usize {
        self.weight_shape[0]
    }
}

/// A parameterized layer that ADA-GP can predict gradients for.
///
/// Implemented by [`crate::layers::Conv2d`] and [`crate::layers::Linear`].
pub trait PredictionSite {
    /// Site metadata (kind, weight shape, label).
    fn meta(&self) -> SiteMeta;
    /// The weight parameter (gradient holds the true gradient after a
    /// backward pass; ADA-GP writes predicted gradients here in Phase GP).
    fn weight_param(&mut self) -> &mut Param;
    /// The output activation cached by the last recording forward pass, if
    /// any. Does not consume the cache.
    fn activation(&self) -> Option<&Tensor>;
    /// Removes and returns the cached activation.
    fn take_activation(&mut self) -> Option<Tensor>;
}

/// A neural-network layer (or container of layers) with explicit
/// backpropagation.
///
/// `forward` must be called before `backward`; layers cache whatever they
/// need in between. Gradients accumulate into [`Param::grad`] — callers
/// zero them via an optimizer or [`zero_grads`].
pub trait Module {
    /// Forward pass. May cache inputs/activations for the backward pass.
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor;

    /// Backward pass: consumes the upstream gradient, accumulates parameter
    /// gradients, and returns the gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Visits every trainable parameter in a deterministic order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every prediction site in forward order. Default: none.
    fn visit_sites(&mut self, _f: &mut dyn FnMut(&mut dyn PredictionSite)) {}
}

/// A mutable reference to a module is a module, so code generic over
/// `M: Module + ?Sized` can still hand `&mut dyn Module` to an optimizer.
impl<M: Module + ?Sized> Module for &mut M {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        (**self).forward(x, ctx)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        (**self).backward(dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        (**self).visit_params(f)
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        (**self).visit_sites(f)
    }
}

/// Total scalar parameter count of a module.
pub fn count_params(m: &mut dyn Module) -> usize {
    let mut n = 0;
    m.visit_params(&mut |p| n += p.len());
    n
}

/// Zeroes every parameter gradient in the module.
pub fn zero_grads(m: &mut dyn Module) {
    m.visit_params(&mut |p| p.zero_grad());
}

/// Number of prediction sites in the module.
pub fn count_sites(m: &mut dyn Module) -> usize {
    let mut n = 0;
    m.visit_sites(&mut |_| n += 1);
    n
}

/// Collects the site metadata of a module in forward order.
pub fn site_metas(m: &mut dyn Module) -> Vec<SiteMeta> {
    let mut v = Vec::new();
    m.visit_sites(&mut |s| v.push(s.meta()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_constructors() {
        assert!(ForwardCtx::train().train);
        assert!(!ForwardCtx::train().record_activations);
        assert!(ForwardCtx::train_recording().record_activations);
        assert!(!ForwardCtx::eval().train);
    }

    #[test]
    fn site_meta_grad_counts() {
        let conv = SiteMeta {
            kind: SiteKind::Conv2d,
            weight_shape: vec![256, 128, 3, 3],
            label: "conv4".into(),
        };
        assert_eq!(conv.grads_per_out_channel(), 128 * 9);
        assert_eq!(conv.out_channels(), 256);

        let lin = SiteMeta {
            kind: SiteKind::Linear,
            weight_shape: vec![10, 512],
            label: "fc".into(),
        };
        assert_eq!(lin.grads_per_out_channel(), 512);
        assert_eq!(lin.out_channels(), 10);
    }
}
