//! The shared predictor model (§3.6 of the paper).
//!
//! One predictor serves **all** layers of the DNN ("ADA-GP uses a single
//! predictor model for all layers" — contribution 2). Its structure
//! follows the paper: pooling layers normalize any activation map to a
//! fixed spatial size, a small `Conv2d` extracts features, and a single
//! fully connected layer emits gradient rows. The FC output is sized for
//! the *largest* layer; smaller layers mask and skip the surplus outputs:
//! for a site with gradient rows of `row_len`, the FC computes only its
//! first `row_len` output columns ([`Linear::forward_cols`]), forward and
//! backward, in Phase GP and Phase BP alike. The skipped weight rows and
//! bias entries are neither read nor given a gradient.
//!
//! Adam still steps the *whole* head after every site: the skipped rows
//! carry a `+0.0` gradient, so they move only by the moments left from
//! sites that did use them. That is exactly what the earlier full-width
//! head did (it computed every column and zeroed the surplus gradient),
//! so skipping changes the arithmetic, not one float of training.
//!
//! Prediction has one path, and it takes `&self`: conv
//! ([`Conv2d::infer`]), ReLU, a flatten that keeps the buffer, then the
//! FC's first `row_len` columns ([`Linear::infer_cols`]). Training's
//! forward runs the same kernels through the layers' `forward`s, which
//! call those inference methods and then cache what backward reads. So
//! Phase GP can predict every site at once from one predictor
//! ([`Predictor::predict_gradient`] from many threads), bit for bit what
//! one site after another gives.

use crate::reorg::{self, ReorganizedActivation};
use adagp_nn::layers::{Conv2d, Linear, Relu};
use adagp_nn::module::{count_params, ForwardCtx, Module};
use adagp_nn::optim::{Adam, Optimizer};
use adagp_nn::{Param, PredictionSite, SiteMeta};
use adagp_tensor::pool::adaptive_avgpool;
use adagp_tensor::{Prng, Tensor};

/// Predictor hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Spatial size every activation map is pooled to.
    pub pooled_size: usize,
    /// Channels of the feature conv.
    pub conv_channels: usize,
    /// Adam learning rate for predictor training (paper: 1e-4).
    pub lr: f32,
    /// Cap on the number of output-channel rows processed per batch (keeps
    /// predictor training cost bounded for very wide layers; rows beyond
    /// the cap are sub-sampled deterministically).
    pub max_rows_per_batch: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            pooled_size: 4,
            conv_channels: 8,
            lr: 1e-4,
            max_rows_per_batch: 256,
        }
    }
}

/// The shared gradient predictor.
///
/// Input (per site, after [`reorg::reorganize`]): `(out_ch, 1, W, H)`.
/// Output: `(out_ch, row_len)`, the first `row_len` of the FC's
/// `max_row_len` outputs.
#[derive(Debug)]
pub struct Predictor {
    cfg: PredictorConfig,
    net: PredictorNet,
    opt: Adam,
    max_row_len: usize,
}

/// The predictor's network: conv feature extractor + shared FC head.
#[derive(Debug)]
struct PredictorNet {
    conv: Conv2d,
    relu: Relu,
    fc: Linear,
    /// The conv stage's output shape per sample, `(channels, p, p)`.
    features: [usize; 3],
}

impl PredictorNet {
    /// The one inference path, from `&self`: conv, ReLU, flatten, then the
    /// FC's first `cols` outputs: `(n, cols)`. Training's forward runs the
    /// same kernels through the layers' caching `forward`s.
    fn infer(&self, x: &Tensor, cols: usize) -> Tensor {
        let mut h = self.conv.infer(x);
        // `softmax::relu`'s `max(0.0)`, in place.
        h.data_mut().iter_mut().for_each(|v| *v = v.max(0.0));
        self.fc.infer_cols(&self.flatten(h), cols)
    }

    /// [`PredictorNet::infer`] with every layer caching what
    /// [`PredictorNet::backward_params`] reads.
    fn forward_cols(&mut self, x: &Tensor, ctx: &mut ForwardCtx, cols: usize) -> Tensor {
        let h = self.conv.forward(x, ctx);
        let h = self.relu.forward(&h, ctx);
        let h = self.flatten(h);
        self.fc.forward_cols(&h, ctx, cols)
    }

    /// `(n, c, p, p)` features as the FC's `(n, c·p·p)` input, in place.
    fn flatten(&self, h: Tensor) -> Tensor {
        let n = h.dim(0);
        h.into_shape(&[n, self.features.iter().product()])
    }

    /// Every parameter's gradient for `dy (n, cols)`, the `cols` of the
    /// forward pass; no gradient for the input.
    fn backward_params(&mut self, dy: &Tensor) {
        let g = self.fc.backward(dy);
        let [c, h, w] = self.features;
        let g = g.into_shape(&[dy.dim(0), c, h, w]);
        let g = self.relu.backward(&g);
        self.conv.backward_params(&g);
    }
}

impl Module for PredictorNet {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let cols = self.fc.out_features();
        self.forward_cols(x, ctx, cols)
    }

    /// The predictor's input is pooled activations, which take no gradient:
    /// training calls [`PredictorNet::backward_params`].
    fn backward(&mut self, _dy: &Tensor) -> Tensor {
        unreachable!("the predictor's input takes no gradient: use backward_params")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(f);
        self.fc.visit_params(f);
    }
}

impl Predictor {
    /// Builds a predictor for a model whose largest gradient row is
    /// `max_row_len` (use [`Predictor::for_sites`] to derive it).
    ///
    /// # Panics
    ///
    /// Panics if `max_row_len == 0`.
    pub fn new(cfg: PredictorConfig, max_row_len: usize, rng: &mut Prng) -> Self {
        assert!(max_row_len > 0, "max_row_len must be positive");
        let feat = cfg.conv_channels * cfg.pooled_size * cfg.pooled_size;
        let mut fc = Linear::new(feat, max_row_len, true, rng).with_label("pred_fc");
        // Near-zero head: the gradients being predicted are tiny (1e-2 to
        // 1e-4), and an untrained predictor must not inject large random
        // updates if Phase GP starts before it has converged.
        fc.weight_param().value.scale_in_place(0.01);
        let net = PredictorNet {
            conv: Conv2d::new(1, cfg.conv_channels, 3, 1, 1, true, rng).with_label("pred_conv"),
            relu: Relu::new(),
            fc,
            features: [cfg.conv_channels, cfg.pooled_size, cfg.pooled_size],
        };
        let opt = Adam::new(cfg.lr);
        Predictor {
            cfg,
            net,
            opt,
            max_row_len,
        }
    }

    /// Builds a predictor sized for the given site metadata (FC output =
    /// the largest `grads_per_out_channel` across sites, per §3.6: "the
    /// fully connected layer size depends on the largest layer").
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    pub fn for_sites(cfg: PredictorConfig, sites: &[SiteMeta], rng: &mut Prng) -> Self {
        assert!(!sites.is_empty(), "predictor needs at least one site");
        let max_row = sites
            .iter()
            .map(|m| m.grads_per_out_channel())
            .max()
            .expect("nonempty");
        Self::new(cfg, max_row, rng)
    }

    /// The FC output width (largest gradient row the predictor can emit).
    pub fn max_row_len(&self) -> usize {
        self.max_row_len
    }

    /// Total trainable parameters of the predictor.
    pub fn param_count(&mut self) -> usize {
        count_params(&mut self.net)
    }

    /// Normalizes a reorganized activation to the predictor's fixed input
    /// spatial size.
    fn pool_input(&self, r: &ReorganizedActivation) -> Tensor {
        adaptive_avgpool(&r.input, self.cfg.pooled_size, self.cfg.pooled_size)
    }

    /// The site's `row_len`, checked against the FC's width before any work.
    fn checked_row_len(&self, meta: &SiteMeta) -> usize {
        let row_len = meta.grads_per_out_channel();
        assert!(
            row_len <= self.max_row_len,
            "row_len {row_len} exceeds predictor capacity {}",
            self.max_row_len
        );
        row_len
    }

    /// Predicts gradient rows for one site: returns `(out_ch, row_len)`.
    ///
    /// The FC computes only the site's `row_len` outputs ("for smaller
    /// layers, we simply mask and skip output operations"). Takes `&self`:
    /// Phase GP predicts every site at once from one predictor.
    ///
    /// # Panics
    ///
    /// Panics if the site's `row_len` exceeds [`Predictor::max_row_len`] or
    /// the activation disagrees with the site metadata.
    pub fn predict_rows(&self, meta: &SiteMeta, activation: &Tensor) -> Tensor {
        let row_len = self.checked_row_len(meta);
        let r = reorg::reorganize(meta, activation);
        self.net.infer(&self.pool_input(&r), row_len)
    }

    /// Predicts the full weight-gradient tensor for a site.
    ///
    /// # Panics
    ///
    /// As [`Predictor::predict_rows`].
    pub fn predict_gradient(&self, meta: &SiteMeta, activation: &Tensor) -> Tensor {
        reorg::rows_to_gradient(meta, self.predict_rows(meta, activation))
    }

    /// One predictor training step against a true gradient (Phase BP /
    /// warm-up): the MSE over the site's `row_len` columns, backpropagated
    /// through those columns only, then an Adam step. Returns the loss.
    ///
    /// # Panics
    ///
    /// Panics if the site's `row_len` exceeds [`Predictor::max_row_len`] or
    /// shapes disagree with the site metadata.
    pub fn train_step(&mut self, meta: &SiteMeta, activation: &Tensor, true_grad: &Tensor) -> f32 {
        self.train_step_owned(meta, activation, true_grad.clone())
    }

    /// [`Predictor::train_step`] on a gradient the caller no longer needs:
    /// its buffer becomes the target rows, uncopied.
    pub(crate) fn train_step_owned(
        &mut self,
        meta: &SiteMeta,
        activation: &Tensor,
        true_grad: Tensor,
    ) -> f32 {
        let rows = self.training_rows(meta, activation, true_grad);
        self.train_on_rows(rows)
    }

    /// A training step's head-independent half: the pooled inputs and
    /// `(rows, row_len)` targets, every `stride`-th row of a site wider
    /// than `max_rows_per_batch` (bounds the cost of very wide layers).
    /// Reads no parameter, so a BP batch computes every site's rows at
    /// once before [`Predictor::train_on_rows`] steps the head site by
    /// site.
    pub(crate) fn training_rows(
        &self,
        meta: &SiteMeta,
        activation: &Tensor,
        true_grad: Tensor,
    ) -> (Tensor, Tensor) {
        self.checked_row_len(meta);
        let r = reorg::reorganize(meta, activation);
        let target_rows = reorg::gradient_rows(meta, true_grad);
        let pooled = self.pool_input(&r);
        if self.subsamples(meta) {
            let stride = pooled.dim(0).div_ceil(self.cfg.max_rows_per_batch);
            (
                subsample_rows(&pooled, stride),
                subsample_rows(&target_rows, stride),
            )
        } else {
            (pooled, target_rows)
        }
    }

    /// Whether [`Predictor::training_rows`] keeps a subsample of the site's
    /// `out_ch` rows rather than its whole gradient.
    pub(crate) fn subsamples(&self, meta: &SiteMeta) -> bool {
        meta.out_channels() > self.cfg.max_rows_per_batch
    }

    /// A training step on [`Predictor::training_rows`]' output: the MSE
    /// over the site's `row_len` columns, backpropagated through those
    /// columns only, then an Adam step. Returns the loss.
    pub(crate) fn train_on_rows(&mut self, (pooled, target_rows): (Tensor, Tensor)) -> f32 {
        let pred = self
            .net
            .forward_cols(&pooled, &mut ForwardCtx::train(), target_rows.dim(1));
        let (loss, dpred) = mse(pred, &target_rows);
        self.net.backward_params(&dpred);
        self.opt.step(&mut self.net);
        loss
    }
}

/// Every `stride`-th row of a rank-2/4 tensor along axis 0.
fn subsample_rows(t: &Tensor, stride: usize) -> Tensor {
    let n = t.dim(0);
    let rest: usize = t.shape()[1..].iter().product();
    let picked: Vec<usize> = (0..n).step_by(stride).collect();
    let mut out = Vec::with_capacity(picked.len() * rest);
    for &i in &picked {
        out.extend_from_slice(&t.data()[i * rest..(i + 1) * rest]);
    }
    let mut shape = vec![picked.len()];
    shape.extend_from_slice(&t.shape()[1..]);
    Tensor::from_vec(out, &shape)
}

/// Mean squared error and its gradient `2 (pred - target) / len`, rounded
/// as `(2 d) / len` (`softmax::mse_loss` scales by a rounded `2 / len`,
/// which moves the predictor's training floats). The gradient is written
/// into `pred`'s buffer.
fn mse(mut pred: Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse: shape mismatch");
    let count = pred.len().max(1) as f32;
    let mut loss = 0.0f32;
    for (d, &t) in pred.data_mut().iter_mut().zip(target.data()) {
        *d -= t;
        loss += *d * *d;
        *d = 2.0 * *d / count;
    }
    (loss / count, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_nn::SiteKind;
    use adagp_tensor::init;

    fn conv_meta(out_ch: usize, in_ch: usize, k: usize) -> SiteMeta {
        SiteMeta {
            kind: SiteKind::Conv2d,
            weight_shape: vec![out_ch, in_ch, k, k],
            label: "c".into(),
        }
    }

    #[test]
    fn predict_shapes_match_weights() {
        let mut rng = Prng::seed_from_u64(0);
        let meta = conv_meta(8, 4, 3);
        let p = Predictor::for_sites(
            PredictorConfig::default(),
            std::slice::from_ref(&meta),
            &mut rng,
        );
        let act = init::gaussian(&[2, 8, 6, 6], 0.0, 1.0, &mut rng);
        let g = p.predict_gradient(&meta, &act);
        assert_eq!(g.shape(), &[8, 4, 3, 3]);
    }

    #[test]
    fn masking_handles_smaller_layers() {
        let mut rng = Prng::seed_from_u64(1);
        let big = conv_meta(8, 16, 3); // row 144
        let small = conv_meta(4, 2, 3); // row 18
        let p = Predictor::for_sites(PredictorConfig::default(), &[big, small.clone()], &mut rng);
        assert_eq!(p.max_row_len(), 144);
        let act = init::gaussian(&[2, 4, 5, 5], 0.0, 1.0, &mut rng);
        let g = p.predict_gradient(&small, &act);
        assert_eq!(g.shape(), &[4, 2, 3, 3]);
    }

    #[test]
    fn training_reduces_prediction_error() {
        // The predictor should learn a fixed activation->gradient mapping.
        let mut rng = Prng::seed_from_u64(2);
        let meta = conv_meta(4, 2, 3);
        let cfg = PredictorConfig {
            lr: 3e-3,
            ..Default::default()
        };
        let mut p = Predictor::for_sites(cfg, std::slice::from_ref(&meta), &mut rng);
        let act = init::gaussian(&[2, 4, 5, 5], 0.0, 1.0, &mut rng);
        let grad = init::gaussian(&[4, 2, 3, 3], 0.0, 0.05, &mut rng);
        let first = p.train_step(&meta, &act, &grad);
        let mut last = first;
        for _ in 0..200 {
            last = p.train_step(&meta, &act, &grad);
        }
        assert!(
            last < first * 0.2,
            "predictor did not learn: first {first}, last {last}"
        );
    }

    #[test]
    fn single_predictor_serves_multiple_sites() {
        let mut rng = Prng::seed_from_u64(3);
        let m1 = conv_meta(4, 2, 3);
        let m2 = SiteMeta {
            kind: SiteKind::Linear,
            weight_shape: vec![6, 12],
            label: "l".into(),
        };
        let p = Predictor::for_sites(
            PredictorConfig::default(),
            &[m1.clone(), m2.clone()],
            &mut rng,
        );
        let act1 = init::gaussian(&[2, 4, 5, 5], 0.0, 1.0, &mut rng);
        let act2 = init::gaussian(&[2, 6], 0.0, 1.0, &mut rng);
        assert_eq!(p.predict_gradient(&m1, &act1).shape(), &[4, 2, 3, 3]);
        assert_eq!(p.predict_gradient(&m2, &act2).shape(), &[6, 12]);
    }

    #[test]
    fn param_count_is_compact() {
        // The predictor must stay small relative to the host model — the
        // whole point of the single-predictor design.
        let mut rng = Prng::seed_from_u64(4);
        let meta = conv_meta(64, 64, 3); // row 576
        let mut p = Predictor::for_sites(PredictorConfig::default(), &[meta], &mut rng);
        let host_params = 64 * 64 * 9; // one conv layer alone
        assert!(p.param_count() < host_params * 3);
    }

    #[test]
    fn subsample_caps_wide_layers() {
        let mut rng = Prng::seed_from_u64(5);
        let meta = conv_meta(512, 2, 1); // 512 rows
        let cfg = PredictorConfig {
            max_rows_per_batch: 64,
            ..Default::default()
        };
        let mut p = Predictor::for_sites(cfg, std::slice::from_ref(&meta), &mut rng);
        let act = init::gaussian(&[1, 512, 2, 2], 0.0, 1.0, &mut rng);
        let grad = init::gaussian(&[512, 2, 1, 1], 0.0, 0.05, &mut rng);
        // Must not panic and must return a finite loss.
        let loss = p.train_step(&meta, &act, &grad);
        assert!(loss.is_finite());
    }

    #[test]
    fn masked_mse_ignores_surplus_columns() {
        let pred = Tensor::from_vec(vec![1.0, 99.0, 2.0, -99.0], &[2, 2]);
        let target = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let (loss, grad) = masked_mse(&pred, &target, 1);
        assert_eq!(loss, 0.0);
        // Surplus columns (99, -99) contribute nothing.
        assert_eq!(grad.data(), &[0.0, 0.0, 0.0, 0.0]);
    }

    // The full-width head the predictor ran before it skipped: the FC at
    // `max_row_len`, then the live columns copied out (prediction) or a
    // zero gradient on the surplus ones (training). The reference the
    // `row_len` head is held to, bit for bit.

    /// The first `row_len` columns of `(n, max_row)`.
    fn live_columns(full: &Tensor, row_len: usize) -> Tensor {
        let n = full.dim(0);
        let rows = full.data().chunks(full.dim(1));
        let out = rows.flat_map(|row| &row[..row_len]).copied().collect();
        Tensor::from_vec(out, &[n, row_len])
    }

    /// MSE over the first `row_len` columns; gradient is zero elsewhere.
    fn masked_mse(pred: &Tensor, target: &Tensor, row_len: usize) -> (f32, Tensor) {
        let (n, max_row) = (pred.dim(0), pred.dim(1));
        assert_eq!(target.shape(), &[n, row_len], "target shape mismatch");
        let count = (n * row_len).max(1) as f32;
        let mut grad = Tensor::zeros(pred.shape());
        let mut loss = 0.0f32;
        for i in 0..n {
            for j in 0..row_len {
                let d = pred.data()[i * max_row + j] - target.data()[i * row_len + j];
                loss += d * d;
                grad.data_mut()[i * max_row + j] = 2.0 * d / count;
            }
        }
        (loss / count, grad)
    }

    fn full_width_predict_rows(p: &mut Predictor, meta: &SiteMeta, act: &Tensor) -> Tensor {
        let r = reorg::reorganize(meta, act);
        let pooled = p.pool_input(&r);
        let full = p.net.forward(&pooled, &mut ForwardCtx::eval());
        live_columns(&full, r.row_len)
    }

    fn full_width_train_step(p: &mut Predictor, meta: &SiteMeta, act: &Tensor, g: &Tensor) -> f32 {
        let (pooled, target_rows) = p.training_rows(meta, act, g.clone());
        let pred = p.net.forward(&pooled, &mut ForwardCtx::train());
        let (loss, dpred) = masked_mse(&pred, &target_rows, target_rows.dim(1));
        p.net.backward_params(&dpred);
        p.opt.step(&mut p.net);
        loss
    }

    /// Every parameter's value and gradient and every Adam moment, as bits
    /// (any NaN as one pattern).
    fn state_bits(p: &mut Predictor) -> Vec<u32> {
        let bits = |t: &Tensor| -> Vec<u32> {
            let canonical = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
            t.data().iter().map(canonical).collect()
        };
        let mut out = Vec::new();
        p.net.visit_params(&mut |q| {
            out.extend(bits(&q.value));
            out.extend(bits(&q.grad));
        });
        let (m, v) = p.opt.moments();
        out.extend(m.iter().chain(v).flat_map(bits));
        out
    }

    fn tensor_bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Overwrites the FC's weight rows and bias entries past `row_len`.
    fn fill_surplus(p: &mut Predictor, row_len: usize, value: f32) {
        let max_row = p.max_row_len;
        p.net.fc.visit_params(&mut |q| {
            let per_row = q.len() / max_row;
            q.value.data_mut()[row_len * per_row..].fill(value);
        });
    }

    /// Three sites for one predictor: the widest (`row_len == max_row_len`),
    /// a `Linear` site, and 40 rows against `max_rows_per_batch` 16.
    fn mixed_sites(rng: &mut Prng) -> (PredictorConfig, Vec<(SiteMeta, Tensor, Tensor)>) {
        let cfg = PredictorConfig {
            lr: 3e-3,
            max_rows_per_batch: 16,
            ..Default::default()
        };
        let linear = SiteMeta {
            kind: SiteKind::Linear,
            weight_shape: vec![6, 12],
            label: "l".into(),
        };
        let sites = [
            (conv_meta(8, 16, 3), vec![2, 8, 6, 6]),
            (linear, vec![2, 6]),
            (conv_meta(40, 3, 1), vec![2, 40, 5, 5]),
        ];
        let sites = sites
            .into_iter()
            .map(|(meta, act_shape)| {
                let act = init::gaussian(&act_shape, 0.0, 1.0, rng);
                let grad = init::gaussian(&meta.weight_shape, 0.0, 0.05, rng);
                (meta, act, grad)
            })
            .collect();
        (cfg, sites)
    }

    #[test]
    fn row_len_head_matches_the_full_width_reference_bit_for_bit() {
        let mut rng = Prng::seed_from_u64(6);
        let (cfg, sites) = mixed_sites(&mut rng);
        let metas: Vec<SiteMeta> = sites.iter().map(|s| s.0.clone()).collect();
        let mut fast = Predictor::for_sites(cfg, &metas, &mut Prng::seed_from_u64(7));
        let mut reference = Predictor::for_sites(cfg, &metas, &mut Prng::seed_from_u64(7));
        assert_eq!(fast.max_row_len(), 144);
        for round in 0..3 {
            for (meta, act, grad) in &sites {
                let rows = fast.predict_rows(meta, act);
                let want = full_width_predict_rows(&mut reference, meta, act);
                assert_eq!(tensor_bits(&rows), tensor_bits(&want), "{round}: rows");
                let loss = fast.train_step(meta, act, grad);
                let want = full_width_train_step(&mut reference, meta, act, grad);
                assert_eq!(loss.to_bits(), want.to_bits(), "{round}: loss");
            }
        }
        // Including the rows only the widest site uses, and their moments.
        assert_eq!(state_bits(&mut fast), state_bits(&mut reference));
    }

    #[test]
    fn skipped_head_rows_are_never_read() {
        let mut rng = Prng::seed_from_u64(8);
        let (cfg, sites) = mixed_sites(&mut rng);
        let metas: Vec<SiteMeta> = sites.iter().map(|s| s.0.clone()).collect();
        let (meta, act, grad) = &sites[2];
        let row_len = meta.grads_per_out_channel();
        let run = |poison: bool| {
            let mut p = Predictor::for_sites(cfg, &metas, &mut Prng::seed_from_u64(9));
            if poison {
                fill_surplus(&mut p, row_len, f32::NAN);
            }
            let mut out = tensor_bits(&p.predict_rows(meta, act));
            for _ in 0..3 {
                out.push(p.train_step(meta, act, grad).to_bits());
            }
            out.extend(tensor_bits(&p.predict_gradient(meta, act)));
            // The conv's gradient lives on in its Adam moments; the
            // surplus rows are masked out of the state comparison.
            fill_surplus(&mut p, row_len, f32::NAN);
            (out, state_bits(&mut p))
        };
        let (clean, clean_state) = run(false);
        let (poisoned, poisoned_state) = run(true);
        assert!(clean.iter().all(|b| f32::from_bits(*b).is_finite()));
        assert_eq!(clean, poisoned);
        assert_eq!(clean_state, poisoned_state);
    }

    #[test]
    #[should_panic(expected = "row_len 18 exceeds predictor capacity 8")]
    fn predict_gradient_rejects_a_site_wider_than_the_head() {
        let mut rng = Prng::seed_from_u64(10);
        let p = Predictor::new(PredictorConfig::default(), 8, &mut rng);
        let act = init::gaussian(&[2, 4, 5, 5], 0.0, 1.0, &mut rng);
        p.predict_gradient(&conv_meta(4, 2, 3), &act);
    }

    #[test]
    #[should_panic(expected = "row_len 18 exceeds predictor capacity 8")]
    fn train_step_rejects_a_site_wider_than_the_head() {
        let mut rng = Prng::seed_from_u64(11);
        let mut p = Predictor::new(PredictorConfig::default(), 8, &mut rng);
        let act = init::gaussian(&[2, 4, 5, 5], 0.0, 1.0, &mut rng);
        let grad = init::gaussian(&[4, 2, 3, 3], 0.0, 0.05, &mut rng);
        p.train_step(&conv_meta(4, 2, 3), &act, &grad);
    }
}
