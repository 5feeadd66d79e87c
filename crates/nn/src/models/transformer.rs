//! An encoder–decoder Transformer (Vaswani et al.) with explicit
//! backpropagation, matching the paper's Table 2 setup: three encoder and
//! three decoder layers trained on a translation task.
//!
//! Layers that carry weight matrices (the attention projections, the FFN
//! linears and the vocabulary head) are exposed as ADA-GP prediction
//! sites through [`Module::visit_sites`]; embeddings and layer-norms are
//! trained only in backprop phases, mirroring the paper's focus on
//! weight-gradient prediction.

use crate::layers::{LayerNorm, Linear};
use crate::module::{ForwardCtx, Module, PredictionSite};
use crate::param::Param;
use adagp_tensor::gemm::{gemm, Mat};
use adagp_tensor::softmax::{gelu, gelu_backward};
use adagp_tensor::{init, Prng, Tensor};

/// Transformer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Vocabulary size (source and target share a vocabulary).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub n_heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Encoder layers.
    pub n_enc: usize,
    /// Decoder layers.
    pub n_dec: usize,
    /// Maximum sequence length (for positional encodings).
    pub max_len: usize,
}

impl TransformerConfig {
    /// The paper's Table 2 configuration, width-scaled for CPU: 3 encoder
    /// and 3 decoder layers.
    pub fn paper_like(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 32,
            n_heads: 4,
            d_ff: 64,
            n_enc: 3,
            n_dec: 3,
            max_len: 64,
        }
    }

    /// A minimal config for unit tests.
    pub fn tiny(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_enc: 1,
            n_dec: 1,
            max_len: 16,
        }
    }
}

/// Token embedding with scatter-add backward.
#[derive(Debug)]
struct Embedding {
    weight: Param,
    ids_cache: Vec<usize>,
}

impl Embedding {
    fn new(vocab: usize, d_model: usize, rng: &mut Prng) -> Self {
        Embedding {
            weight: Param::new(init::gaussian(&[vocab, d_model], 0.0, 0.02, rng)),
            ids_cache: Vec::new(),
        }
    }

    /// `(tokens,) -> (tokens, d_model)`.
    fn forward(&mut self, ids: &[usize], train: bool) -> Tensor {
        let d = self.weight.value.dim(1);
        let mut out = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(id < self.weight.value.dim(0), "token id {id} out of vocab");
            out.extend_from_slice(&self.weight.value.data()[id * d..(id + 1) * d]);
        }
        if train {
            self.ids_cache = ids.to_vec();
        }
        Tensor::from_vec(out, &[ids.len(), d])
    }

    fn backward(&mut self, dy: &Tensor) {
        let d = self.weight.value.dim(1);
        for (row, &id) in self.ids_cache.iter().enumerate() {
            let src = &dy.data()[row * d..(row + 1) * d];
            let dst = &mut self.weight.grad.data_mut()[id * d..(id + 1) * d];
            for (g, &v) in dst.iter_mut().zip(src.iter()) {
                *g += v;
            }
        }
    }
}

/// Sinusoidal positional encoding table.
fn positional_encoding(max_len: usize, d_model: usize) -> Tensor {
    let mut data = vec![0.0f32; max_len * d_model];
    for pos in 0..max_len {
        for i in 0..d_model {
            let angle = pos as f32 / 10_000f32.powf(2.0 * (i / 2) as f32 / d_model as f32);
            data[pos * d_model + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    Tensor::from_vec(data, &[max_len, d_model])
}

/// Writes the `(rows, dh)` matrix `src` over the head band of the
/// `(_, d)` matrix `dst` that starts at element `offset`.
fn put_head(dst: &mut [f32], offset: usize, d: usize, dh: usize, src: &[f32]) {
    for (r, row) in src.chunks(dh).enumerate() {
        dst[offset + r * d..][..dh].copy_from_slice(row);
    }
}

/// Multi-head attention with cached intermediates for backward.
#[derive(Debug)]
struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    causal: bool,
    // Caches, per forward pass.
    q: Option<Tensor>,
    k: Option<Tensor>,
    v: Option<Tensor>,
    probs: Option<Vec<Tensor>>, // one (L_q, L_k) matrix per (batch, head)
    batch: usize,
    lq: usize,
    lk: usize,
}

impl MultiHeadAttention {
    fn new(d_model: usize, n_heads: usize, causal: bool, label: &str, rng: &mut Prng) -> Self {
        assert_eq!(d_model % n_heads, 0, "n_heads must divide d_model");
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, true, rng).with_label(format!("{label}.wq")),
            wk: Linear::new(d_model, d_model, true, rng).with_label(format!("{label}.wk")),
            wv: Linear::new(d_model, d_model, true, rng).with_label(format!("{label}.wv")),
            wo: Linear::new(d_model, d_model, true, rng).with_label(format!("{label}.wo")),
            n_heads,
            causal,
            q: None,
            k: None,
            v: None,
            probs: None,
            batch: 0,
            lq: 0,
            lk: 0,
        }
    }

    /// `query (B*Lq, D)`, `key_value (B*Lk, D)` -> `(B*Lq, D)`.
    fn forward(
        &mut self,
        query: &Tensor,
        key_value: &Tensor,
        batch: usize,
        lq: usize,
        lk: usize,
        ctx: &mut ForwardCtx,
    ) -> Tensor {
        let d = query.dim(1);
        let dh = d / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let q = self.wq.forward(query, ctx);
        let k = self.wk.forward(key_value, ctx);
        let v = self.wv.forward(key_value, ctx);

        let mut out = vec![0.0f32; batch * lq * d];
        let mut head = vec![0.0f32; lq * dh];
        let mut probs = Vec::with_capacity(batch * self.n_heads);
        for b in 0..batch {
            for h in 0..self.n_heads {
                let (qo, ko) = (b * lq * d + h * dh, b * lk * d + h * dh);
                let qh = Mat::rows(&q.data()[qo..], d);
                let kh = Mat::rows(&k.data()[ko..], d);
                let vh = Mat::rows(&v.data()[ko..], d);
                // Score matrix (lq, lk): Q_h K_h^T, scaled, future masked.
                let mut scores = vec![0.0f32; lq * lk];
                gemm(lq, lk, dh, qh, kh.t(), &mut scores, false);
                scores.iter_mut().for_each(|s| *s *= scale);
                if self.causal {
                    for (i, row) in scores.chunks_mut(lk).enumerate() {
                        row[(i + 1).min(lk)..].fill(f32::NEG_INFINITY);
                    }
                }
                // Row-wise softmax.
                let p = adagp_tensor::softmax::softmax(&Tensor::from_vec(scores, &[lq, lk]));
                // Output rows: o_i = sum_j p_ij * v_j.
                gemm(lq, dh, lk, Mat::rows(p.data(), lk), vh, &mut head, false);
                put_head(&mut out, qo, d, dh, &head);
                probs.push(p);
            }
        }
        let concat = Tensor::from_vec(out, &[batch * lq, d]);
        let y = self.wo.forward(&concat, ctx);
        if ctx.train {
            self.q = Some(q);
            self.k = Some(k);
            self.v = Some(v);
            self.probs = Some(probs);
            self.batch = batch;
            self.lq = lq;
            self.lk = lk;
        }
        y
    }

    /// Returns `(dquery, dkey_value)`.
    fn backward(&mut self, dy: &Tensor) -> (Tensor, Tensor) {
        let q = self.q.as_ref().expect("MHA::backward before forward");
        let k = self.k.as_ref().unwrap();
        let v = self.v.as_ref().unwrap();
        let probs = self.probs.as_ref().unwrap();
        let (batch, lq, lk) = (self.batch, self.lq, self.lk);
        let d = q.dim(1);
        let dh = d / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let dconcat = self.wo.backward(dy);
        let mut dq = vec![0.0f32; q.len()];
        let mut dk = vec![0.0f32; k.len()];
        let mut dv = vec![0.0f32; v.len()];

        let mut dp = vec![0.0f32; lq * lk];
        let mut head = vec![0.0f32; lq.max(lk) * dh];
        for b in 0..batch {
            for h in 0..self.n_heads {
                let p = probs[b * self.n_heads + h].data();
                let (qo, ko) = (b * lq * d + h * dh, b * lk * d + h * dh);
                let qh = Mat::rows(&q.data()[qo..], d);
                let kh = Mat::rows(&k.data()[ko..], d);
                let vh = Mat::rows(&v.data()[ko..], d);
                let doh = Mat::rows(&dconcat.data()[qo..], d);
                // dP = dO_h V_h^T and dV_h = P^T dO_h.
                gemm(lq, lk, dh, doh, vh.t(), &mut dp, false);
                let pt = Mat::rows(p, lk).t();
                gemm(lk, dh, lq, pt, doh, &mut head[..lk * dh], false);
                put_head(&mut dv, ko, d, dh, &head[..lk * dh]);
                // Softmax backward: ds_ij = p_ij * (dp_ij - sum_j dp_ij p_ij) * scale.
                for (prow, dprow) in p.chunks(lk).zip(dp.chunks_mut(lk)) {
                    let dot: f32 = prow.iter().zip(dprow.iter()).map(|(&a, &b)| a * b).sum();
                    for (dpv, &pv) in dprow.iter_mut().zip(prow.iter()) {
                        *dpv = pv * (*dpv - dot) * scale;
                    }
                }
                // dQ_h = dS K_h and dK_h = dS^T Q_h.
                let ds = Mat::rows(&dp, lk);
                gemm(lq, dh, lk, ds, kh, &mut head[..lq * dh], false);
                put_head(&mut dq, qo, d, dh, &head[..lq * dh]);
                gemm(lk, dh, lq, ds.t(), qh, &mut head[..lk * dh], false);
                put_head(&mut dk, ko, d, dh, &head[..lk * dh]);
            }
        }
        let dquery = self.wq.backward(&Tensor::from_vec(dq, &[batch * lq, d]));
        let dkey = self.wk.backward(&Tensor::from_vec(dk, &[batch * lk, d]));
        let dval = self.wv.backward(&Tensor::from_vec(dv, &[batch * lk, d]));
        (dquery, dkey.add(&dval))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        self.wq.visit_sites(f);
        self.wk.visit_sites(f);
        self.wv.visit_sites(f);
        self.wo.visit_sites(f);
    }
}

/// Position-wise feed-forward network with GELU.
#[derive(Debug)]
struct FeedForward {
    fc1: Linear,
    fc2: Linear,
    pre_gelu: Option<Tensor>,
}

impl FeedForward {
    fn new(d_model: usize, d_ff: usize, label: &str, rng: &mut Prng) -> Self {
        FeedForward {
            fc1: Linear::new(d_model, d_ff, true, rng).with_label(format!("{label}.ff1")),
            fc2: Linear::new(d_ff, d_model, true, rng).with_label(format!("{label}.ff2")),
            pre_gelu: None,
        }
    }

    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let h = self.fc1.forward(x, ctx);
        let a = gelu(&h);
        if ctx.train {
            self.pre_gelu = Some(h);
        }
        self.fc2.forward(&a, ctx)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let da = self.fc2.backward(dy);
        let h = self
            .pre_gelu
            .as_ref()
            .expect("FFN::backward before forward");
        let dh = gelu_backward(h, &da);
        self.fc1.backward(&dh)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        self.fc1.visit_sites(f);
        self.fc2.visit_sites(f);
    }
}

/// Encoder layer: post-norm `LN(x + attn)` then `LN(x + ffn)`.
#[derive(Debug)]
struct EncoderLayer {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl EncoderLayer {
    fn new(cfg: &TransformerConfig, idx: usize, rng: &mut Prng) -> Self {
        let label = format!("enc{idx}");
        EncoderLayer {
            attn: MultiHeadAttention::new(cfg.d_model, cfg.n_heads, false, &label, rng),
            ffn: FeedForward::new(cfg.d_model, cfg.d_ff, &label, rng),
            ln1: LayerNorm::new(cfg.d_model),
            ln2: LayerNorm::new(cfg.d_model),
        }
    }

    fn forward(&mut self, x: &Tensor, batch: usize, len: usize, ctx: &mut ForwardCtx) -> Tensor {
        let a = self.attn.forward(x, x, batch, len, len, ctx);
        let h = self.ln1.forward(&x.add(&a), ctx);
        let f = self.ffn.forward(&h, ctx);
        self.ln2.forward(&h.add(&f), ctx)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dsum2 = self.ln2.backward(dy);
        let dh = dsum2.add(&self.ffn.backward(&dsum2));
        let dsum1 = self.ln1.backward(&dh);
        let (dq, dkv) = self.attn.backward(&dsum1);
        dsum1.add(&dq).add(&dkv)
    }
}

/// Decoder layer: causal self-attention, cross-attention over the encoder
/// memory, then FFN (post-norm).
#[derive(Debug)]
struct DecoderLayer {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ln3: LayerNorm,
}

impl DecoderLayer {
    fn new(cfg: &TransformerConfig, idx: usize, rng: &mut Prng) -> Self {
        let label = format!("dec{idx}");
        DecoderLayer {
            self_attn: MultiHeadAttention::new(
                cfg.d_model,
                cfg.n_heads,
                true,
                &format!("{label}.self"),
                rng,
            ),
            cross_attn: MultiHeadAttention::new(
                cfg.d_model,
                cfg.n_heads,
                false,
                &format!("{label}.cross"),
                rng,
            ),
            ffn: FeedForward::new(cfg.d_model, cfg.d_ff, &label, rng),
            ln1: LayerNorm::new(cfg.d_model),
            ln2: LayerNorm::new(cfg.d_model),
            ln3: LayerNorm::new(cfg.d_model),
        }
    }

    fn forward(
        &mut self,
        x: &Tensor,
        memory: &Tensor,
        batch: usize,
        lt: usize,
        ls: usize,
        ctx: &mut ForwardCtx,
    ) -> Tensor {
        let a = self.self_attn.forward(x, x, batch, lt, lt, ctx);
        let h1 = self.ln1.forward(&x.add(&a), ctx);
        let c = self.cross_attn.forward(&h1, memory, batch, lt, ls, ctx);
        let h2 = self.ln2.forward(&h1.add(&c), ctx);
        let f = self.ffn.forward(&h2, ctx);
        self.ln3.forward(&h2.add(&f), ctx)
    }

    /// Returns `(dx, dmemory)`.
    fn backward(&mut self, dy: &Tensor) -> (Tensor, Tensor) {
        let dsum3 = self.ln3.backward(dy);
        let dh2 = dsum3.add(&self.ffn.backward(&dsum3));
        let dsum2 = self.ln2.backward(&dh2);
        let (dq_cross, dmem) = self.cross_attn.backward(&dsum2);
        let dh1 = dsum2.add(&dq_cross);
        let dsum1 = self.ln1.backward(&dh1);
        let (dq_self, dkv_self) = self.self_attn.backward(&dsum1);
        (dsum1.add(&dq_self).add(&dkv_self), dmem)
    }
}

/// The full encoder–decoder Transformer.
///
/// ```
/// use adagp_nn::models::{Transformer, TransformerConfig};
/// use adagp_tensor::Prng;
/// let mut rng = Prng::seed_from_u64(0);
/// let mut model = Transformer::new(TransformerConfig::tiny(32), &mut rng);
/// let logits = model.forward_train(&[vec![3, 4, 5]], &[vec![6, 7, 8]]);
/// assert_eq!(logits.shape(), &[3, 32]);
/// ```
#[derive(Debug)]
pub struct Transformer {
    cfg: TransformerConfig,
    src_embed: Embedding,
    tgt_embed: Embedding,
    pos: Tensor,
    encoder: Vec<EncoderLayer>,
    decoder: Vec<DecoderLayer>,
    head: Linear,
    // Shape cache for backward.
    batch: usize,
    src_len: usize,
    tgt_len: usize,
}

impl Transformer {
    /// Builds a transformer with the given config.
    pub fn new(cfg: TransformerConfig, rng: &mut Prng) -> Self {
        Transformer {
            src_embed: Embedding::new(cfg.vocab, cfg.d_model, rng),
            tgt_embed: Embedding::new(cfg.vocab, cfg.d_model, rng),
            pos: positional_encoding(cfg.max_len, cfg.d_model),
            encoder: (0..cfg.n_enc)
                .map(|i| EncoderLayer::new(&cfg, i, rng))
                .collect(),
            decoder: (0..cfg.n_dec)
                .map(|i| DecoderLayer::new(&cfg, i, rng))
                .collect(),
            head: Linear::new(cfg.d_model, cfg.vocab, true, rng).with_label("head"),
            cfg,
            batch: 0,
            src_len: 0,
            tgt_len: 0,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    fn embed(&mut self, ids: &[Vec<usize>], is_src: bool, train: bool) -> (Tensor, usize, usize) {
        let batch = ids.len();
        let len = ids[0].len();
        assert!(len <= self.cfg.max_len, "sequence longer than max_len");
        let flat: Vec<usize> = ids.iter().flat_map(|row| row.iter().copied()).collect();
        let emb = if is_src {
            self.src_embed.forward(&flat, train)
        } else {
            self.tgt_embed.forward(&flat, train)
        };
        // Add positional encodings.
        let d = self.cfg.d_model;
        let mut data = emb.into_vec();
        for b in 0..batch {
            for p in 0..len {
                let base = (b * len + p) * d;
                for t in 0..d {
                    data[base + t] += self.pos.data()[p * d + t];
                }
            }
        }
        (Tensor::from_vec(data, &[batch * len, d]), batch, len)
    }

    /// Training forward: teacher-forced decode.
    ///
    /// `src` and `tgt_in` are batches of token-id rows (all rows of equal
    /// length). Returns logits `(batch * tgt_len, vocab)`.
    ///
    /// # Panics
    ///
    /// Panics if batches are empty or row lengths differ.
    pub fn forward_train(&mut self, src: &[Vec<usize>], tgt_in: &[Vec<usize>]) -> Tensor {
        self.forward_impl(src, tgt_in, &mut ForwardCtx::train())
    }

    /// Forward with an explicit context (e.g. recording activations for
    /// ADA-GP).
    pub fn forward_with_ctx(
        &mut self,
        src: &[Vec<usize>],
        tgt_in: &[Vec<usize>],
        ctx: &mut ForwardCtx,
    ) -> Tensor {
        self.forward_impl(src, tgt_in, ctx)
    }

    fn forward_impl(
        &mut self,
        src: &[Vec<usize>],
        tgt_in: &[Vec<usize>],
        ctx: &mut ForwardCtx,
    ) -> Tensor {
        assert!(
            !src.is_empty() && src.len() == tgt_in.len(),
            "batch mismatch"
        );
        let (mut h, batch, ls) = self.embed(src, true, ctx.train);
        for layer in &mut self.encoder {
            h = layer.forward(&h, batch, ls, ctx);
        }
        let memory = h;
        let (mut t, _, lt) = self.embed(tgt_in, false, ctx.train);
        for layer in &mut self.decoder {
            t = layer.forward(&t, &memory, batch, lt, ls, ctx);
        }
        self.batch = batch;
        self.src_len = ls;
        self.tgt_len = lt;
        self.head.forward(&t, ctx)
    }

    /// Backward from the logits gradient; accumulates all parameter
    /// gradients.
    pub fn backward(&mut self, dlogits: &Tensor) {
        let mut dt = self.head.backward(dlogits);
        let mut dmem_total = Tensor::zeros(&[self.batch * self.src_len, self.cfg.d_model]);
        for layer in self.decoder.iter_mut().rev() {
            let (dx, dmem) = layer.backward(&dt);
            dt = dx;
            dmem_total.add_assign(&dmem);
        }
        self.tgt_embed.backward(&dt);
        let mut dh = dmem_total;
        for layer in self.encoder.iter_mut().rev() {
            dh = layer.backward(&dh);
        }
        self.src_embed.backward(&dh);
    }

    /// Greedy autoregressive decode of `max_steps` tokens given `src`.
    pub fn greedy_decode(
        &mut self,
        src: &[Vec<usize>],
        bos: usize,
        max_steps: usize,
    ) -> Vec<Vec<usize>> {
        let batch = src.len();
        let mut outputs: Vec<Vec<usize>> = vec![vec![bos]; batch];
        for _ in 0..max_steps {
            let tgt_in: Vec<Vec<usize>> = outputs.clone();
            let logits = self.forward_impl(src, &tgt_in, &mut ForwardCtx::eval());
            let v = self.cfg.vocab;
            let lt = tgt_in[0].len();
            for (b, out_row) in outputs.iter_mut().enumerate() {
                let row = &logits.data()[((b * lt) + lt - 1) * v..((b * lt) + lt) * v];
                let next = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                out_row.push(next);
            }
        }
        outputs
            .into_iter()
            .map(|mut o| {
                o.remove(0);
                o
            })
            .collect()
    }
}

impl Module for Transformer {
    /// Not the primary entry point — the transformer consumes token ids via
    /// [`Transformer::forward_train`]. This adapter exists so optimizers
    /// and ADA-GP site visitors can treat it like any other model.
    ///
    /// # Panics
    ///
    /// Always panics; use `forward_train`.
    fn forward(&mut self, _x: &Tensor, _ctx: &mut ForwardCtx) -> Tensor {
        panic!("Transformer::forward takes token ids; use forward_train")
    }

    /// # Panics
    ///
    /// Always panics; use [`Transformer::backward`].
    fn backward(&mut self, _dy: &Tensor) -> Tensor {
        panic!("use Transformer::backward(dlogits)")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.src_embed.weight);
        f(&mut self.tgt_embed.weight);
        for l in &mut self.encoder {
            l.attn.visit_params(f);
            l.ffn.visit_params(f);
            l.ln1.visit_params(f);
            l.ln2.visit_params(f);
        }
        for l in &mut self.decoder {
            l.self_attn.visit_params(f);
            l.cross_attn.visit_params(f);
            l.ffn.visit_params(f);
            l.ln1.visit_params(f);
            l.ln2.visit_params(f);
            l.ln3.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
        for l in &mut self.encoder {
            l.attn.visit_sites(f);
            l.ffn.visit_sites(f);
        }
        for l in &mut self.decoder {
            l.self_attn.visit_sites(f);
            l.cross_attn.visit_sites(f);
            l.ffn.visit_sites(f);
        }
        self.head.visit_sites(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::count_sites;
    use adagp_tensor::softmax::cross_entropy;

    #[test]
    fn forward_shapes() {
        let mut rng = Prng::seed_from_u64(0);
        let mut model = Transformer::new(TransformerConfig::tiny(32), &mut rng);
        let src = vec![vec![3, 4, 5, 6], vec![7, 8, 9, 10]];
        let tgt = vec![vec![3, 4, 5], vec![6, 7, 8]];
        let logits = model.forward_train(&src, &tgt);
        assert_eq!(logits.shape(), &[2 * 3, 32]);
    }

    #[test]
    fn backward_populates_all_grads() {
        let mut rng = Prng::seed_from_u64(1);
        let mut model = Transformer::new(TransformerConfig::tiny(16), &mut rng);
        let src = vec![vec![3, 4]];
        let tgt = vec![vec![5, 6]];
        let logits = model.forward_train(&src, &tgt);
        let (_, dl) = cross_entropy(&logits, &[5, 6]);
        model.backward(&dl);
        let mut nonzero = 0;
        let mut total = 0;
        model.visit_params(&mut |p| {
            total += 1;
            if p.grad.norm() > 0.0 {
                nonzero += 1;
            }
        });
        // Nearly all parameters should receive gradient (biases of unused
        // masked positions may stay zero).
        assert!(nonzero * 10 >= total * 9, "{nonzero}/{total} grads nonzero");
    }

    #[test]
    fn learns_a_constant_mapping() {
        // Tiny overfit check: always output token 7.
        let mut rng = Prng::seed_from_u64(2);
        let mut model = Transformer::new(TransformerConfig::tiny(16), &mut rng);
        let mut opt = crate::optim::Adam::new(0.01);
        let src = vec![vec![3, 4, 5]];
        let tgt_in = vec![vec![1, 7, 7]];
        let targets = [7usize, 7, 7];
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let logits = model.forward_train(&src, &tgt_in);
            let (loss, dl) = cross_entropy(&logits, &targets);
            model.backward(&dl);
            crate::optim::Optimizer::step(&mut opt, &mut model);
            last = loss;
        }
        assert!(last < 0.1, "loss {last}");
    }

    #[test]
    fn site_count_matches_structure() {
        let mut rng = Prng::seed_from_u64(3);
        let cfg = TransformerConfig::paper_like(64);
        let mut model = Transformer::new(cfg, &mut rng);
        // enc: 3 * (4 attn + 2 ffn); dec: 3 * (8 attn + 2 ffn); head: 1.
        assert_eq!(count_sites(&mut model), 3 * 6 + 3 * 10 + 1);
    }

    #[test]
    fn greedy_decode_produces_tokens() {
        let mut rng = Prng::seed_from_u64(4);
        let mut model = Transformer::new(TransformerConfig::tiny(16), &mut rng);
        let out = model.greedy_decode(&[vec![3, 4, 5]], 1, 3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
        assert!(out[0].iter().all(|&t| t < 16));
    }

    /// `L = <attention(query, key_value), r>`, summed in f64.
    fn attention_loss(
        mha: &mut MultiHeadAttention,
        (query, key_value): (&Tensor, &Tensor),
        (batch, lq, lk): (usize, usize, usize),
        r: &Tensor,
    ) -> f64 {
        let y = mha.forward(query, key_value, batch, lq, lk, &mut ForwardCtx::train());
        let terms = y.data().iter().zip(r.data());
        terms.map(|(&a, &b)| f64::from(a) * f64::from(b)).sum()
    }

    /// `MultiHeadAttention::backward` against central differences of
    /// [`attention_loss`]: every element of `dquery`, `dkey_value` and each
    /// parameter gradient of `wq`, `wk`, `wv`, `wo`, for self-attention
    /// (`lq == lk`, one tensor as both inputs) and cross-attention, causal
    /// and not. Step and tolerance are `tests/layer_properties.rs`'s (its
    /// tolerance for layers nonlinear in their input, here the softmax).
    #[test]
    fn attention_matches_central_differences() {
        const STEP: f32 = 1e-2;
        const TOL: f64 = 2e-3;
        let cases = [(3, 3, false), (3, 3, true), (2, 4, false), (4, 3, true)];
        for (case, (lq, lk, causal)) in cases.into_iter().enumerate() {
            let (batch, d, heads) = (2, 4, 2);
            let dims = (batch, lq, lk);
            let mut rng = Prng::seed_from_u64(40 + case as u64);
            let mut mha = MultiHeadAttention::new(d, heads, causal, "a", &mut rng);
            let query = init::gaussian(&[batch * lq, d], 0.0, 1.0, &mut rng);
            let key_value = if lq == lk {
                query.clone()
            } else {
                init::gaussian(&[batch * lk, d], 0.0, 1.0, &mut rng)
            };
            let y = mha.forward(&query, &key_value, batch, lq, lk, &mut ForwardCtx::train());
            let r = init::gaussian(y.shape(), 0.0, 1.0, &mut rng);
            let (dquery, dkey_value) = mha.backward(&r);
            let mut grads = Vec::new();
            mha.visit_params(&mut |p| grads.push(p.grad.clone()));
            assert_eq!(grads.len(), 8, "four projections, weight and bias each");

            let label = format!("lq {lq} lk {lk} causal {causal}");
            let check = |at: String, analytic: f32, loss_after: &mut dyn FnMut(f32) -> f64| {
                let numeric = (loss_after(STEP) - loss_after(-STEP)) / (2.0 * f64::from(STEP));
                let tol = TOL * numeric.abs().max(1.0);
                assert!(
                    (f64::from(analytic) - numeric).abs() < tol,
                    "{label} {at}: analytic {analytic} vs numeric {numeric}"
                );
            };
            for i in 0..query.len() {
                check(format!("dquery[{i}]"), dquery.data()[i], &mut |step| {
                    let mut moved = query.clone();
                    moved.data_mut()[i] += step;
                    attention_loss(&mut mha, (&moved, &key_value), dims, &r)
                });
            }
            for i in 0..key_value.len() {
                check(
                    format!("dkey_value[{i}]"),
                    dkey_value.data()[i],
                    &mut |step| {
                        let mut moved = key_value.clone();
                        moved.data_mut()[i] += step;
                        attention_loss(&mut mha, (&query, &moved), dims, &r)
                    },
                );
            }
            for (pi, grad) in grads.iter().enumerate() {
                for i in 0..grad.len() {
                    let nudge = |mha: &mut MultiHeadAttention, by: f32| {
                        let mut seen = 0;
                        mha.visit_params(&mut |p| {
                            if seen == pi {
                                p.value.data_mut()[i] += by;
                            }
                            seen += 1;
                        });
                    };
                    check(format!("param {pi} [{i}]"), grad.data()[i], &mut |step| {
                        nudge(&mut mha, step);
                        let loss = attention_loss(&mut mha, (&query, &key_value), dims, &r);
                        nudge(&mut mha, -step);
                        loss
                    });
                }
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        // With a causal mask, position 0's output must not depend on later
        // target tokens.
        let mut rng = Prng::seed_from_u64(5);
        let mut model = Transformer::new(TransformerConfig::tiny(16), &mut rng);
        let src = vec![vec![3, 4]];
        let a = model.forward_train(&src, &[vec![5, 6, 7]]);
        let b = model.forward_train(&src, &[vec![5, 9, 10]]);
        let v = 16;
        for t in 0..v {
            assert!(
                (a.data()[t] - b.data()[t]).abs() < 1e-5,
                "position 0 logit {t} changed when future tokens changed"
            );
        }
    }
}
