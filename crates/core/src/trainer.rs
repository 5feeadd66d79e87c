//! The ADA-GP trainer: orchestrates warm-up, Phase BP and Phase GP over
//! any [`Module`] that exposes prediction sites.
//!
//! There is one training step, [`AdaGp::train_step`]. The caller's closure
//! runs the task — a recording forward pass, the loss and, only when
//! asked, the backward pass — and the step owns everything ADA-GP adds:
//!
//! * Phase BP/warm-up (§3.3): the closure backpropagates → the predictor
//!   trains on each site's `(activation, true gradient)` pair → the
//!   controller hears the batch's MAPE → optimizer step with true
//!   gradients.
//! * Phase GP (§3.4): the closure stops after the loss → the predictor
//!   writes predicted gradients into each site's weight parameter →
//!   optimizer step. **No backward pass runs** — this is where the
//!   hardware speed-up comes from. The sites' predictions are independent
//!   reads of the one predictor, so they run as one pool region, one task
//!   per site with its kernels inline ([`adagp_tensor::par::tasks`]); only
//!   the install into the model is serial, in site order. Phase BP's
//!   predictor training computes every site's head-independent rows as
//!   one such region, then steps the predictor one site after another:
//!   Adam steps the shared head after every site.
//!
//! [`AdaGp::train_batch`] is that step with the classification closure
//! (`Module::forward` + cross-entropy). [`AdaGp::train_epoch_pipelined`]
//! realizes the paper's overlap at batch granularity: batch generation, the
//! model's forward/backward work and the predictor's training updates run
//! on three concurrent stages joined by bounded queues. It is built from
//! the same pieces as the step — one site harvest, one predictor update
//! over a batch's examples, one predicted-gradient install — and differs
//! only in *where* the predictor trains (a queue and a flush barrier
//! instead of inline), so it stays bit-identical to the serial loop.

use crate::controller::{Phase, PhaseController, ScheduleConfig};
use crate::metrics::{gradient_errors, PredictorMetrics, MAPE_EPS};
use crate::predictor::{Predictor, PredictorConfig};
use crate::reorg;
use adagp_nn::module::{site_metas, ForwardCtx, Module};
use adagp_nn::optim::Optimizer;
use adagp_nn::SiteMeta;
use adagp_obs as obs;
use adagp_runtime::{BoundedQueue, PipelineStats, StageReport, WaitGroup};
use adagp_tensor::softmax::cross_entropy;
use adagp_tensor::{par, Prng, Tensor};
use std::sync::Mutex;

/// EMA decay of the per-site true-gradient norm estimate.
pub const NORM_EMA_DECAY: f32 = 0.9;

/// ADA-GP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaGpConfig {
    /// Phase schedule.
    pub schedule: ScheduleConfig,
    /// Predictor model hyper-parameters.
    pub predictor: PredictorConfig,
    /// Track per-layer MAPE/MSE during BP phases (Figure 15). Adds one
    /// extra predictor forward per site per BP batch.
    pub track_metrics: bool,
    /// Rescale each predicted gradient to the exponential moving average
    /// of that site's true-gradient norm (observed during BP phases).
    /// The predictor then only has to get the *direction* right; magnitude
    /// drift — the dominant failure mode at short warm-ups — is absorbed
    /// by a single per-layer scalar. Costs one norm + one scalar multiply
    /// per site in hardware. Disable to reproduce the unscaled scheme
    /// (see the `ablation_calibration` harness).
    pub norm_calibration: bool,
}

impl Default for AdaGpConfig {
    fn default() -> Self {
        AdaGpConfig {
            schedule: ScheduleConfig::default(),
            predictor: PredictorConfig::default(),
            track_metrics: true,
            norm_calibration: true,
        }
    }
}

/// Per-batch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Which phase the batch ran in.
    pub phase: Phase,
    /// Task loss of the batch (cross-entropy for classification).
    pub loss: f32,
    /// Mean predictor training loss across sites (BP phases only).
    pub predictor_loss: Option<f32>,
    /// Mean predictor MAPE across sites (BP phases with metrics only).
    pub mape: Option<f32>,
}

/// The ADA-GP training orchestrator.
pub struct AdaGp {
    cfg: AdaGpConfig,
    predictor: Predictor,
    controller: PhaseController,
    metrics: PredictorMetrics,
    sites: Vec<SiteMeta>,
    /// Per-site EMA of the true weight-gradient L2 norm (`None` until the
    /// first BP batch).
    grad_norm_ema: Vec<Option<f32>>,
}

impl std::fmt::Debug for AdaGp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AdaGp(sites={}, epoch={}, max_row={})",
            self.sites.len(),
            self.controller.epoch(),
            self.predictor.max_row_len()
        )
    }
}

impl AdaGp {
    /// Builds ADA-GP for `model`, sizing the shared predictor from the
    /// model's prediction sites.
    ///
    /// # Panics
    ///
    /// Panics if the model has no prediction sites.
    pub fn new(cfg: AdaGpConfig, model: &mut dyn Module, rng: &mut Prng) -> Self {
        let sites = site_metas(model);
        assert!(!sites.is_empty(), "model exposes no prediction sites");
        let predictor = Predictor::for_sites(cfg.predictor, &sites, rng);
        let metrics = PredictorMetrics::new(sites.len());
        let grad_norm_ema = vec![None; sites.len()];
        AdaGp {
            cfg,
            predictor,
            controller: PhaseController::new(cfg.schedule),
            metrics,
            sites,
            grad_norm_ema,
        }
    }

    /// The phase controller (e.g. to call
    /// [`PhaseController::end_epoch`]).
    pub fn controller_mut(&mut self) -> &mut PhaseController {
        &mut self.controller
    }

    /// Per-layer predictor metrics collected so far.
    pub fn metrics(&self) -> &PredictorMetrics {
        &self.metrics
    }

    /// Resets per-layer metrics (epoch boundary).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// The shared predictor.
    pub fn predictor_mut(&mut self) -> &mut Predictor {
        &mut self.predictor
    }

    /// Site metadata in forward order.
    pub fn sites(&self) -> &[SiteMeta] {
        &self.sites
    }

    /// Trains one batch of any task, dispatching on the controller's
    /// phase — the one place a batch's phase is decided and carried out.
    ///
    /// `run(model, backprop)` does the task's share: a forward pass that
    /// records site activations ([`ForwardCtx::train_recording`]), the
    /// loss (returned; in Phase GP it is reported only) and, when
    /// `backprop` is true, the task's own backward pass. The step does the
    /// rest: predictor training and the MAPE report to the controller, or
    /// the predicted-gradient install; then the optimizer step.
    pub fn train_step<M: Module + ?Sized>(
        &mut self,
        mut model: &mut M,
        opt: &mut dyn Optimizer,
        run: impl FnOnce(&mut M, bool) -> f32,
    ) -> BatchStats {
        let phase = self.controller.next_phase();
        obs::span(
            "train",
            || format!("batch ({phase:?})"),
            || {
                let backprop = phase != Phase::GP;
                let loss = run(model, backprop);
                // `&mut model`: a `&mut M` is itself a `Module`, which is
                // how a possibly unsized `M` becomes `&mut dyn Module`.
                let (predictor_loss, mape) = if backprop {
                    let (pred_loss, mape) = self.train_predictor_from_sites(&mut model);
                    if let Some(m) = mape {
                        self.controller.report_mape(m);
                    }
                    (Some(pred_loss), mape)
                } else {
                    self.apply_predicted_gradients(&mut model);
                    (None, None)
                };
                opt.step(&mut model);
                BatchStats {
                    phase,
                    loss,
                    predictor_loss,
                    mape,
                }
            },
        )
    }

    /// Trains one classification batch (images + integer labels):
    /// [`AdaGp::train_step`] over `Module::forward` and cross-entropy.
    pub fn train_batch(
        &mut self,
        model: &mut dyn Module,
        opt: &mut dyn Optimizer,
        x: &Tensor,
        targets: &[usize],
    ) -> BatchStats {
        self.train_step(model, opt, |model, backprop| {
            classify(model, x, targets, backprop)
        })
    }

    /// Phase BP hook: trains the predictor on every site's recorded
    /// activation and true weight gradient. Returns `(mean predictor
    /// loss, mean MAPE if tracked)`.
    ///
    /// Call after `model.backward(...)` on a forward pass that recorded
    /// activations. [`AdaGp::train_step`] does; the hook is public for
    /// callers that re-issue a batch piece by piece.
    pub fn train_predictor_from_sites(&mut self, model: &mut dyn Module) -> (f32, Option<f32>) {
        let examples = harvest_sites(model, &mut self.grad_norm_ema);
        train_on_examples(
            &mut self.predictor,
            &mut self.metrics,
            self.cfg.track_metrics,
            examples,
        )
    }

    /// Phase GP hook: writes predicted gradients into every site's weight
    /// parameter — all sites at once on the pool, bit for bit what one
    /// site after another gives. Call after a recording forward pass, then
    /// run the optimizer step; no backward pass is needed.
    pub fn apply_predicted_gradients(&mut self, model: &mut dyn Module) {
        install_predicted_gradients(
            &self.predictor,
            &self.grad_norm_ema,
            self.cfg.norm_calibration,
            model,
        );
    }
}

/// A `train`-category span with a fixed name.
fn train_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    obs::span("train", || name.to_string(), f)
}

/// The classification task of [`AdaGp::train_batch`] and the pipelined
/// epoch: recording forward, cross-entropy and, when asked, backward.
fn classify(model: &mut dyn Module, x: &Tensor, targets: &[usize], backprop: bool) -> f32 {
    let logits = train_span("forward", || {
        model.forward(x, &mut ForwardCtx::train_recording())
    });
    // In Phase GP the loss is computed for reporting only.
    let (loss, dlogits) = cross_entropy(&logits, targets);
    if backprop {
        train_span("backward", || model.backward(&dlogits));
    }
    loss
}

/// One site's `(activation, true gradient)` pair: what a BP batch teaches
/// the predictor.
struct PredictorExample {
    site_idx: usize,
    meta: SiteMeta,
    act: Tensor,
    true_grad: Tensor,
}

/// The site harvest of a BP batch: takes every recorded activation with
/// its site's true weight gradient, in forward order, folding the
/// gradient's norm into the site's EMA on the way.
fn harvest_sites(model: &mut dyn Module, norm_ema: &mut [Option<f32>]) -> Vec<PredictorExample> {
    let mut examples = Vec::with_capacity(norm_ema.len());
    let mut site_idx = 0usize;
    model.visit_sites(&mut |site| {
        let meta = site.meta();
        if let Some(act) = site.take_activation() {
            let true_grad = site.weight_param().grad.clone();
            let ema = &mut norm_ema[site_idx];
            let norm = true_grad.norm();
            *ema = Some(match *ema {
                Some(prev) => NORM_EMA_DECAY * prev + (1.0 - NORM_EMA_DECAY) * norm,
                None => norm,
            });
            examples.push(PredictorExample {
                site_idx,
                meta,
                act,
                true_grad,
            });
        }
        site_idx += 1;
    });
    examples
}

/// A site's training rows ([`Predictor::training_rows`]), with what the
/// metrics pass reads when tracked: the activation and, for a site whose
/// target rows are a subsample, a copy of its whole gradient as rows.
struct SiteRows {
    site_idx: usize,
    meta: SiteMeta,
    rows: (Tensor, Tensor),
    tracked: Option<(Tensor, Option<Tensor>)>,
}

/// The predictor's share of a BP batch, in two halves:
///
/// 1. every site's head-independent half, [`Predictor::training_rows`]
///    (the batch mean, the pooling, the row subsample and the target
///    reshape), as one pool region, one task per site ([`par::tasks`]);
/// 2. the chain: per site, in forward order, an optional metrics pass and
///    then a training step on its rows. It stays serial because Adam steps
///    the shared head after every site.
///
/// Returns `(mean predictor loss, mean MAPE if tracked)`. The serial step
/// runs this inline and the pipelined epoch on its predictor stage, so
/// both touch the predictor in exactly the same order.
fn train_on_examples(
    predictor: &mut Predictor,
    metrics: &mut PredictorMetrics,
    track: bool,
    examples: Vec<PredictorExample>,
) -> (f32, Option<f32>) {
    let head = &*predictor;
    let sites = train_span("predictor rows", || {
        par::tasks(examples, |ex| {
            // Otherwise the target rows are the whole gradient, unmoved.
            let whole = (track && head.subsamples(&ex.meta))
                .then(|| reorg::gradient_rows(&ex.meta, ex.true_grad.clone()));
            let rows = head.training_rows(&ex.meta, &ex.act, ex.true_grad);
            SiteRows {
                site_idx: ex.site_idx,
                meta: ex.meta,
                rows,
                tracked: track.then_some((ex.act, whole)),
            }
        })
    });
    train_span("train predictor", || {
        let mut losses = Vec::with_capacity(sites.len());
        let mut mapes = Vec::new();
        // By value: each site's rows are freed as soon as it is done.
        for site in sites {
            if let Some((act, whole)) = &site.tracked {
                // Rows are the gradient's elements in its own order.
                let predicted = predictor.predict_rows(&site.meta, act);
                let e =
                    gradient_errors(&predicted, whole.as_ref().unwrap_or(&site.rows.1), MAPE_EPS);
                metrics.record(site.site_idx, e);
                mapes.push(e.mape);
            }
            losses.push(predictor.train_on_rows(site.rows));
        }
        let mean = |v: &[f32]| (!v.is_empty()).then(|| v.iter().sum::<f32>() / v.len() as f32);
        (mean(&losses).unwrap_or(0.0), mean(&mapes))
    })
}

/// Phase-GP core: predicts, (optionally) norm-calibrates and installs a
/// gradient for every recorded site, in three steps:
///
/// 1. take each site's activation and its weight's gradient buffer, in
///    [`Module::visit_sites`] order;
/// 2. predict and calibrate every site as one pool task
///    ([`par::tasks`]), largest first; each task writes `0.0 + g` into
///    its buffer, which is exactly `zero_grad` then `accumulate_grad`;
/// 3. put every buffer back, in site order.
///
/// Bit for bit the serial install: a site's kernels, operands and
/// per-element order do not change, every kernel is thread-count
/// invariant, and no site reads another's result. A site without an
/// activation keeps its gradient.
fn install_predicted_gradients(
    predictor: &Predictor,
    norm_ema: &[Option<f32>],
    calibrate: bool,
    model: &mut dyn Module,
) {
    train_span("apply predicted gradients", || {
        let mut jobs = Vec::with_capacity(norm_ema.len());
        let mut site_idx = 0usize;
        model.visit_sites(&mut |site| {
            if let Some(act) = site.take_activation() {
                let meta = site.meta();
                let grad = std::mem::replace(&mut site.weight_param().grad, Tensor::zeros(&[0]));
                jobs.push((site_idx, meta, act, grad));
            }
            site_idx += 1;
        });
        // Scheduling only: the widest FC and activation start first.
        jobs.sort_by_key(|(_, meta, act, _)| {
            std::cmp::Reverse(meta.weight_shape.iter().product::<usize>() + act.len())
        });
        let installed = par::tasks(jobs, |(site_idx, meta, act, mut buf)| {
            let mut grad = predictor.predict_gradient(&meta, &act);
            if calibrate {
                if let Some(target_norm) = norm_ema[site_idx] {
                    let norm = grad.norm();
                    if norm > 1e-12 {
                        // Shrink freely toward the observed true-norm
                        // scale, but amplify by at most 2x: an
                        // undertrained predictor (near-zero head) must
                        // not have its noise inflated to full gradient
                        // magnitude.
                        let factor = (target_norm / norm).min(2.0);
                        grad.scale_in_place(factor);
                    }
                }
            }
            assert_eq!(buf.shape(), grad.shape(), "predicted gradient shape");
            // `zero_grad` then `accumulate_grad`, to the bit: a `-0.0`
            // prediction installs as `+0.0`.
            for (b, g) in buf.data_mut().iter_mut().zip(grad.data()) {
                *b = 0.0 + g;
            }
            (site_idx, buf)
        });
        let mut by_site: Vec<Option<Tensor>> = vec![None; site_idx];
        for (i, buf) in installed {
            by_site[i] = Some(buf);
        }
        let mut site_idx = 0usize;
        model.visit_sites(&mut |site| {
            if let Some(buf) = by_site[site_idx].take() {
                site.weight_param().grad = buf;
            }
            site_idx += 1;
        });
    })
}

/// All predictor work produced by one Phase-BP batch.
struct PredictorJob {
    batch: usize,
    examples: Vec<PredictorExample>,
}

/// Runs its closure when dropped — on the normal path and while unwinding
/// alike. The pipelined epoch's stages use it to release whoever is
/// blocked on them when they panic, so the panic surfaces instead of
/// hanging the epoch.
struct Defer<F: FnMut()>(F);

impl<F: FnMut()> Drop for Defer<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// Outcome of [`AdaGp::train_epoch_pipelined`]: per-batch stats plus
/// per-stage busy/idle utilization counters.
#[derive(Debug, Clone)]
pub struct PipelinedEpochReport {
    /// Per-batch statistics in batch order. BP batches carry the predictor
    /// loss/MAPE computed by the (asynchronous) predictor stage.
    pub batches: Vec<BatchStats>,
    /// Busy/idle counters for the `datagen`, `train` and `predictor`
    /// stages.
    pub stages: Vec<StageReport>,
}

impl PipelinedEpochReport {
    /// Mean task loss across the epoch.
    pub fn mean_loss(&self) -> f32 {
        if self.batches.is_empty() {
            0.0
        } else {
            self.batches.iter().map(|b| b.loss).sum::<f32>() / self.batches.len() as f32
        }
    }
}

impl AdaGp {
    /// Trains one epoch with the batch pipeline of §3.4 realized at batch
    /// granularity: three stages — data generation, the model's
    /// forward/backward + optimizer work, and predictor training — run on
    /// separate threads joined by bounded queues ([`BoundedQueue`]).
    ///
    /// `gen(b)` must be a pure function of the batch index (the synthetic
    /// datasets in `adagp_nn::data` qualify), because it runs on the
    /// producer thread.
    ///
    /// **Determinism:** predictor updates are applied in batch order by a
    /// single worker, and every Phase-GP read of the predictor first drains
    /// the update queue (a [`WaitGroup`] flush barrier). The trained model,
    /// predictor, metrics and norm EMAs are therefore *bit-identical* to
    /// running [`AdaGp::train_batch`] serially over the same batches — the
    /// overlap buys wall-clock time, not different math. When the schedule's
    /// `mape_guard` is active (and metrics are tracked), the queue is also
    /// drained before each phase decision so the guard sees exactly the
    /// MAPEs the serial loop would.
    ///
    /// Call [`PhaseController::end_epoch`] afterwards, as with the serial
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth == 0`. A panic on any stage — `gen`, the
    /// model, the predictor — stops the other two and is re-raised here,
    /// as the serial loop would raise it.
    pub fn train_epoch_pipelined<G>(
        &mut self,
        model: &mut dyn Module,
        opt: &mut dyn Optimizer,
        batches: usize,
        queue_depth: usize,
        gen: G,
    ) -> PipelinedEpochReport
    where
        G: Fn(usize) -> (Tensor, Vec<usize>) + Sync,
    {
        assert!(queue_depth > 0, "queue_depth must be positive");
        let AdaGp {
            cfg,
            predictor,
            controller,
            metrics,
            sites: _,
            grad_norm_ema,
        } = self;
        let track = cfg.track_metrics;
        let calibrate = cfg.norm_calibration;
        // With the reactive guard on, phase decisions depend on the
        // predictor stage's MAPEs, so parity with the serial loop requires
        // draining the stage before every decision.
        let flush_every_batch = cfg.schedule.mape_guard.is_some() && track;

        let stats = PipelineStats::new(&["datagen", "train", "predictor"]);
        let batch_queue: BoundedQueue<(Tensor, Vec<usize>)> = BoundedQueue::new(queue_depth);
        let pred_queue: BoundedQueue<PredictorJob> = BoundedQueue::new(queue_depth);
        let pending = WaitGroup::new();
        let predictor_cell = Mutex::new(predictor);
        // (batch, mean predictor loss, mean MAPE) per BP batch, pushed by
        // the predictor stage as jobs complete — in batch order.
        let bp_outcomes: Mutex<Vec<(usize, f32, Option<f32>)>> = Mutex::new(Vec::new());
        let mut out: Vec<BatchStats> = Vec::with_capacity(batches);

        std::thread::scope(|s| {
            // Stage 0: batch generation. The stage threads are named so
            // their trace lanes are recognizable in a Perfetto dump.
            let datagen = std::thread::Builder::new()
                .name("adagp-datagen".into())
                .spawn_scoped(s, || {
                    let _close = Defer(|| batch_queue.close());
                    for b in 0..batches {
                        let batch = stats.stage(0).busy(|| gen(b));
                        if stats.stage(0).idle(|| batch_queue.push(batch)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn datagen stage");

            // Stage 2: predictor training (single worker => batch order).
            let predictor_stage = std::thread::Builder::new()
                .name("adagp-predictor".into())
                .spawn_scoped(s, || {
                    // However this stage ends, nobody may stay blocked on
                    // it: refuse further jobs and release the queued ones.
                    let _release = Defer(|| {
                        pred_queue.close();
                        while pred_queue.pop().is_some() {
                            pending.done();
                        }
                    });
                    while let Some(job) = stats.stage(2).idle(|| pred_queue.pop()) {
                        let _done = Defer(|| pending.done());
                        stats.stage(2).busy(|| {
                            let mut predictor = predictor_cell.lock().unwrap();
                            let (loss, mape) =
                                train_on_examples(&mut predictor, metrics, track, job.examples);
                            bp_outcomes.lock().unwrap().push((job.batch, loss, mape));
                        });
                    }
                })
                .expect("spawn predictor stage");

            // Stage 1: the training loop (this thread) — the serial step
            // with the predictor's training handed to stage 2.
            {
                // Leaving the loop — done, stopped early or unwinding —
                // closes both queues, so neither neighbour blocks on one.
                let _close = Defer(|| {
                    batch_queue.close();
                    pred_queue.close();
                });
                let stage = stats.stage(1);
                for b in 0..batches {
                    // `None`: the datagen stage panicked.
                    let Some((x, y)) = stage.idle(|| batch_queue.pop()) else {
                        break;
                    };
                    if flush_every_batch {
                        stage.idle(|| pending.wait());
                        report_latest_mape(controller, &bp_outcomes);
                    }
                    let phase = controller.next_phase();
                    let backprop = phase != Phase::GP;
                    let (loss, examples) = stage.busy(|| {
                        let loss = classify(model, &x, &y, backprop);
                        // Harvested on this thread, so the norm EMAs advance
                        // in batch order.
                        (loss, backprop.then(|| harvest_sites(model, grad_norm_ema)))
                    });
                    if let Some(examples) = examples {
                        pending.add(1);
                        // Blocking on a full predictor queue is waiting on
                        // stage 2, so it books as idle time — the measured
                        // stage occupancies must stay comparable to the
                        // sim's predicted utilizations.
                        let job = PredictorJob { batch: b, examples };
                        if stage.idle(|| pred_queue.push(job)).is_err() {
                            // Closed under us: the predictor stage panicked.
                            pending.done();
                            break;
                        }
                        stage.busy_more(|| opt.step(model));
                    } else {
                        // Flush barrier: every queued predictor update must
                        // land before the predictor is read. This is
                        // waiting on stage 2, so it books as idle time.
                        stage.idle(|| pending.wait());
                        // Poisoned: the predictor stage panicked mid-update.
                        let Ok(predictor) = predictor_cell.lock() else {
                            break;
                        };
                        stage.busy_more(|| {
                            install_predicted_gradients(
                                &predictor,
                                grad_norm_ema,
                                calibrate,
                                model,
                            );
                            opt.step(model);
                        });
                    }
                    // BP batches get their predictor loss/MAPE from stage 2
                    // below.
                    out.push(BatchStats {
                        phase,
                        loss,
                        predictor_loss: None,
                        mape: None,
                    });
                }
            }
            pending.wait();
            for stage in [datagen, predictor_stage] {
                if let Err(panic) = stage.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        report_latest_mape(controller, &bp_outcomes);
        for (b, loss, mape) in bp_outcomes.into_inner().unwrap() {
            out[b].predictor_loss = Some(loss);
            out[b].mape = mape;
        }
        PipelinedEpochReport {
            batches: out,
            stages: stats.reports(),
        }
    }
}

/// Feeds the controller the MAPE of the most recent completed BP batch —
/// the same "latest wins" semantics as the serial loop's `report_mape`.
fn report_latest_mape(
    controller: &mut PhaseController,
    outcomes: &Mutex<Vec<(usize, f32, Option<f32>)>>,
) {
    let latest = outcomes.lock().unwrap().iter().rev().find_map(|o| o.2);
    if let Some(mape) = latest {
        controller.report_mape(mape);
    }
}

/// Plain backpropagation baseline with the same reporting interface.
#[derive(Debug, Default)]
pub struct BaselineTrainer;

impl BaselineTrainer {
    /// Creates a baseline trainer.
    pub fn new() -> Self {
        BaselineTrainer
    }

    /// Trains one classification batch with standard backprop.
    pub fn train_batch(
        &mut self,
        model: &mut dyn Module,
        opt: &mut dyn Optimizer,
        x: &Tensor,
        targets: &[usize],
    ) -> BatchStats {
        let logits = model.forward(x, &mut ForwardCtx::train());
        let (loss, dlogits) = cross_entropy(&logits, targets);
        model.backward(&dlogits);
        opt.step(model);
        BatchStats {
            phase: Phase::BP,
            loss,
            predictor_loss: None,
            mape: None,
        }
    }
}

/// Evaluates top-1 accuracy of a classification model over test batches.
pub fn evaluate_accuracy(
    model: &mut dyn Module,
    batches: impl Iterator<Item = (Tensor, Vec<usize>)>,
) -> f32 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (x, targets) in batches {
        let logits = model.forward(&x, &mut ForwardCtx::eval());
        let c = logits.dim(1);
        for (i, &t) in targets.iter().enumerate() {
            let row = &logits.data()[i * c..(i + 1) * c];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .unwrap_or(0);
            if pred == t {
                correct += 1;
            }
            total += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * correct as f32 / total as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adagp_nn::containers::Sequential;
    use adagp_nn::layers::{BatchNorm2d, Conv2d, Flatten, Linear, Relu};
    use adagp_nn::module::PredictionSite;
    use adagp_nn::optim::Sgd;
    use adagp_nn::Param;
    use adagp_runtime::with_threads;
    use std::time::Duration;

    fn tiny_model(rng: &mut Prng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Conv2d::new(1, 4, 3, 1, 1, true, rng));
        m.push(Relu::new());
        m.push(Flatten::new());
        m.push(Linear::new(4 * 4 * 4, 3, true, rng));
        m
    }

    #[test]
    fn warmup_batches_report_warmup_phase() {
        let mut rng = Prng::seed_from_u64(0);
        let mut model = tiny_model(&mut rng);
        let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut model, &mut rng);
        let mut opt = Sgd::new(0.01, 0.9);
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let stats = adagp.train_batch(&mut model, &mut opt, &x, &[0, 1]);
        assert_eq!(stats.phase, Phase::WarmUp);
        assert!(stats.predictor_loss.is_some());
        assert!(stats.loss.is_finite());
    }

    #[test]
    fn gp_phase_skips_backward_but_updates_weights() {
        let mut rng = Prng::seed_from_u64(1);
        let mut model = tiny_model(&mut rng);
        let cfg = AdaGpConfig {
            schedule: ScheduleConfig {
                warmup_epochs: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
        let mut opt = Sgd::new(0.05, 0.0);
        let x = Tensor::ones(&[2, 1, 4, 4]);

        // Snapshot conv weights before the GP batch.
        let mut before = Vec::new();
        model.visit_sites(&mut |s| before.push(s.weight_param().value.clone()));

        let stats = adagp.train_batch(&mut model, &mut opt, &x, &[0, 1]);
        assert_eq!(stats.phase, Phase::GP);
        assert!(stats.predictor_loss.is_none());

        let mut after = Vec::new();
        model.visit_sites(&mut |s| after.push(s.weight_param().value.clone()));
        // Predicted gradients must have moved the weights.
        let moved = before
            .iter()
            .zip(after.iter())
            .any(|(b, a)| b.sub(a).norm() > 0.0);
        assert!(moved, "GP phase did not update any site weights");
    }

    #[test]
    fn schedule_is_followed_across_epochs() {
        let mut rng = Prng::seed_from_u64(2);
        let mut model = tiny_model(&mut rng);
        let cfg = AdaGpConfig {
            schedule: ScheduleConfig {
                warmup_epochs: 1,
                ..Default::default()
            },
            track_metrics: false,
            ..Default::default()
        };
        let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
        let mut opt = Sgd::new(0.01, 0.0);
        let x = Tensor::ones(&[2, 1, 4, 4]);
        // Epoch 0: warm-up.
        for _ in 0..5 {
            let s = adagp.train_batch(&mut model, &mut opt, &x, &[0, 1]);
            assert_eq!(s.phase, Phase::WarmUp);
        }
        adagp.controller_mut().end_epoch();
        // Epoch 1: 4:1 GP:BP.
        let phases: Vec<Phase> = (0..5)
            .map(|_| adagp.train_batch(&mut model, &mut opt, &x, &[0, 1]).phase)
            .collect();
        assert_eq!(
            phases,
            vec![Phase::GP, Phase::GP, Phase::GP, Phase::GP, Phase::BP]
        );
    }

    #[test]
    fn metrics_track_per_layer_mape() {
        let mut rng = Prng::seed_from_u64(3);
        let mut model = tiny_model(&mut rng);
        let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut model, &mut rng);
        let mut opt = Sgd::new(0.01, 0.0);
        let x = Tensor::ones(&[2, 1, 4, 4]);
        adagp.train_batch(&mut model, &mut opt, &x, &[0, 1]);
        assert_eq!(adagp.metrics().layers(), 2);
        assert!(adagp.metrics().layer_mean(0).is_some());
        assert!(adagp.metrics().layer_mean(1).is_some());
    }

    /// The metrics pass scores each site's prediction, before its step,
    /// against its whole gradient, also for a site that trains on a
    /// subsample of its rows (40 rows against `max_rows_per_batch` 16):
    /// bit for bit `predict_gradient` then `train_step`, site by site.
    #[test]
    fn tracked_metrics_read_a_subsampled_site_s_whole_gradient() {
        let cfg = PredictorConfig {
            max_rows_per_batch: 16,
            ..Default::default()
        };
        let mut rng = Prng::seed_from_u64(11);
        let sites: Vec<_> = [([40, 3, 1, 1], [2, 40, 5, 5]), ([8, 4, 3, 3], [2, 8, 6, 6])]
            .into_iter()
            .map(|(weight_shape, act_shape)| {
                let meta = SiteMeta {
                    kind: adagp_nn::SiteKind::Conv2d,
                    weight_shape: weight_shape.to_vec(),
                    label: "c".into(),
                };
                let act = adagp_tensor::init::gaussian(&act_shape, 0.0, 1.0, &mut rng);
                let grad = adagp_tensor::init::gaussian(&weight_shape, 0.0, 0.05, &mut rng);
                (meta, act, grad)
            })
            .collect();
        let metas: Vec<SiteMeta> = sites.iter().map(|(m, _, _)| m.clone()).collect();
        let predictor = || Predictor::for_sites(cfg, &metas, &mut Prng::seed_from_u64(5));
        let mut reference = predictor();
        let mut want = PredictorMetrics::new(sites.len());
        let mut losses = Vec::new();
        for (site_idx, (meta, act, grad)) in sites.iter().enumerate() {
            let predicted = reference.predict_gradient(meta, act);
            want.record(site_idx, gradient_errors(&predicted, grad, MAPE_EPS));
            losses.push(reference.train_step(meta, act, grad));
        }
        let examples = sites
            .into_iter()
            .enumerate()
            .map(|(site_idx, (meta, act, true_grad))| PredictorExample {
                site_idx,
                meta,
                act,
                true_grad,
            });
        let mut hoisted = predictor();
        let mut got = PredictorMetrics::new(metas.len());
        let (loss, mape) = train_on_examples(&mut hoisted, &mut got, true, examples.collect());
        assert!(reference.subsamples(&metas[0]) && !reference.subsamples(&metas[1]));
        for l in 0..metas.len() {
            assert_eq!(got.layer_mean(l), want.layer_mean(l), "site {l}");
        }
        let mapes = [0, 1].map(|l| want.layer_mean(l).expect("recorded").mape);
        assert_eq!(mape, Some((mapes[0] + mapes[1]) / 2.0));
        assert_eq!(loss, (losses[0] + losses[1]) / 2.0);
    }

    /// A model with a batch-norm, a depthwise conv and a `Linear` site
    /// behind the first conv: more site kinds and cached state than
    /// [`tiny_model`].
    fn mixed_model(rng: &mut Prng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Conv2d::new(1, 4, 3, 1, 1, true, rng));
        m.push(BatchNorm2d::new(4));
        m.push(Relu::new());
        m.push(Conv2d::depthwise(4, 3, 1, 1, rng));
        m.push(Relu::new());
        m.push(Flatten::new());
        m.push(Linear::new(4 * 4 * 4, 3, true, rng));
        m
    }

    /// Deterministic synthetic batches: a pure function of `b`.
    fn synthetic_batch(b: usize) -> (Tensor, Vec<usize>) {
        let mut rng = Prng::seed_from_u64(1000 + b as u64);
        let x = adagp_tensor::init::gaussian(&[2, 1, 4, 4], 0.0, 1.0, &mut rng);
        (x, vec![b % 3, (b + 1) % 3])
    }

    fn weights(model: &mut Sequential) -> Vec<Tensor> {
        let mut w = Vec::new();
        model.visit_params(&mut |p| w.push(p.value.clone()));
        w
    }

    /// Asserts two arms that must have done the same math did: model
    /// weights, norm EMAs, per-layer metrics and the predictor's state,
    /// bit for bit.
    fn assert_same_state(
        (a, model_a): (&mut AdaGp, &mut Sequential),
        (b, model_b): (&mut AdaGp, &mut Sequential),
    ) {
        assert_eq!(weights(model_a), weights(model_b), "model weights diverged");
        assert_eq!(a.grad_norm_ema, b.grad_norm_ema, "norm EMAs diverged");
        for l in 0..a.sites().len() {
            assert_eq!(
                a.metrics().layer_mean(l),
                b.metrics().layer_mean(l),
                "layer {l} metrics diverged"
            );
        }
        let meta = a.sites()[0].clone();
        let act = Tensor::ones(&[2, meta.out_channels(), 4, 4]);
        assert_eq!(
            a.predictor_mut().predict_gradient(&meta, &act),
            b.predictor_mut().predict_gradient(&meta, &act),
            "predictor state diverged"
        );
    }

    /// Runs `epochs` epochs of `batches` batches serially and pipelined
    /// from identical seeds and asserts the two arms end bit-identical.
    fn assert_pipeline_matches_serial_on(
        build: fn(&mut Prng) -> Sequential,
        cfg: AdaGpConfig,
        epochs: usize,
        batches: usize,
        depth: usize,
    ) {
        let mut rng = Prng::seed_from_u64(42);
        let mut m_serial = build(&mut rng);
        let mut adagp_serial = AdaGp::new(cfg, &mut m_serial, &mut rng);
        let mut opt_serial = Sgd::new(0.05, 0.9);

        // Pipelined arm (same seeds).
        let mut rng = Prng::seed_from_u64(42);
        let mut m_pipe = build(&mut rng);
        let mut adagp_pipe = AdaGp::new(cfg, &mut m_pipe, &mut rng);
        let mut opt_pipe = Sgd::new(0.05, 0.9);

        for epoch in 0..epochs {
            let serial_stats: Vec<BatchStats> = (0..batches)
                .map(|b| {
                    let (x, y) = synthetic_batch(b);
                    adagp_serial.train_batch(&mut m_serial, &mut opt_serial, &x, &y)
                })
                .collect();
            adagp_serial.controller_mut().end_epoch();
            let report = adagp_pipe.train_epoch_pipelined(
                &mut m_pipe,
                &mut opt_pipe,
                batches,
                depth,
                synthetic_batch,
            );
            adagp_pipe.controller_mut().end_epoch();

            // Phases, losses, predictor losses and MAPEs must match.
            assert_eq!(
                report.batches, serial_stats,
                "epoch {epoch} batch stats diverged"
            );
            // Stage accounting saw every batch.
            assert_eq!(report.stages[0].items as usize, batches);
            assert_eq!(report.stages[1].items as usize, batches);
        }
        assert_same_state(
            (&mut adagp_serial, &mut m_serial),
            (&mut adagp_pipe, &mut m_pipe),
        );
    }

    fn assert_pipeline_matches_serial(cfg: AdaGpConfig, batches: usize, depth: usize) {
        assert_pipeline_matches_serial_on(tiny_model, cfg, 1, batches, depth);
        // Two epochs, at most the first of them warm-up, on the
        // mixed-site model with metrics tracked.
        let cfg = AdaGpConfig {
            schedule: ScheduleConfig {
                warmup_epochs: cfg.schedule.warmup_epochs.min(1),
                ..cfg.schedule
            },
            track_metrics: true,
            ..cfg
        };
        assert_pipeline_matches_serial_on(mixed_model, cfg, 2, batches, depth);
    }

    #[test]
    fn pipelined_epoch_is_bit_identical_to_serial_warmup() {
        // All-BP (warm-up) epoch: maximum predictor-stage overlap.
        assert_pipeline_matches_serial(AdaGpConfig::default(), 10, 3);
    }

    #[test]
    fn pipelined_epoch_is_bit_identical_to_serial_gp_mix() {
        // GP-heavy schedule exercises the flush barrier.
        let cfg = AdaGpConfig {
            schedule: ScheduleConfig {
                warmup_epochs: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_pipeline_matches_serial(cfg, 12, 2);
    }

    #[test]
    fn pipelined_epoch_respects_mape_guard() {
        // With the reactive guard on, phase decisions depend on predictor
        // MAPEs; the pipeline must drain before each decision and still
        // match the serial loop exactly.
        let cfg = AdaGpConfig {
            schedule: ScheduleConfig {
                warmup_epochs: 0,
                mape_guard: Some(50.0),
                ..Default::default()
            },
            ..Default::default()
        };
        assert_pipeline_matches_serial(cfg, 8, 2);
    }

    #[test]
    fn pipelined_report_exposes_stage_utilization() {
        let mut rng = Prng::seed_from_u64(7);
        let mut model = tiny_model(&mut rng);
        let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut model, &mut rng);
        let mut opt = Sgd::new(0.01, 0.0);
        let report = adagp.train_epoch_pipelined(&mut model, &mut opt, 4, 2, |b| {
            (Tensor::ones(&[2, 1, 4, 4]), vec![b % 3, (b + 1) % 3])
        });
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.stages[2].name, "predictor");
        // 4 warm-up (BP) batches => 4 predictor jobs processed.
        assert_eq!(report.stages[2].items, 4);
        assert!(report.mean_loss().is_finite());
        assert!(report.stages[1].utilization() > 0.0);
    }

    /// `train_step` over the cross-entropy closure must equal, bit for
    /// bit, the batch re-issued from the public hooks in the order the
    /// benchmark's traced run issues them.
    #[test]
    fn train_step_matches_the_public_hook_sequence() {
        let cfg = AdaGpConfig {
            schedule: ScheduleConfig {
                warmup_epochs: 1,
                // Mid-range for this model, so the guard both vetoes and
                // allows GP batches and a missed `report_mape` shows.
                mape_guard: Some(300.0),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut rng = Prng::seed_from_u64(9);
        let mut m_step = mixed_model(&mut rng);
        let mut step = AdaGp::new(cfg, &mut m_step, &mut rng);
        let mut opt_step = Sgd::new(0.05, 0.9);
        let mut rng = Prng::seed_from_u64(9);
        let mut m_hooks = mixed_model(&mut rng);
        let mut hooks = AdaGp::new(cfg, &mut m_hooks, &mut rng);
        let mut opt_hooks = Sgd::new(0.05, 0.9);

        let mut phases = Vec::new();
        for epoch in 0..3 {
            for b in 0..6 {
                let (x, y) = synthetic_batch(b);
                let got = step.train_step(&mut m_step, &mut opt_step, |model, backprop| {
                    let logits = model.forward(&x, &mut ForwardCtx::train_recording());
                    let (loss, dlogits) = cross_entropy(&logits, &y);
                    if backprop {
                        model.backward(&dlogits);
                    }
                    loss
                });

                let peeked = hooks.controller_mut().peek();
                let phase = hooks.controller_mut().next_phase();
                assert_eq!(peeked, phase);
                let logits = m_hooks.forward(&x, &mut ForwardCtx::train_recording());
                let (loss, dlogits) = cross_entropy(&logits, &y);
                let (predictor_loss, mape) = if phase == Phase::GP {
                    hooks.apply_predicted_gradients(&mut m_hooks);
                    (None, None)
                } else {
                    m_hooks.backward(&dlogits);
                    let (pred_loss, mape) = hooks.train_predictor_from_sites(&mut m_hooks);
                    if let Some(m) = mape {
                        hooks.controller_mut().report_mape(m);
                    }
                    (Some(pred_loss), mape)
                };
                opt_hooks.step(&mut m_hooks);
                let want = BatchStats {
                    phase,
                    loss,
                    predictor_loss,
                    mape,
                };
                assert_eq!(got, want, "epoch {epoch} batch {b}");
                phases.push(phase);
            }
            step.controller_mut().end_epoch();
            hooks.controller_mut().end_epoch();
        }
        for phase in [Phase::WarmUp, Phase::BP, Phase::GP] {
            assert!(phases.contains(&phase), "mix never ran {phase:?}");
        }
        assert_same_state((&mut step, &mut m_step), (&mut hooks, &mut m_hooks));
    }

    /// Runs `f` on its own thread and returns the message it panicked
    /// with. A pipelined epoch that hangs on a stage panic (the behaviour
    /// before the unwind guards) trips the 10 s watchdog instead.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        let payload = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the epoch hung instead of panicking")
            .expect_err("the epoch returned instead of panicking");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| String::new(), |s| s.to_string()),
        }
    }

    #[test]
    fn pipelined_epoch_propagates_a_datagen_panic() {
        let message = panic_message(|| {
            let mut rng = Prng::seed_from_u64(7);
            let mut model = tiny_model(&mut rng);
            let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut model, &mut rng);
            let mut opt = Sgd::new(0.01, 0.0);
            adagp.train_epoch_pipelined(&mut model, &mut opt, 4, 2, |b| {
                assert_ne!(b, 1, "datagen failed at batch 1");
                synthetic_batch(b)
            });
        });
        assert!(message.contains("datagen failed at batch 1"), "{message}");
    }

    /// A conv whose recorded activation disagrees with its weight shape.
    struct BadSite(Conv2d);

    impl Module for BadSite {
        fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
            self.0.forward(x, ctx)
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            self.0.backward(dy)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.visit_params(f)
        }
        fn visit_sites(&mut self, f: &mut dyn FnMut(&mut dyn PredictionSite)) {
            f(self)
        }
    }

    impl PredictionSite for BadSite {
        fn meta(&self) -> SiteMeta {
            self.0.meta()
        }
        fn weight_param(&mut self) -> &mut Param {
            self.0.weight_param()
        }
        fn activation(&self) -> Option<&Tensor> {
            self.0.activation()
        }
        fn take_activation(&mut self) -> Option<Tensor> {
            let act = self.0.take_activation()?;
            let (b, c, h, w) = (act.dim(0), act.dim(1), act.dim(2), act.dim(3));
            Some(act.reshape(&[b, c / 2, 2 * h, w]))
        }
    }

    #[test]
    fn pipelined_epoch_propagates_a_predictor_stage_panic() {
        fn setup() -> (Sequential, AdaGp, Sgd) {
            let mut rng = Prng::seed_from_u64(7);
            let mut model = Sequential::new();
            model.push(BadSite(Conv2d::new(1, 4, 3, 1, 1, true, &mut rng)));
            model.push(Flatten::new());
            model.push(Linear::new(4 * 4 * 4, 3, true, &mut rng));
            let adagp = AdaGp::new(AdaGpConfig::default(), &mut model, &mut rng);
            (model, adagp, Sgd::new(0.01, 0.0))
        }
        let expected = "activation channels disagree with weight shape";
        // The serial step panics cleanly on the bad site ...
        let serial = panic_message(|| {
            let (mut model, mut adagp, mut opt) = setup();
            let (x, y) = synthetic_batch(0);
            adagp.train_batch(&mut model, &mut opt, &x, &y);
        });
        assert!(serial.contains(expected), "{serial}");
        // ... and so must the epoch whose predictor stage hits it, with
        // more batches queued behind the failing one than the queues hold.
        let piped = panic_message(|| {
            let (mut model, mut adagp, mut opt) = setup();
            adagp.train_epoch_pipelined(&mut model, &mut opt, 8, 2, synthetic_batch);
        });
        assert!(piped.contains(expected), "{piped}");
    }

    /// Six sites of uneven width — convs of 9, `9·c`, 9 (depthwise) and 48
    /// weights a row, then `Linear`s of 64 and 24 — on `(2, 1, 4, 4)` input.
    /// The second conv's 48 rows of `9·c` make the predictor's largest FC
    /// products.
    fn uneven_model(c: usize, rng: &mut Prng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Conv2d::new(1, c, 3, 1, 1, true, rng));
        m.push(Relu::new());
        m.push(Conv2d::new(c, 48, 3, 1, 1, false, rng));
        m.push(Relu::new());
        m.push(Conv2d::depthwise(48, 3, 1, 1, rng));
        m.push(Conv2d::new(48, 4, 1, 1, 0, true, rng));
        m.push(Relu::new());
        m.push(Flatten::new());
        m.push(Linear::new(4 * 4 * 4, 24, true, rng));
        m.push(Relu::new());
        m.push(Linear::new(24, 3, true, rng));
        m
    }

    /// Every site's weight gradient, as bits.
    fn site_grad_bits(model: &mut Sequential) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        model.visit_sites(&mut |s| {
            out.push(
                s.weight_param()
                    .grad
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
        });
        out
    }

    /// One warm-up batch (so every norm EMA is set), then a recording
    /// forward whose site `skip` loses its activation, then the install
    /// under `threads` pool threads; every weight gradient starts as noise.
    /// Returns the site gradients before and after the install.
    fn install_on(threads: usize, skip: usize) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        with_threads(threads, || {
            let mut rng = Prng::seed_from_u64(21);
            let mut model = uneven_model(6, &mut rng);
            let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut model, &mut rng);
            let (x, y) = synthetic_batch(0);
            let stats = adagp.train_batch(&mut model, &mut Sgd::new(0.05, 0.9), &x, &y);
            assert_eq!(stats.phase, Phase::WarmUp);
            assert!(adagp.grad_norm_ema.iter().all(Option::is_some));
            let (x, _) = synthetic_batch(1);
            model.forward(&x, &mut ForwardCtx::train_recording());
            let mut site = 0;
            model.visit_sites(&mut |s| {
                if site == skip {
                    s.take_activation().expect("recorded");
                }
                let shape = s.weight_param().grad.shape().to_vec();
                s.weight_param().grad = adagp_tensor::init::gaussian(&shape, 0.0, 1.0, &mut rng);
                site += 1;
            });
            let before = site_grad_bits(&mut model);
            adagp.apply_predicted_gradients(&mut model);
            (before, site_grad_bits(&mut model))
        })
    }

    #[test]
    fn predicted_gradients_are_thread_count_invariant() {
        // Some site's predictor FC (rows × features × row_len) reaches the
        // pool: the warm-up batch's training chain dispatches it at 2 and 3
        // threads (prediction runs it inline, inside its task).
        let cfg = PredictorConfig::default();
        let features = cfg.conv_channels * cfg.pooled_size * cfg.pooled_size;
        let metas = site_metas(&mut uneven_model(6, &mut Prng::seed_from_u64(0)));
        let fc_work = |m: &SiteMeta| m.out_channels() * features * m.grads_per_out_channel();
        assert!(metas.iter().any(|m| fc_work(m) >= par::PAR_MIN_WORK));
        let skip = 2;
        let (before, serial) = install_on(1, skip);
        assert_eq!(serial.len(), 6);
        for threads in [2, 3] {
            let (_, pooled) = install_on(threads, skip);
            assert!(serial == pooled, "{threads} threads moved a gradient bit");
        }
        for (site, (b, a)) in before.iter().zip(&serial).enumerate() {
            if site == skip {
                assert_eq!(a, b, "the site without an activation was touched");
            } else {
                assert_ne!(a, b, "site {site} got no prediction");
            }
        }
    }

    #[test]
    fn a_site_wider_than_the_head_fails_through_the_pool() {
        for threads in [1, 2, 3] {
            let message = panic_message(move || {
                with_threads(threads, || {
                    let mut rng = Prng::seed_from_u64(22);
                    // Head sized for rows of 64; the second conv of the
                    // wider model has rows of 9 · 8 = 72.
                    let mut narrow = uneven_model(6, &mut rng);
                    let mut adagp = AdaGp::new(AdaGpConfig::default(), &mut narrow, &mut rng);
                    let mut wide = uneven_model(8, &mut rng);
                    let (x, _) = synthetic_batch(0);
                    wide.forward(&x, &mut ForwardCtx::train_recording());
                    adagp.apply_predicted_gradients(&mut wide);
                });
            });
            assert!(
                message.contains("row_len 72 exceeds predictor capacity 64"),
                "{threads} threads: {message}"
            );
        }
    }

    #[test]
    fn baseline_trains() {
        let mut rng = Prng::seed_from_u64(4);
        let mut model = tiny_model(&mut rng);
        let mut baseline = BaselineTrainer::new();
        let mut opt = Sgd::new(0.01, 0.9);
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let s1 = baseline.train_batch(&mut model, &mut opt, &x, &[0, 1]);
        assert!(s1.loss.is_finite());
    }

    #[test]
    fn evaluate_accuracy_on_trivial_data() {
        let mut rng = Prng::seed_from_u64(5);
        let mut model = tiny_model(&mut rng);
        let x = Tensor::ones(&[4, 1, 4, 4]);
        let targets = vec![0usize, 0, 0, 0];
        let acc = evaluate_accuracy(&mut model, std::iter::once((x, targets)));
        assert!((0.0..=100.0).contains(&acc));
    }
}
