//! The two training workloads: three arms from identical seeds (serial
//! `AdaGp::train_batch`, `fit_adagp_pipelined`, `fit_baseline`), and in a
//! traced run the batch re-issued from its public pieces plus probes of
//! `tensor`, `nn` and `core` on the shapes the model uses.

use crate::alloc::counted;
use crate::probes::time_reps;
use crate::report::{Metric, Samples};
use crate::stats::{hi_percentile, median};
use crate::trace::Tracer;
use adagp_core::fit::{fit_adagp_pipelined, fit_baseline, FitOptions, FitReport};
use adagp_core::reorg::reorganize;
use adagp_core::trainer::evaluate_accuracy;
use adagp_core::{
    AdaGp, AdaGpConfig, BaselineTrainer, BatchStats, Phase, Predictor, PredictorConfig,
    ScheduleConfig,
};
use adagp_nn::containers::Sequential;
use adagp_nn::data::{DatasetSpec, VisionDataset};
use adagp_nn::models::{build_cnn, CnnModel, ModelConfig};
use adagp_nn::optim::{Optimizer, Sgd};
use adagp_nn::sched::ReduceLrOnPlateau;
use adagp_nn::{ForwardCtx, Module, SiteKind, SiteMeta};
use adagp_tensor::conv::{conv2d, conv2d_backward_data, conv2d_backward_weight, Conv2dParams};
use adagp_tensor::matmul::matmul_backward;
use adagp_tensor::norm::{batchnorm2d_backward, batchnorm2d_forward};
use adagp_tensor::softmax::cross_entropy;
use adagp_tensor::{init, Prng, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const BATCH: usize = 8;
const CLASSES: usize = 10;
const EVAL_BATCHES: usize = 4;
const BASELINE_EPOCHS: usize = 3;
/// Whole `fit_baseline` calls in an untraced run.
const BASELINE_FITS: usize = 3;
const QUEUE_DEPTH: usize = 3;
/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// One training workload: the model, its input and its run length.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Workload name.
    pub name: &'static str,
    model: CnnModel,
    width: f32,
    depth_div: usize,
    size: usize,
    epochs: usize,
    /// Batches per epoch of a run of `crate::REFERENCE_SECONDS`.
    batches_per_epoch: usize,
    /// The model puts a batch-norm after every conv site, so the `tensor`
    /// batch-norm probe runs on the conv output shapes.
    bn_after_conv: bool,
    /// `obs.enabled_overhead_frac` is defined on this workload's GP batch.
    obs_overhead: bool,
}

/// Large 3×3 convolutions: `tensor`'s conv kernels do most of the work.
pub const VGG: TrainSpec = TrainSpec {
    name: "train_vgg",
    model: CnnModel::Vgg13,
    width: 0.25,
    depth_div: 1,
    size: 32,
    epochs: 5,
    batches_per_epoch: 8,
    bn_after_conv: false,
    obs_overhead: false,
};

/// 35 sites of 1×1 and depthwise convs plus batch-norm: per-call overhead,
/// allocation and the per-site predictor loop dominate over FLOPs.
pub const MOBILENET: TrainSpec = TrainSpec {
    name: "train_mobilenet",
    model: CnnModel::MobileNetV2,
    width: 0.25,
    depth_div: 2,
    size: 16,
    epochs: 6,
    batches_per_epoch: 12,
    bn_after_conv: true,
    obs_overhead: true,
};

fn adagp_config() -> AdaGpConfig {
    AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 1,
            epochs_per_stage: 1,
            ..ScheduleConfig::default()
        },
        track_metrics: false,
        ..AdaGpConfig::default()
    }
}

fn sgd() -> Sgd {
    Sgd::new(0.01, 0.9)
}

impl TrainSpec {
    /// Batches per epoch for a run `scale` times the reference length; a
    /// traced run issues every arm twice (traced and untraced), so it
    /// takes half.
    fn batches(&self, scale: f64, trace: bool) -> usize {
        let b = self.batches_per_epoch as f64 * scale * if trace { 0.5 } else { 1.0 };
        (b.round() as usize).max(2)
    }

    fn options(&self, epochs: usize, batches: usize) -> FitOptions {
        FitOptions {
            epochs,
            batches_per_epoch: batches,
            batch_size: BATCH,
            eval_batches: EVAL_BATCHES,
            ..FitOptions::default()
        }
    }

    fn dataset(&self, seed: u64, batches: usize) -> VisionDataset {
        let spec = DatasetSpec {
            classes: CLASSES,
            channels: 3,
            size: self.size,
            train_len: batches * BATCH,
            test_len: EVAL_BATCHES * BATCH,
        };
        VisionDataset::new(spec, crate::mix_seed(seed, 1))
    }

    fn model(&self, seed: u64) -> Sequential {
        let cfg = ModelConfig {
            width: self.width,
            depth_div: self.depth_div,
            classes: CLASSES,
        };
        let mut rng = Prng::seed_from_u64(crate::mix_seed(seed, 2));
        build_cnn(self.model, &cfg, 3, self.size, &mut rng)
    }
}

/// The RNG `AdaGp::new` draws the predictor from; identical in every arm.
fn predictor_rng(seed: u64) -> Prng {
    Prng::seed_from_u64(crate::mix_seed(seed, 3))
}

/// Dataset and one model per arm, built from identical seeds, after one
/// untimed throwaway batch on a scratch model (pool spin-up, first-touch
/// pages).
struct Arms {
    data: VisionDataset,
    serial: Sequential,
    pipelined: Sequential,
    baseline: Sequential,
}

fn set_up(spec: &TrainSpec, seed: u64, batches: usize) -> Arms {
    let data = spec.dataset(seed, batches);
    let arms = Arms {
        serial: spec.model(seed),
        pipelined: spec.model(seed),
        baseline: spec.model(seed),
        data,
    };
    let mut scratch = spec.model(seed);
    let mut adagp = AdaGp::new(adagp_config(), &mut scratch, &mut predictor_rng(seed));
    let (x, y) = arms.data.train_batch(0, BATCH);
    black_box(adagp.train_batch(&mut scratch, &mut sgd(), &x, &y));
    arms
}

/// FNV-1a over the bit patterns of every parameter, in visiting order.
fn weight_checksum(model: &mut dyn Module) -> u64 {
    let mut bytes = Vec::new();
    model.visit_params(&mut |p| {
        bytes.extend(
            p.value
                .data()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes()),
        );
    });
    crate::fnv1a(bytes)
}

/// What one arm produced, for the bit-identity checks.
struct Outcome {
    report: FitReport,
    checksum: u64,
}

/// `fit_adagp`, re-issued one epoch at a time so each batch can be timed
/// and two arms can alternate epochs: the same calls in the same order,
/// with `batch` standing where `AdaGp::train_batch` is called.
struct SerialFit {
    adagp: AdaGp,
    opt: Sgd,
    sched: Option<ReduceLrOnPlateau>,
    epoch_losses: Vec<f32>,
    /// Seconds spent in the epoch loops so far (batch generation included,
    /// model construction and the final evaluation excluded).
    loop_s: f64,
}

impl SerialFit {
    fn new(model: &mut Sequential, options: &FitOptions, seed: u64) -> Self {
        SerialFit {
            adagp: AdaGp::new(adagp_config(), model, &mut predictor_rng(seed)),
            opt: sgd(),
            sched: options.plateau.map(|(f, p)| ReduceLrOnPlateau::new(f, p)),
            epoch_losses: Vec::with_capacity(options.epochs),
            loop_s: 0.0,
        }
    }

    fn epoch(
        &mut self,
        model: &mut Sequential,
        data: &VisionDataset,
        options: &FitOptions,
        mut batch: impl FnMut(&mut AdaGp, &mut Sequential, &mut Sgd, &Tensor, &[usize]) -> BatchStats,
        mut datagen_ms: impl FnMut(f64),
    ) {
        let t = Instant::now();
        let mut loss = 0.0f32;
        for b in 0..options.batches_per_epoch {
            let tg = Instant::now();
            let (x, y) = data.train_batch(b, options.batch_size);
            datagen_ms(tg.elapsed().as_secs_f64() * 1e3);
            loss += batch(&mut self.adagp, model, &mut self.opt, &x, &y).loss;
        }
        self.loop_s += t.elapsed().as_secs_f64();
        let mean = loss / options.batches_per_epoch.max(1) as f32;
        self.epoch_losses.push(mean);
        if let Some(s) = &mut self.sched {
            let lr = s.step(mean, self.opt.lr());
            self.opt.set_lr(lr);
        }
        self.adagp.controller_mut().end_epoch();
    }

    fn finish(
        mut self,
        model: &mut Sequential,
        data: &VisionDataset,
        options: &FitOptions,
    ) -> Outcome {
        let accuracy = evaluate_accuracy(
            model,
            (0..options.eval_batches).map(|b| data.test_batch(b, options.batch_size)),
        );
        Outcome {
            report: FitReport {
                accuracy,
                epoch_losses: self.epoch_losses,
                phase_counts: self.adagp.controller_mut().phase_counts(),
            },
            checksum: weight_checksum(model),
        }
    }
}

fn is_gp(phase: Phase) -> bool {
    phase == Phase::GP
}

/// Bit-level comparison of two arms that must have done the same math.
fn same_outcome(a: &Outcome, b: &Outcome) -> Result<(), String> {
    let bits = |r: &FitReport| {
        r.epoch_losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>()
    };
    if bits(&a.report) != bits(&b.report) {
        return Err(format!(
            "epoch losses differ: {:?} vs {:?}",
            a.report.epoch_losses, b.report.epoch_losses
        ));
    }
    if a.report.accuracy.to_bits() != b.report.accuracy.to_bits() {
        return Err(format!(
            "accuracy {} vs {}",
            a.report.accuracy, b.report.accuracy
        ));
    }
    if a.report.phase_counts != b.report.phase_counts {
        return Err(format!(
            "phase counts {:?} vs {:?}",
            a.report.phase_counts, b.report.phase_counts
        ));
    }
    if a.checksum != b.checksum {
        return Err(format!(
            "weight checksum {:#x} vs {:#x}",
            a.checksum, b.checksum
        ));
    }
    Ok(())
}

fn loss_fell(report: &FitReport) -> Result<(), String> {
    match (report.epoch_losses.first(), report.epoch_losses.last()) {
        (Some(first), Some(last)) if last < first => Ok(()),
        _ => Err(format!(
            "epoch losses did not fall: {:?}",
            report.epoch_losses
        )),
    }
}

/// The untraced run: the three arms, timed whole and per batch.
pub fn run(spec: &TrainSpec, seed: u64, scale: f64) -> Samples {
    let mut out = Samples::default();
    let batches = spec.batches(scale, false);
    let options = spec.options(spec.epochs, batches);

    let mut arms = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        arms = Some(set_up(spec, seed, batches));
        out.push("setup_s", t.elapsed().as_secs_f64());
    }
    let Arms {
        data,
        mut serial,
        mut pipelined,
        mut baseline,
    } = arms.expect("SETUP_REPS is positive");

    let mut fit = SerialFit::new(&mut serial, &options, seed);
    for _ in 0..options.epochs {
        fit.epoch(
            &mut serial,
            &data,
            &options,
            |adagp, model, opt, x, y| {
                let t = Instant::now();
                let stats = adagp.train_batch(model, opt, x, y);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                out.push(if is_gp(stats.phase) { "gp_ms" } else { "bp_ms" }, ms);
                stats
            },
            |_| {},
        );
    }
    let serial_out = fit.finish(&mut serial, &data, &options);
    out.attempt((options.epochs * batches) as u64);

    let samples = (options.epochs * batches * BATCH) as f64;
    let t = Instant::now();
    let report = fit_adagp_pipelined(
        &mut pipelined,
        &data,
        adagp_config(),
        &mut sgd(),
        &options,
        QUEUE_DEPTH,
        &mut predictor_rng(seed),
    );
    out.push(
        "pipelined_samples_per_s",
        samples / t.elapsed().as_secs_f64(),
    );
    out.attempt((options.epochs * batches) as u64);
    let pipelined_out = Outcome {
        report,
        checksum: weight_checksum(&mut pipelined),
    };

    // The baseline fit is the shortest arm, so it runs `BASELINE_FITS` times
    // from the same seeds (identical math) and the median is reported.
    let base_options = spec.options(BASELINE_EPOCHS, batches);
    let mut base_report = None;
    for fit in 0..BASELINE_FITS {
        if fit > 0 {
            baseline = spec.model(seed);
        }
        let t = Instant::now();
        let report = fit_baseline(&mut baseline, &data, &mut sgd(), &base_options);
        out.push(
            "baseline_samples_per_s",
            (BASELINE_EPOCHS * batches * BATCH) as f64 / t.elapsed().as_secs_f64(),
        );
        out.attempt((BASELINE_EPOCHS * batches) as u64);
        base_report = Some(report);
    }
    let base_report = base_report.expect("BASELINE_FITS is positive");

    out.check(
        "pipelined == serial",
        same_outcome(&pipelined_out, &serial_out),
    );
    out.check("adagp loss falls", loss_fell(&serial_out.report));
    out.check("baseline loss falls", loss_fell(&base_report));
    out
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    let (gp, bp) = (s.get("gp_ms"), s.get("bp_ms"));
    vec![
        Metric::new(
            "fast_ops_per_s",
            median(s.get("pipelined_samples_per_s")),
            s.get("pipelined_samples_per_s").len(),
            "train_samples_per_s: samples/s of the whole fit_adagp_pipelined call",
        ),
        Metric::new(
            "cold_ops_per_s",
            median(s.get("baseline_samples_per_s")),
            s.get("baseline_samples_per_s").len(),
            "baseline_samples_per_s: samples/s of a whole fit_baseline call, median of 3",
        ),
        Metric::new(
            "fast_op_ms_p50",
            median(gp),
            gp.len(),
            "gp_batch_ms_p50: serial train_batch, Phase-GP batches",
        ),
        Metric::new(
            "cold_op_ms_p50",
            median(bp),
            bp.len(),
            "bp_batch_ms_p50: serial train_batch, warm-up and Phase-BP batches",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// `AdaGp::train_batch` re-issued from its public pieces, with a span
/// around every call. Must stay call-for-call identical to the original;
/// the traced run checks that it is, bit for bit.
fn traced_batch(
    tr: &mut Tracer,
    out: &mut Samples,
    adagp: &mut AdaGp,
    model: &mut Sequential,
    opt: &mut Sgd,
    x: &Tensor,
    y: &[usize],
) -> BatchStats {
    // The batch span's name depends on the phase, which the first child
    // decides; the controller call is cheap enough to sit outside it.
    let phase = adagp.controller_mut().peek();
    let batch = tr.begin("core", if is_gp(phase) { "batch_gp" } else { "batch_bp" });
    let phase = tr.span("core", "next_phase", || adagp.controller_mut().next_phase());
    let (logits, allocs, bytes) = counted(|| {
        tr.span("nn", "forward", || {
            model.forward(x, &mut ForwardCtx::train_recording())
        })
    });
    out.push("fw_allocs", allocs as f64);
    out.push("fw_alloc_mb", bytes as f64 / (1 << 20) as f64);
    let (loss, dlogits) = tr.span("nn", "loss", || cross_entropy(&logits, y));
    let stats = if is_gp(phase) {
        tr.span("core", "apply_predicted", || {
            adagp.apply_predicted_gradients(model)
        });
        BatchStats {
            phase,
            loss,
            predictor_loss: None,
            mape: None,
        }
    } else {
        let (_, allocs, _) = counted(|| tr.span("nn", "backward", || model.backward(&dlogits)));
        out.push("bw_allocs", allocs as f64);
        let (pred_loss, mape) = tr.span("core", "predictor_train", || {
            adagp.train_predictor_from_sites(model)
        });
        if let Some(m) = mape {
            adagp.controller_mut().report_mape(m);
        }
        BatchStats {
            phase,
            loss,
            predictor_loss: Some(pred_loss),
            mape,
        }
    };
    tr.span("nn", "opt_step", || opt.step(model));
    tr.end(batch);
    stats
}

/// The traced run: the serial arm twice from identical seeds (untraced
/// `train_batch`, then the re-issued batch under spans), the pipelined and
/// baseline arms for the ratios, and the isolated probes.
pub fn run_traced(spec: &TrainSpec, seed: u64, scale: f64, out_dir: &Path) -> Samples {
    let mut out = Samples::default();
    crate::shared_probes(&mut out);
    let batches = spec.batches(scale, true);
    let options = spec.options(spec.epochs, batches);
    let Arms {
        data,
        serial: mut untraced,
        mut pipelined,
        mut baseline,
    } = set_up(spec, seed, batches);
    let mut traced = spec.model(seed);

    // The serial arm twice from identical seeds, alternating epochs so host
    // drift hits both alike: the real `train_batch` timed from outside
    // with allocations counted, then the same batches re-issued under
    // spans.
    let mut tr = Tracer::new(true);
    let (mut losses_a, mut losses_b) = (Vec::new(), Vec::new());
    let mut datagen = Vec::new();
    let mut op = 0u64;
    let mut fit_a = SerialFit::new(&mut untraced, &options, seed);
    let mut fit_b = SerialFit::new(&mut traced, &options, seed);
    for _ in 0..options.epochs {
        fit_a.epoch(
            &mut untraced,
            &data,
            &options,
            |adagp, model, opt, x, y| {
                let t = Instant::now();
                let (stats, allocs, _) = counted(|| adagp.train_batch(model, opt, x, y));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let (k_ms, k_allocs) = if is_gp(stats.phase) {
                    ("u_gp_ms", "gp_allocs")
                } else {
                    ("u_bp_ms", "bp_allocs")
                };
                out.push(k_ms, ms);
                out.push(k_allocs, allocs as f64);
                losses_a.push(stats.loss.to_bits());
                stats
            },
            |ms| datagen.push(ms),
        );
        fit_b.epoch(
            &mut traced,
            &data,
            &options,
            |adagp, model, opt, x, y| {
                tr.set_op(op);
                op += 1;
                let stats = traced_batch(&mut tr, &mut out, adagp, model, opt, x, y);
                losses_b.push(stats.loss.to_bits());
                stats
            },
            |_| {},
        );
    }
    let serial_loop_s = fit_a.loop_s;
    let untraced_out = fit_a.finish(&mut untraced, &data, &options);
    let traced_out = fit_b.finish(&mut traced, &data, &options);
    out.attempt(2 * (options.epochs * batches) as u64);
    out.check("traced batch == train_batch", {
        if losses_a != losses_b {
            Err("per-batch losses differ".to_string())
        } else {
            same_outcome(&traced_out, &untraced_out)
        }
    });

    // Arm 3: the pipelined epochs, called directly for the stage reports.
    let samples = (options.epochs * batches * BATCH) as f64;
    let (pipe_s, stage_util) = pipelined_epochs(&mut pipelined, &data, &options, seed);
    // Arm 4: plain backprop, per batch.
    let mut base_ms = Vec::new();
    let mut opt = sgd();
    let mut trainer = BaselineTrainer::new();
    let t = Instant::now();
    for _ in 0..BASELINE_EPOCHS {
        for b in 0..batches {
            let (x, y) = data.train_batch(b, BATCH);
            let tb = Instant::now();
            black_box(trainer.train_batch(&mut baseline, &mut opt, &x, &y));
            base_ms.push(tb.elapsed().as_secs_f64() * 1e3);
        }
    }
    let base_s = t.elapsed().as_secs_f64();
    out.attempt(((options.epochs + BASELINE_EPOCHS) * batches) as u64);

    let med = |out: &Samples, k: &str| median(out.get(k));
    let (u_gp, u_bp) = (med(&out, "u_gp_ms"), med(&out, "u_bp_ms"));
    let (t_gp, t_bp) = (
        median(&tr.durations_ms("batch_gp")),
        median(&tr.durations_ms("batch_bp")),
    );
    let (n_gp, n_bp) = (
        out.get("u_gp_ms").len() as f64,
        out.get("u_bp_ms").len() as f64,
    );
    let span = |name: &str| median(&tr.durations_ms(name));
    let (gp_p, gp_hi) = hi_percentile(out.get("u_gp_ms"));
    let (bp_p, bp_hi) = hi_percentile(out.get("u_bp_ms"));
    out.push("core.gp_batch_ms_hi", gp_hi);
    out.push("core.gp_batch_ms_hi.percentile", gp_p);
    out.push("core.bp_batch_ms_hi", bp_hi);
    out.push("core.bp_batch_ms_hi.percentile", bp_p);
    let scalars = [
        ("nn.forward_ms", span("forward")),
        ("nn.backward_ms", span("backward")),
        ("nn.opt_step_ms", span("opt_step")),
        ("nn.loss_ms", span("loss")),
        ("nn.datagen_ms", median(&datagen)),
        ("nn.allocs_per_forward", med(&out, "fw_allocs")),
        ("nn.allocs_per_backward", med(&out, "bw_allocs")),
        ("nn.alloc_mb_per_forward", med(&out, "fw_alloc_mb")),
        ("core.predictor_train_ms", span("predictor_train")),
        ("core.apply_predicted_ms", span("apply_predicted")),
        ("core.predictor_share_gp", span("apply_predicted") / t_gp),
        ("core.predictor_share_bp", span("predictor_train") / t_bp),
        ("core.gp_over_baseline_batch", u_gp / median(&base_ms)),
        (
            "core.adagp_vs_baseline",
            (samples / pipe_s) / ((BASELINE_EPOCHS * batches * BATCH) as f64 / base_s),
        ),
        ("core.pipe_gain", serial_loop_s / pipe_s),
        ("core.pipe_datagen_util", stage_util[0]),
        ("core.pipe_train_util", stage_util[1]),
        ("core.pipe_predictor_util", stage_util[2]),
        ("core.allocs_per_gp_batch", med(&out, "gp_allocs")),
        ("core.allocs_per_bp_batch", med(&out, "bp_allocs")),
        (
            "bench.trace_overhead_frac",
            (n_gp * t_gp + n_bp * t_bp) / (n_gp * u_gp + n_bp * u_bp) - 1.0,
        ),
    ];
    for (k, v) in scalars {
        out.push(k, v);
    }

    let kernels = probe_kernels(spec, seed, &data, &mut out);
    out.push(
        "nn.forward_self_ms_est",
        span("forward") - kernels.forward_ms,
    );
    out.push(
        "nn.backward_self_ms_est",
        span("backward") - kernels.backward_ms,
    );
    if spec.obs_overhead {
        let frac = obs_enabled_overhead(&mut untraced, &data, seed, batches);
        out.push("obs.enabled_overhead_frac", frac);
    }

    let path = out_dir.join(format!("{}.trace.json", spec.name));
    if let Err(e) = tr.write(&path, spec.name) {
        out.check("write trace", Err(format!("{}: {e}", path.display())));
    }
    out
}

/// `fit_adagp_pipelined`'s epoch loop with the stage reports kept: seconds
/// in the epochs and the busy share of the datagen, train and predictor
/// stages over all of them.
fn pipelined_epochs(
    model: &mut Sequential,
    data: &VisionDataset,
    options: &FitOptions,
    seed: u64,
) -> (f64, [f64; 3]) {
    let mut adagp = AdaGp::new(adagp_config(), model, &mut predictor_rng(seed));
    let mut opt = sgd();
    let mut sched = options.plateau.map(|(f, p)| ReduceLrOnPlateau::new(f, p));
    let mut busy = [0.0f64; 3];
    let mut total = [0.0f64; 3];
    let mut secs = 0.0;
    for _ in 0..options.epochs {
        let t = Instant::now();
        let report = adagp.train_epoch_pipelined(
            model,
            &mut opt,
            options.batches_per_epoch,
            QUEUE_DEPTH,
            |b| data.train_batch(b, options.batch_size),
        );
        secs += t.elapsed().as_secs_f64();
        for (i, stage) in report.stages.iter().enumerate().take(3) {
            busy[i] += stage.busy.as_secs_f64();
            total[i] += (stage.busy + stage.idle).as_secs_f64();
        }
        if let Some(s) = &mut sched {
            let lr = s.step(report.mean_loss(), opt.lr());
            opt.set_lr(lr);
        }
        adagp.controller_mut().end_epoch();
    }
    let util = [0, 1, 2].map(|i| {
        if total[i] > 0.0 {
            busy[i] / total[i]
        } else {
            0.0
        }
    });
    (secs, util)
}

/// GP batch median with `obs` recording on over the same with it off, minus
/// one: a fresh all-GP schedule on the already-trained model, in
/// alternating blocks so drift hits both sides alike.
fn obs_enabled_overhead(
    model: &mut Sequential,
    data: &VisionDataset,
    seed: u64,
    batches: usize,
) -> f64 {
    const BLOCKS: usize = 4;
    let block = batches.max(4);
    let cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 0,
            ratios: [(block, 0); 4],
            ..ScheduleConfig::default()
        },
        ..adagp_config()
    };
    let mut adagp = AdaGp::new(cfg, model, &mut predictor_rng(seed));
    let mut opt = sgd();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for blk in 0..2 * BLOCKS {
        let enabled = blk % 2 == 1;
        adagp_obs::set_enabled(enabled);
        for b in 0..block {
            let (x, y) = data.train_batch(b % batches, BATCH);
            let t = Instant::now();
            let stats = adagp.train_batch(model, &mut opt, &x, &y);
            assert!(
                is_gp(stats.phase),
                "the all-GP schedule issued a {:?} batch",
                stats.phase
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if enabled { &mut on } else { &mut off }.push(ms);
        }
        adagp.controller_mut().end_epoch();
    }
    adagp_obs::set_enabled(false);
    adagp_obs::reset();
    median(&on) / median(&off) - 1.0
}

/// A conv site's geometry: what `tensor` sees when the layer runs.
struct ConvGeom {
    /// Kernel calls per batch (the channel count for a depthwise site,
    /// which `nn` lowers to one single-channel conv per channel).
    calls: usize,
    in_shape: [usize; 4],
    weight_shape: [usize; 4],
    out_shape: [usize; 4],
    params: Conv2dParams,
}

impl ConvGeom {
    fn flops(&self) -> f64 {
        let [n, co, ho, wo] = self.out_shape;
        let [_, ci, kh, kw] = self.weight_shape;
        (2 * self.calls * n * co * ho * wo * ci * kh * kw) as f64
    }

    fn elems(&self) -> f64 {
        let len = |s: [usize; 4]| s.iter().product::<usize>();
        (self.calls * (len(self.in_shape) + len(self.weight_shape) + len(self.out_shape))) as f64
    }
}

/// Recovers a conv site's input size, stride and padding from its weight
/// shape, its recorded activation and the previous site's activation. Holds
/// for the two models benchmarked: every conv pads `k / 2`; dense convs are
/// stride 1 (spatial size only shrinks in the pools between them), and only
/// depthwise convs (one input channel per filter, which no dense conv has
/// on 3-channel images) stride. The conv probe asserts the output shape it
/// gets equals the recorded one, so a model that breaks this fails loudly.
fn conv_geometry(weight: &[usize], act: &[usize], prev_hw: usize) -> ConvGeom {
    let (co, ci, k) = (weight[0], weight[1], weight[2]);
    let (n, ho) = (act[0], act[2]);
    let depthwise = ci == 1;
    let in_hw = if depthwise { prev_hw } else { ho };
    let params = Conv2dParams::new((in_hw / ho).max(1), k / 2);
    let (calls, ch) = if depthwise { (co, 1) } else { (1, co) };
    ConvGeom {
        calls,
        in_shape: [n, ci, in_hw, in_hw],
        weight_shape: [ch, ci, k, k],
        out_shape: [n, ch, ho, ho],
        params,
    }
}

/// Kernel time replayed for one forward and one backward pass, for the
/// `nn` self-time estimates.
struct KernelTime {
    forward_ms: f64,
    backward_ms: f64,
}

const PROBE_REPS: usize = 3;

fn probe_ms(f: impl FnMut()) -> f64 {
    median(&time_reps(PROBE_REPS, f)) * 1e3
}

/// Isolated probes of `tensor` and `core` on the shapes the model uses:
/// site weight shapes and recorded activations after one recording
/// forward and one backward.
fn probe_kernels(
    spec: &TrainSpec,
    seed: u64,
    data: &VisionDataset,
    out: &mut Samples,
) -> KernelTime {
    let mut model = spec.model(seed);
    let (x, y) = data.train_batch(0, BATCH);
    let logits = model.forward(&x, &mut ForwardCtx::train_recording());
    let (_, dlogits) = cross_entropy(&logits, &y);
    model.backward(&dlogits);
    let mut sites: Vec<(SiteMeta, Tensor, Tensor)> = Vec::new();
    model.visit_sites(&mut |site| {
        let act = site.activation().expect("recording forward ran").clone();
        sites.push((site.meta(), act, site.weight_param().grad.clone()));
    });
    let metas: Vec<SiteMeta> = sites.iter().map(|s| s.0.clone()).collect();
    let mut rng = Prng::seed_from_u64(crate::mix_seed(seed, 4));
    let mut predictor = Predictor::for_sites(PredictorConfig::default(), &metas, &mut rng);
    let pcfg = PredictorConfig::default();
    let pred_feat = pcfg.conv_channels * pcfg.pooled_size * pcfg.pooled_size;
    let max_row = predictor.max_row_len();

    let mut gauss = |shape: &[usize]| init::gaussian(shape, 0.0, 1.0, &mut rng);
    // ms and flops per kernel family, summed over sites.
    let (mut fw, mut bwd, mut bww) = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0));
    let (mut mm, mut mm_nt) = ((0.0, 0.0), (0.0, 0.0));
    let (mut lin_fw_ms, mut lin_bw_ms, mut lin_flops) = (0.0, 0.0, 0.0);
    let (mut bn_fw_ms, mut bn_bw_ms, mut bn_bytes) = (0.0, 0.0, 0.0);
    let mut elems = 0.0;
    let mut prev_hw = spec.size;
    for (meta, act, _) in &sites {
        match meta.kind {
            SiteKind::Conv2d => {
                let g = conv_geometry(&meta.weight_shape, act.shape(), prev_hw);
                prev_hw = act.dim(2);
                let (xi, w, dy) = (
                    gauss(&g.in_shape),
                    gauss(&g.weight_shape),
                    gauss(&g.out_shape),
                );
                let [_, _, kh, kw] = g.weight_shape;
                let (h, wd) = (g.in_shape[2], g.in_shape[3]);
                assert_eq!(
                    conv2d(&xi, &w, None, &g.params).shape(),
                    &g.out_shape,
                    "site {}: inferred conv geometry does not reproduce the recorded activation",
                    meta.label
                );
                let flops = g.flops();
                fw.0 += probe_ms(|| {
                    for _ in 0..g.calls {
                        black_box(conv2d(black_box(&xi), &w, None, &g.params));
                    }
                });
                bwd.0 += probe_ms(|| {
                    for _ in 0..g.calls {
                        black_box(conv2d_backward_data(black_box(&dy), &w, h, wd, &g.params));
                    }
                });
                bww.0 += probe_ms(|| {
                    for _ in 0..g.calls {
                        black_box(conv2d_backward_weight(
                            black_box(&xi),
                            &dy,
                            kh,
                            kw,
                            &g.params,
                        ));
                    }
                });
                fw.1 += flops;
                bwd.1 += flops;
                bww.1 += flops;
                elems += 3.0 * g.elems();
                if spec.bn_after_conv {
                    let c = act.dim(1);
                    let (xa, dya) = (gauss(act.shape()), gauss(act.shape()));
                    let (gamma, beta) = (Tensor::ones(&[c]), Tensor::zeros(&[c]));
                    let (_, cache, _, _) = batchnorm2d_forward(&xa, &gamma, &beta, 1e-5);
                    bn_fw_ms += probe_ms(|| {
                        black_box(batchnorm2d_forward(black_box(&xa), &gamma, &beta, 1e-5));
                    });
                    bn_bw_ms += probe_ms(|| {
                        black_box(batchnorm2d_backward(black_box(&dya), &cache, &gamma));
                    });
                    bn_bytes += (2 * 4 * act.len()) as f64;
                    elems += 5.0 * act.len() as f64;
                }
            }
            SiteKind::Linear => {
                let (o, i) = (meta.weight_shape[0], meta.weight_shape[1]);
                let n = act.dim(0);
                let (xi, w, dy) = (gauss(&[n, i]), gauss(&[o, i]), gauss(&[n, o]));
                let w_t = w.transpose2();
                let flops = (2 * n * i * o) as f64;
                let ms = probe_ms(|| drop(black_box(black_box(&xi).matmul_nt(&w))));
                lin_fw_ms += ms;
                lin_flops += flops;
                mm_nt.0 += ms;
                mm_nt.1 += flops;
                mm.0 += probe_ms(|| drop(black_box(black_box(&xi).matmul(&w_t))));
                mm.1 += flops;
                lin_bw_ms +=
                    probe_ms(|| drop(black_box(matmul_backward(black_box(&xi), &w_t, &dy))));
                elems += 3.0 * (n * i + o * i + n * o) as f64;
            }
        }
        // The predictor's FC on this site: rows × features · (max_row × features)ᵀ.
        let rows = meta.out_channels().min(pcfg.max_rows_per_batch);
        let (a, b) = (gauss(&[rows, pred_feat]), gauss(&[max_row, pred_feat]));
        let b_t = b.transpose2();
        let flops = (2 * rows * pred_feat * max_row) as f64;
        mm_nt.0 += probe_ms(|| drop(black_box(black_box(&a).matmul_nt(&b))));
        mm_nt.1 += flops;
        mm.0 += probe_ms(|| drop(black_box(black_box(&a).matmul(&b_t))));
        mm.1 += flops;
    }

    let (mut predict_s, mut train_s, mut reorg_s, mut rows) = (0.0, 0.0, 0.0, 0usize);
    for (meta, act, grad) in &sites {
        predict_s += median(&time_reps(PROBE_REPS, || {
            black_box(predictor.predict_gradient(meta, black_box(act)));
        }));
        train_s += median(&time_reps(PROBE_REPS, || {
            black_box(predictor.train_step(meta, black_box(act), grad));
        }));
        reorg_s += median(&time_reps(PROBE_REPS, || {
            black_box(reorganize(meta, black_box(act)));
        }));
        rows += meta.out_channels();
    }
    let n_sites = sites.len() as f64;

    let host_gflops = median(out.get("host.fma_gflops"));
    let gflops = |(ms, flops): (f64, f64)| if ms > 0.0 { flops / ms / 1e6 } else { 0.0 };
    let scalars = [
        ("tensor.conv_fw_ms", fw.0),
        ("tensor.conv_bw_data_ms", bwd.0),
        ("tensor.conv_bw_weight_ms", bww.0),
        ("tensor.conv_fw_gflops", gflops(fw)),
        ("tensor.conv_bw_data_gflops", gflops(bwd)),
        ("tensor.conv_bw_weight_gflops", gflops(bww)),
        ("tensor.matmul_gflops", gflops(mm)),
        ("tensor.matmul_nt_gflops", gflops(mm_nt)),
        (
            "tensor.batchnorm_gb_per_s",
            if bn_fw_ms > 0.0 {
                bn_bytes / bn_fw_ms / 1e6
            } else {
                0.0
            },
        ),
        ("tensor.conv_fw_peak_frac", gflops(fw) / host_gflops),
        ("tensor.conv_bw_weight_peak_frac", gflops(bww) / host_gflops),
        (
            "tensor.flops_per_batch",
            fw.1 + bwd.1 + bww.1 + 3.0 * lin_flops,
        ),
        ("tensor.bytes_per_batch", 4.0 * elems),
        ("core.predict_site_us", predict_s / n_sites * 1e6),
        ("core.train_site_us", train_s / n_sites * 1e6),
        ("core.reorg_us", reorg_s / n_sites * 1e6),
        ("core.predictor_rows_per_s", rows as f64 / predict_s),
    ];
    for (k, v) in scalars {
        out.push(k, v);
    }
    KernelTime {
        forward_ms: fw.0 + lin_fw_ms + bn_fw_ms,
        backward_ms: bwd.0 + bww.0 + lin_bw_ms + bn_bw_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_geometry_of_dense_pooled_and_strided_depthwise_sites() {
        // VGG: 3×3 conv after a 2×2 pool — stride 1, input = output size.
        let g = conv_geometry(&[32, 16, 3, 3], &[8, 32, 16, 16], 32);
        assert_eq!((g.calls, g.params), (1, Conv2dParams::new(1, 1)));
        assert_eq!(g.in_shape, [8, 16, 16, 16]);
        assert_eq!(g.flops(), (2 * 8 * 32 * 16 * 16 * 16 * 9) as f64);
        // MobileNet: stride-2 depthwise 3×3 — one single-channel call per
        // channel.
        let g = conv_geometry(&[48, 1, 3, 3], &[8, 48, 8, 8], 16);
        assert_eq!((g.calls, g.params), (48, Conv2dParams::new(2, 1)));
        assert_eq!((g.in_shape, g.out_shape), ([8, 1, 16, 16], [8, 1, 8, 8]));
        assert_eq!(g.params.out_size(16, 3), 8);
        // 1×1 projection: no padding.
        let g = conv_geometry(&[8, 48, 1, 1], &[8, 8, 8, 8], 8);
        assert_eq!(g.params, Conv2dParams::new(1, 0));
    }

    #[test]
    fn run_length_scales_counts_not_shapes() {
        assert_eq!(VGG.batches(1.0, false), 8);
        assert_eq!(VGG.batches(1.0, true), 4);
        assert_eq!(MOBILENET.batches(0.125, false), 2);
        assert_eq!(MOBILENET.batches(2.0, false), 24);
    }
}
