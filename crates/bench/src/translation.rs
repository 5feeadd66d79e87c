//! Table 2 experiment: Transformer on the Multi30k stand-in, BP vs
//! ADA-GP.
//!
//! The transformer consumes token ids and has its own `backward(dlogits)`,
//! so the ADA-GP arm hands [`AdaGp::train_step`] a closure over
//! `forward_with_ctx` instead of going through the classification
//! wrapper `train_batch`; the phase machine is the same one.

use adagp_core::{AdaGp, AdaGpConfig, ScheduleConfig};
use adagp_nn::data::{TranslationDataset, BOS};
use adagp_nn::metrics::bleu;
use adagp_nn::models::{Transformer, TransformerConfig};
use adagp_nn::module::ForwardCtx;
use adagp_nn::optim::{Adam, Optimizer};
use adagp_tensor::softmax::cross_entropy;
use adagp_tensor::Prng;

/// Table 2 row: one training arm's final metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformerArm {
    /// Validation token accuracy, percent.
    pub val_acc: f32,
    /// Final validation cross-entropy loss.
    pub loss: f32,
    /// BLEU-4 score of greedy decodes.
    pub bleu: f32,
}

/// Budget for the transformer experiment.
#[derive(Debug, Clone, Copy)]
pub struct TransformerBudget {
    /// Training epochs.
    pub epochs: usize,
    /// Warm-up epochs for ADA-GP.
    pub warmup: usize,
    /// Batches per epoch.
    pub batches_per_epoch: usize,
    /// Sentence pairs per batch.
    pub batch: usize,
}

impl TransformerBudget {
    /// Quick harness budget.
    pub fn quick() -> Self {
        TransformerBudget {
            epochs: 6,
            warmup: 2,
            batches_per_epoch: 12,
            batch: 8,
        }
    }

    /// Full budget (`ADAGP_FULL=1`).
    pub fn full() -> Self {
        TransformerBudget {
            epochs: 16,
            warmup: 3,
            batches_per_epoch: 24,
            batch: 16,
        }
    }
}

fn teacher_inputs(tgt: &[Vec<usize>]) -> Vec<Vec<usize>> {
    tgt.iter()
        .map(|row| {
            let mut v = Vec::with_capacity(row.len());
            v.push(BOS);
            v.extend_from_slice(&row[..row.len() - 1]);
            v
        })
        .collect()
}

fn flat_targets(tgt: &[Vec<usize>]) -> Vec<usize> {
    tgt.iter().flat_map(|r| r.iter().copied()).collect()
}

fn evaluate(
    model: &mut Transformer,
    data: &TranslationDataset,
    batches: usize,
    batch: usize,
) -> TransformerArm {
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut loss_sum = 0.0f32;
    let mut hyps = Vec::new();
    let mut refs = Vec::new();
    for bi in 0..batches {
        let mut srcs = Vec::new();
        let mut tgts = Vec::new();
        for i in 0..batch {
            let (s, t) = data.test_pair(bi * batch + i);
            srcs.push(s);
            tgts.push(t);
        }
        let tgt_in = teacher_inputs(&tgts);
        let targets = flat_targets(&tgts);
        let logits = model.forward_with_ctx(&srcs, &tgt_in, &mut ForwardCtx::eval());
        let (loss, _) = cross_entropy(&logits, &targets);
        loss_sum += loss;
        let v = data.vocab();
        for (i, &t) in targets.iter().enumerate() {
            let row = &logits.data()[i * v..(i + 1) * v];
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
        // Greedy decodes for BLEU.
        let decoded = model.greedy_decode(&srcs, BOS, data.sentence_len());
        hyps.extend(decoded);
        refs.extend(tgts);
    }
    TransformerArm {
        val_acc: 100.0 * correct as f32 / total.max(1) as f32,
        loss: loss_sum / batches.max(1) as f32,
        bleu: bleu(&hyps, &refs),
    }
}

/// Runs both arms of the Table 2 experiment; returns `(bp, adagp)`.
pub fn run_transformer_experiment(
    budget: &TransformerBudget,
    seed: u64,
) -> (TransformerArm, TransformerArm) {
    let data = TranslationDataset::multi30k_like(seed);
    let cfg = TransformerConfig::paper_like(data.vocab());
    let eval_batches = 4;

    // --- BP arm.
    let mut rng = Prng::seed_from_u64(seed);
    let mut model = Transformer::new(cfg, &mut rng);
    let mut opt = Adam::new(2e-3);
    for _ in 0..budget.epochs {
        for b in 0..budget.batches_per_epoch {
            let (src, tgt) = data.train_batch(b, budget.batch);
            let tgt_in = teacher_inputs(&tgt);
            let targets = flat_targets(&tgt);
            let logits = model.forward_train(&src, &tgt_in);
            let (_, dl) = cross_entropy(&logits, &targets);
            model.backward(&dl);
            opt.step(&mut model);
        }
    }
    let bp = evaluate(&mut model, &data, eval_batches, budget.batch);

    // --- ADA-GP arm.
    let mut rng = Prng::seed_from_u64(seed);
    let mut model = Transformer::new(cfg, &mut rng);
    let mut adagp = AdaGp::new(adagp_config(budget), &mut model, &mut rng);
    let mut opt = Adam::new(2e-3);
    for _ in 0..budget.epochs {
        for b in 0..budget.batches_per_epoch {
            let (src, tgt) = data.train_batch(b, budget.batch);
            let tgt_in = teacher_inputs(&tgt);
            let targets = flat_targets(&tgt);
            adagp.train_step(&mut model, &mut opt, |model, backprop| {
                let logits =
                    model.forward_with_ctx(&src, &tgt_in, &mut ForwardCtx::train_recording());
                let (loss, dl) = cross_entropy(&logits, &targets);
                if backprop {
                    model.backward(&dl);
                }
                loss
            });
        }
        adagp.controller_mut().end_epoch();
    }
    let gp = evaluate(&mut model, &data, eval_batches, budget.batch);
    (bp, gp)
}

fn adagp_config(budget: &TransformerBudget) -> AdaGpConfig {
    AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: budget.warmup,
            epochs_per_stage: 1,
            ..Default::default()
        },
        track_metrics: false,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transformer_experiment_produces_finite_metrics() {
        let budget = TransformerBudget {
            epochs: 2,
            warmup: 1,
            batches_per_epoch: 4,
            batch: 4,
        };
        let (bp, gp) = run_transformer_experiment(&budget, 5);
        for arm in [bp, gp] {
            assert!(arm.val_acc.is_finite() && (0.0..=100.0).contains(&arm.val_acc));
            assert!(arm.loss.is_finite() && arm.loss > 0.0);
            assert!(arm.bleu.is_finite() && (0.0..=100.0).contains(&arm.bleu));
        }
        assert_eq!(gp, hook_reference_arm(&budget, 5));
    }

    /// The ADA-GP arm re-issued from `AdaGp`'s public hooks; `train_step`
    /// must produce the same model, bit for bit.
    fn hook_reference_arm(budget: &TransformerBudget, seed: u64) -> TransformerArm {
        use adagp_core::Phase;
        let data = TranslationDataset::multi30k_like(seed);
        let mut rng = Prng::seed_from_u64(seed);
        let mut model = Transformer::new(TransformerConfig::paper_like(data.vocab()), &mut rng);
        let mut adagp = AdaGp::new(adagp_config(budget), &mut model, &mut rng);
        let mut opt = Adam::new(2e-3);
        for _ in 0..budget.epochs {
            for b in 0..budget.batches_per_epoch {
                let (src, tgt) = data.train_batch(b, budget.batch);
                let tgt_in = teacher_inputs(&tgt);
                let phase = adagp.controller_mut().next_phase();
                let logits =
                    model.forward_with_ctx(&src, &tgt_in, &mut ForwardCtx::train_recording());
                if phase == Phase::GP {
                    adagp.apply_predicted_gradients(&mut model);
                } else {
                    let (_, dl) = cross_entropy(&logits, &flat_targets(&tgt));
                    model.backward(&dl);
                    adagp.train_predictor_from_sites(&mut model);
                }
                opt.step(&mut model);
            }
            adagp.controller_mut().end_epoch();
        }
        evaluate(&mut model, &data, 4, budget.batch)
    }

    #[test]
    fn teacher_inputs_shift_right() {
        let tgt = vec![vec![5, 6, 7]];
        let ti = teacher_inputs(&tgt);
        assert_eq!(ti[0], vec![BOS, 5, 6]);
    }
}
