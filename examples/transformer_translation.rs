//! Trains the 3+3-layer Transformer on the synthetic translation task
//! with ADA-GP (the Table 2 experiment in miniature), printing loss,
//! token accuracy and BLEU.
//!
//! ```sh
//! cargo run --release --example transformer_translation
//! ```

use ada_gp::adagp::{AdaGp, AdaGpConfig, Phase, ScheduleConfig};
use ada_gp::nn::data::{TranslationDataset, BOS};
use ada_gp::nn::metrics::bleu;
use ada_gp::nn::models::{Transformer, TransformerConfig};
use ada_gp::nn::module::ForwardCtx;
use ada_gp::nn::optim::Adam;
use ada_gp::tensor::softmax::cross_entropy;
use ada_gp::tensor::Prng;

fn main() {
    let data = TranslationDataset::multi30k_like(3);
    let mut rng = Prng::seed_from_u64(3);
    let mut model = Transformer::new(TransformerConfig::paper_like(data.vocab()), &mut rng);
    let mut cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: 2,
            epochs_per_stage: 1,
            ..Default::default()
        },
        track_metrics: false,
        ..Default::default()
    };
    cfg.predictor.lr = 1e-3;
    let mut adagp = AdaGp::new(cfg, &mut model, &mut rng);
    let mut opt = Adam::new(2e-3);

    let (epochs, batches, batch) = (5, 10, 8);
    for epoch in 0..epochs {
        let mut loss_sum = 0.0f32;
        let mut gp_count = 0;
        for b in 0..batches {
            let (src, tgt) = data.train_batch(b, batch);
            let tgt_in: Vec<Vec<usize>> = tgt
                .iter()
                .map(|row| {
                    let mut v = vec![BOS];
                    v.extend_from_slice(&row[..row.len() - 1]);
                    v
                })
                .collect();
            let targets: Vec<usize> = tgt.iter().flatten().copied().collect();
            // The step decides the phase; the closure is the task: forward,
            // loss and, outside Phase GP, the transformer's own backward.
            let stats = adagp.train_step(&mut model, &mut opt, |model, backprop| {
                let logits =
                    model.forward_with_ctx(&src, &tgt_in, &mut ForwardCtx::train_recording());
                let (loss, dl) = cross_entropy(&logits, &targets);
                if backprop {
                    model.backward(&dl);
                }
                loss
            });
            loss_sum += stats.loss;
            gp_count += usize::from(stats.phase == Phase::GP);
        }
        adagp.controller_mut().end_epoch();
        println!(
            "epoch {epoch}: mean loss {:.3} ({gp_count}/{batches} batches skipped backprop)",
            loss_sum / batches as f32
        );
    }

    // Greedy-decode a few test sentences and report BLEU.
    let mut hyps = Vec::new();
    let mut refs = Vec::new();
    for i in 0..16 {
        let (src, tgt) = data.test_pair(i);
        let out = model.greedy_decode(&[src], BOS, data.sentence_len());
        hyps.push(out.into_iter().next().expect("one decode"));
        refs.push(tgt);
    }
    println!("BLEU on 16 test sentences: {:.2}", bleu(&hyps, &refs));
}
