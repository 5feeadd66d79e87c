//! Ablation: phase-schedule ratios (§3.5's accuracy-vs-performance
//! trade-off).
//!
//! Sweeps fixed GP:BP ratios from all-BP to all-GP, reporting the final
//! accuracy (trained at CPU scale) and the analytic accelerator speed-up
//! each ratio would deliver. The paper's annealed schedule sits between
//! the extremes.

use adagp_accel::dataflow::{AcceleratorConfig, Dataflow};
use adagp_accel::designs::AdaGpDesign;
use adagp_accel::speedup::{adagp_training_cycles, baseline_training_cycles, EpochMix};
use adagp_bench::accuracy::{quick_adagp_config, vgg13_quick_experiment};
use adagp_bench::report::render_table;
use adagp_core::{AdaGpConfig, ScheduleConfig};
use adagp_nn::models::shapes::{model_shapes, InputScale};
use adagp_nn::models::CnnModel;

fn accuracy_with_ratio(ratio: (usize, usize), warmup: usize) -> f32 {
    // One fixed ratio in place of the annealed stages.
    let cfg = AdaGpConfig {
        schedule: ScheduleConfig {
            warmup_epochs: warmup,
            ratios: [ratio; 4],
            ..Default::default()
        },
        ..quick_adagp_config(warmup)
    };
    vgg13_quick_experiment(cfg, 6).accuracy
}

/// Analytic speed-up of a run whose post-warm-up epochs all use one ratio.
fn speedup_with_ratio(gp_fraction: f64) -> f64 {
    let cfg = AcceleratorConfig::default();
    let layers = model_shapes(CnnModel::Vgg13, InputScale::Cifar);
    // Build an epoch mix that spends everything at roughly this fraction.
    let mix = EpochMix {
        warmup: 10,
        stage_4_1: 0,
        stage_3_1: 0,
        stage_2_1: 0,
        stage_1_1: 80,
    };
    // stage_1_1 models 0.5; rescale the GP/BP blend manually instead:
    let base = baseline_training_cycles(&cfg, Dataflow::WeightStationary, &layers, &mix);
    let half = adagp_training_cycles(
        &cfg,
        Dataflow::WeightStationary,
        AdaGpDesign::Max,
        &layers,
        &mix,
    );
    // From the 0.5-mix totals, recover per-batch bp/gp costs and re-blend.
    let total_epochs = mix.total() as f64;
    let b_batch = base / total_epochs;
    // half = warmup * bp + 80 * (0.5 gp + 0.5 bp); bp ≈ b_batch (MAX).
    let gp_batch = ((half - 10.0 * b_batch) / 80.0 - 0.5 * b_batch) / 0.5;
    let blended = 10.0 * b_batch + 80.0 * (gp_fraction * gp_batch + (1.0 - gp_fraction) * b_batch);
    base / blended
}

pub fn run() {
    let ratios: [(&str, Option<(usize, usize)>, f64); 5] = [
        ("all-BP (baseline)", None, 0.0),
        ("1:1", Some((1, 1)), 0.5),
        ("2:1", Some((2, 1)), 2.0 / 3.0),
        ("4:1 (paper's initial)", Some((4, 1)), 0.8),
        ("all-GP", Some((usize::MAX, 0)), 1.0),
    ];
    let mut rows = Vec::new();
    for (name, ratio, frac) in ratios {
        let acc = match ratio {
            Some(r) => accuracy_with_ratio(r, 2),
            None => accuracy_with_ratio((0, 1), usize::MAX),
        };
        rows.push(vec![
            name.to_string(),
            format!("{acc:.2}%"),
            format!("{:.2}x", speedup_with_ratio(frac)),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Ablation: fixed GP:BP ratios — accuracy vs speed-up (VGG13)",
            &["Schedule", "Accuracy", "Analytic speed-up"],
            &rows,
        )
    );
    println!("The paper's annealed 4:1→1:1 schedule trades between these extremes (§3.5).");
}
