//! Ablation: phase-schedule ratios (§3.5's accuracy-vs-performance
//! trade-off).
//!
//! Sweeps fixed GP:BP ratios from all-BP to all-GP, reporting the final
//! accuracy (trained at CPU scale) and the analytic accelerator speed-up
//! each ratio would deliver. The paper's annealed schedule sits between
//! the extremes.

use adagp_accel::dataflow::{AcceleratorConfig, Dataflow};
use adagp_accel::designs::{self, AdaGpDesign};
use adagp_accel::layer_cost::{model_costs, PredictorCostModel};
use adagp_accel::speedup::MODEL_BATCH;
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

/// Analytic ADA-GP-MAX speed-up of a 90-epoch run: 10 warm-up epochs,
/// then 80 that all spend `gp_fraction` of their batches in Phase GP.
fn speedup_with_ratio(gp_fraction: f64) -> f64 {
    let layers = model_shapes(CnnModel::Vgg13, InputScale::Cifar);
    let costs = model_costs(
        &AcceleratorConfig::default(),
        Dataflow::WeightStationary,
        &PredictorCostModel::default(),
        &layers,
        MODEL_BATCH,
    );
    let baseline = designs::baseline_batch_cycles(&costs) as f64;
    let bp = designs::bp_batch_cycles(AdaGpDesign::Max, &costs) as f64;
    let gp = designs::gp_batch_cycles(AdaGpDesign::Max, &costs) as f64;
    let (warmup, rest) = (10.0, 80.0);
    let adagp = warmup * bp + rest * (gp_fraction * gp + (1.0 - gp_fraction) * bp);
    (warmup + rest) * baseline / adagp
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
