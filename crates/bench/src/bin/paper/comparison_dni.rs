//! Related-work comparison (§2): DNI-style synthetic gradients vs ADA-GP.
//!
//! DNI applies synthetic gradients but never skips backprop, so it cannot
//! speed up training; ADA-GP skips backprop on GP batches. This harness
//! trains both on the same task and prints accuracy plus the §3.7 step
//! costs.

use adagp_bench::accuracy::{quick_adagp_config, vgg13_quick_experiment, vgg13_quick_setup};
use adagp_bench::report::render_table;
use adagp_core::dni::DniTrainer;
use adagp_core::trainer::evaluate_accuracy;
use adagp_core::PredictorConfig;
use adagp_nn::optim::Sgd;
use adagp_sim::step_timeline;

pub fn run() {
    let (epochs, batches, batch) = (8, 16, 8);

    // DNI arm: a different algorithm, so its own loop.
    let (ds, mut dni_model, mut rng) = vgg13_quick_setup();
    let pred_cfg = PredictorConfig {
        lr: 1e-3,
        ..Default::default()
    };
    let mut dni = DniTrainer::new(pred_cfg, &mut dni_model, &mut rng);
    let mut opt = Sgd::new(0.01, 0.9);
    for _ in 0..epochs {
        for b in 0..batches {
            let (x, y) = ds.train_batch(b, batch);
            dni.train_batch(&mut dni_model, &mut opt, &x, &y);
        }
    }
    let dni_acc = evaluate_accuracy(&mut dni_model, (0..4).map(|b| ds.test_batch(b, batch)));

    // ADA-GP arm (same seeds).
    let adagp = vgg13_quick_experiment(quick_adagp_config(2), epochs);
    let gp_acc = adagp.accuracy;
    let (_, _, gp_batches) = adagp.phase_counts;

    // DNI's batch is the Phase-BP schedule: nothing skipped, predictor
    // work after every forward and backward.
    let steps = step_timeline(13, 0.1);
    let (dni_steps, adagp_gp_steps, baseline_steps) =
        (steps.phase_bp, steps.phase_gp, steps.baseline);
    let rows = vec![
        vec![
            "DNI-style".to_string(),
            format!("{dni_acc:.2}%"),
            "0".to_string(),
            format!("{dni_steps:.1} (>= baseline {baseline_steps:.0})"),
        ],
        vec![
            "ADA-GP".to_string(),
            format!("{gp_acc:.2}%"),
            gp_batches.to_string(),
            format!("{adagp_gp_steps:.1} per GP batch"),
        ],
    ];
    println!(
        "{}",
        render_table(
            "Related work: DNI-style synthetic gradients vs ADA-GP (VGG13, C10 stand-in)",
            &[
                "Scheme",
                "Accuracy",
                "Backward passes skipped",
                "Steps/batch (13-layer model)"
            ],
            &rows,
        )
    );
    println!("DNI never skips backprop (paper §2), so it cannot accelerate training;");
    println!("ADA-GP's speed-up comes from eliminating the BW pass on GP batches.");
}
