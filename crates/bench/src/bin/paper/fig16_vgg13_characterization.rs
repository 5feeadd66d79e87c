//! Figure 16: per-layer training-cycle characterization of VGG13 —
//! baseline vs ADA-GP-Efficient split into Warm-up / Phase-BP / Phase-GP.

use adagp_bench::report::render_table;
use adagp_bench::speedup_tables::vgg13_characterization;

pub fn run() {
    let chars = vgg13_characterization();
    let rows: Vec<Vec<String>> = chars
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                format!("{:.3e}", c.baseline),
                format!("{:.3e}", c.warmup),
                format!("{:.3e}", c.phase_bp),
                format!("{:.3e}", c.phase_gp),
                format!("{:.3e}", c.adagp_total()),
                format!("{:.2}x", c.baseline / c.adagp_total()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 16: VGG13 per-layer cycles (baseline vs ADA-GP-Efficient phases)",
            &[
                "Layer",
                "Baseline",
                "Warm-up",
                "Phase-BP",
                "Phase-GP",
                "ADA-GP total",
                "Ratio"
            ],
            &rows,
        )
    );
}
