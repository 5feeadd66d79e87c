//! Figure 21: off-chip memory energy — baseline vs ADA-GP-Efficient vs
//! ADA-GP-MAX, plus the average saving.

use adagp_bench::report::render_table;
use adagp_bench::speedup_tables::energy_rows;

pub fn run() {
    let rows = energy_rows();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(m, b, e, x)| {
            vec![
                m.clone(),
                format!("{b:.3e}"),
                format!("{e:.3e}"),
                format!("{x:.3e}"),
                format!("{:.1}%", 100.0 * (1.0 - e / b)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 21: training memory energy (J)",
            &[
                "Model",
                "Baseline-WS",
                "ADA-GP-Efficient",
                "ADA-GP-MAX",
                "Saving"
            ],
            &table,
        )
    );
    let mean_saving: f64 = rows
        .iter()
        .map(|(_, b, e, _)| 100.0 * (1.0 - e / b))
        .sum::<f64>()
        / rows.len() as f64;
    println!("Average energy saving: {mean_saving:.1}% (paper: 34%)");
}
