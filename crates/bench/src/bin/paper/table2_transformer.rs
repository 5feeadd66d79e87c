//! Table 2: Transformer on the Multi30k stand-in — accuracy, loss, BLEU
//! and training cycles for BP vs ADA-GP.

use adagp_accel::designs::AdaGpDesign;
use adagp_bench::model_grid::transformer_shapes;
use adagp_bench::outln;
use adagp_bench::report::render_table;
use adagp_bench::speedup_tables::cycle_pair;
use adagp_bench::translation::{run_transformer_experiment, TransformerBudget};

pub fn run() {
    let budget = if adagp_bench::full_budget() {
        TransformerBudget::full()
    } else {
        TransformerBudget::quick()
    };
    let (bp, gp) = run_transformer_experiment(&budget, 42);
    let (base_cycles, adagp_cycles) = cycle_pair(&transformer_shapes(), AdaGpDesign::Efficient);
    let rows = vec![
        vec![
            "Baseline(BP)".to_string(),
            format!("{:.2}", bp.val_acc),
            format!("{:.2}", bp.loss),
            format!("{:.2}", bp.bleu),
            format!("{:.2e}", base_cycles),
        ],
        vec![
            "ADA-GP".to_string(),
            format!("{:.2}", gp.val_acc),
            format!("{:.2}", gp.loss),
            format!("{:.2}", gp.bleu),
            format!("{:.2e}", adagp_cycles),
        ],
    ];
    outln!(
        "{}",
        render_table(
            "Table 2: Transformer on Multi30k stand-in",
            &["Arm", "Val Acc.", "Loss", "BLEU", "#Cycles"],
            &rows,
        )
    );
    outln!("Cycle speed-up: {:.2}x", base_cycles / adagp_cycles);
}
