//! Table 3: YOLO-v3-style detector on the PascalVOC stand-in — class
//! accuracy, test mAP and training cycles for BP vs ADA-GP
//! Efficient/MAX.

use adagp_accel::designs::AdaGpDesign;
use adagp_bench::detection::{run_detection_experiment, DetectionBudget};
use adagp_bench::model_grid::yolo_shapes;
use adagp_bench::outln;
use adagp_bench::report::render_table;
use adagp_bench::speedup_tables::cycle_pair;

pub fn run() {
    let budget = if adagp_bench::full_budget() {
        DetectionBudget::full()
    } else {
        DetectionBudget::quick()
    };
    let (bp, gp) = run_detection_experiment(&budget, 42);
    let shapes = yolo_shapes();
    let (base_cycles, eff_cycles) = cycle_pair(&shapes, AdaGpDesign::Efficient);
    let (_, max_cycles) = cycle_pair(&shapes, AdaGpDesign::Max);
    let rows = vec![
        vec![
            "Baseline(BP)".to_string(),
            format!("{:.2}", bp.class_acc),
            format!("{:.4}", bp.test_map),
            format!("{:.3e}", base_cycles),
        ],
        vec![
            "ADA-GP-Efficient".to_string(),
            format!("{:.2}", gp.class_acc),
            format!("{:.4}", gp.test_map),
            format!("{:.3e}", eff_cycles),
        ],
        vec![
            "ADA-GP-MAX".to_string(),
            format!("{:.2}", gp.class_acc),
            format!("{:.4}", gp.test_map),
            format!("{:.3e}", max_cycles),
        ],
    ];
    outln!(
        "{}",
        render_table(
            "Table 3: YOLO-v3-style detector on PascalVOC stand-in",
            &["Arm", "Class Acc", "Test MAP", "#Cycles"],
            &rows,
        )
    );
    outln!(
        "Cycle speed-ups: Efficient {:.2}x, MAX {:.2}x",
        base_cycles / eff_cycles,
        base_cycles / max_cycles
    );
}
