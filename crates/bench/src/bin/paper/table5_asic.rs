//! Table 5: ASIC area and power of the ADA-GP designs vs the baseline
//! (component model calibrated to the paper's Design Compiler numbers).

use adagp_accel::designs::AdaGpDesign;
use adagp_accel::synthesis::AsicModel;
use adagp_bench::outln;
use adagp_bench::report::render_table;

pub fn run() {
    let m = AsicModel::default();

    let mut rows = Vec::new();
    let fmt_area = |name: &str, a: adagp_accel::synthesis::AsicArea| {
        vec![
            name.to_string(),
            format!("{:.0}", a.combinational),
            format!("{:.0}", a.buf_inv),
            format!("{:.0}", a.interconnect),
            format!("{:.0}", a.total_cell),
            format!("{:.0}", a.total()),
        ]
    };
    rows.push(fmt_area("Baseline", m.baseline_area()));
    for d in AdaGpDesign::all() {
        rows.push(fmt_area(d.name(), m.design_area(d)));
    }
    outln!(
        "{}",
        render_table(
            "Table 5a: ASIC area (um^2)",
            &[
                "Design",
                "Combinational",
                "Buf/Inv",
                "Net Intercon.",
                "Total Cell",
                "Total"
            ],
            &rows,
        )
    );

    let mut prows = Vec::new();
    let fmt_power = |name: &str, p: adagp_accel::synthesis::AsicPower| {
        vec![
            name.to_string(),
            format!("{:.2e}", p.internal),
            format!("{:.2e}", p.switching),
            format!("{:.2e}", p.leakage),
            format!("{:.2e}", p.total()),
        ]
    };
    prows.push(fmt_power("Baseline", m.baseline_power()));
    for d in AdaGpDesign::all() {
        prows.push(fmt_power(d.name(), m.design_power(d)));
    }
    outln!(
        "{}",
        render_table(
            "Table 5b: ASIC power (uW)",
            &["Design", "Internal", "Switching", "Leakage", "Total"],
            &prows,
        )
    );
    for d in AdaGpDesign::all() {
        outln!(
            "{} area overhead: {:.1}%",
            d.name(),
            m.area_overhead_percent(d)
        );
    }
}
