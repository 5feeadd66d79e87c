//! Table 4: FPGA resource usage and on-chip power of the ADA-GP designs
//! vs the baseline (component model calibrated to the paper's Virtex-7
//! numbers).

use adagp_accel::designs::AdaGpDesign;
use adagp_accel::synthesis::FpgaModel;
use adagp_bench::report::render_table;

pub fn run() {
    let m = FpgaModel::default();

    let mut rows = Vec::new();
    let b = m.baseline();
    rows.push(vec![
        "Baseline".to_string(),
        b.clb_luts.to_string(),
        b.clb_registers.to_string(),
        b.bram36.to_string(),
        b.bram18.to_string(),
        b.dsp48.to_string(),
    ]);
    for d in AdaGpDesign::all() {
        let r = m.design(d);
        rows.push(vec![
            d.name().to_string(),
            r.clb_luts.to_string(),
            r.clb_registers.to_string(),
            r.bram36.to_string(),
            r.bram18.to_string(),
            r.dsp48.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Table 4a: FPGA resource utilization",
            &["Design", "CLB LUTs", "CLB Regs", "RAMB36", "RAMB18", "DSP48E1"],
            &rows,
        )
    );

    let mut prows = Vec::new();
    let bp = m.baseline_power();
    let fmt_power = |name: &str, p: adagp_accel::synthesis::FpgaPower| {
        vec![
            name.to_string(),
            format!("{:.3}", p.clocks),
            format!("{:.3}", p.logic),
            format!("{:.3}", p.signals),
            format!("{:.3}", p.bram),
            format!("{:.3}", p.dsps),
            format!("{:.3}", p.static_power),
            format!("{:.3}", p.total()),
        ]
    };
    prows.push(fmt_power("Baseline", bp));
    for d in AdaGpDesign::all() {
        prows.push(fmt_power(d.name(), m.design_power(d)));
    }
    println!(
        "{}",
        render_table(
            "Table 4b: FPGA on-chip power (W)",
            &["Design", "Clocks", "Logic", "Signals", "BRAM", "DSPs", "Static", "Total"],
            &prows,
        )
    );
    for d in AdaGpDesign::all() {
        println!(
            "{} power overhead: {:.1}%",
            d.name(),
            m.power_overhead_percent(d)
        );
    }
}
