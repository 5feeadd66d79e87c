//! §6.6.1 iso-resource comparison: the baseline is granted the PE budget
//! that ADA-GP-MAX's extra hardware would buy (+10% PEs at iso-power on
//! FPGA, +11% at iso-area on ASIC). The paper reports the boosted
//! baseline gains only ≈4.3–5.5% — far less than ADA-GP-MAX's ≈1.47× —
//! so the prediction hardware is the better use of the budget.

use adagp_accel::dataflow::{AcceleratorConfig, Dataflow};
use adagp_accel::designs::AdaGpDesign;
use adagp_accel::speedup::{
    baseline_training_cycles, geomean, iso_resource_speedup, training_speedup, EpochMix,
};
use adagp_bench::report::{f3, render_table};
use adagp_bench::speedup_tables::DatasetScale;
use adagp_nn::models::shapes::model_shapes;
use adagp_nn::models::CnnModel;

pub fn run() {
    let cfg = AcceleratorConfig::default();
    let mix = EpochMix::paper();
    for (label, bonus) in [
        ("iso-power FPGA (+10% PEs)", 0.10),
        ("iso-area ASIC (+11% PEs)", 0.11),
    ] {
        let boosted = cfg.scaled_pes(1.0 + bonus);
        let mut rows = Vec::new();
        for dataset in DatasetScale::all() {
            let mut base_gain = Vec::new();
            let mut adagp_residual = Vec::new();
            for &m in CnnModel::all().iter() {
                let layers = model_shapes(m, dataset.input_scale());
                // How much the extra PEs alone buy the baseline.
                let plain =
                    baseline_training_cycles(&cfg, Dataflow::WeightStationary, &layers, &mix);
                let fast =
                    baseline_training_cycles(&boosted, Dataflow::WeightStationary, &layers, &mix);
                base_gain.push(plain / fast);
                // ADA-GP-MAX's advantage over that boosted baseline.
                adagp_residual.push(iso_resource_speedup(
                    &cfg,
                    Dataflow::WeightStationary,
                    &layers,
                    &mix,
                    bonus,
                ));
            }
            let adagp_max: Vec<f64> = CnnModel::all()
                .iter()
                .map(|&m| {
                    training_speedup(
                        &cfg,
                        Dataflow::WeightStationary,
                        AdaGpDesign::Max,
                        &model_shapes(m, dataset.input_scale()),
                        &mix,
                    )
                })
                .collect();
            rows.push(vec![
                dataset.name().to_string(),
                format!("{:+.2}%", 100.0 * (geomean(&base_gain) - 1.0)),
                f3(geomean(&adagp_max)),
                f3(geomean(&adagp_residual)),
            ]);
        }
        println!(
            "{}",
            render_table(
                &format!("Iso-resource comparison: {label}"),
                &[
                    "Dataset",
                    "Baseline gain from extra PEs",
                    "ADA-GP-MAX speed-up",
                    "ADA-GP-MAX vs boosted baseline",
                ],
                &rows,
            )
        );
    }
    println!("Paper: the iso-power/iso-area baselines gain only 4.31–5.53%, so");
    println!("ADA-GP-MAX remains the better use of the same hardware budget.");
    println!("(Our utilization model scales near-linearly with PEs, so the");
    println!("baseline gain here is an upper bound of ~10%.)");
}
