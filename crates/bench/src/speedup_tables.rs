//! Analytic speed-up/energy experiment logic (Figures 16–21, §6.6.1).
//!
//! Since the sweep engine landed, the fig17–19 artifacts are thin
//! *presets* over `adagp_sweep`: [`print_speedup_figure`] expands the
//! figure's grid, executes it in parallel on the shared runtime pool, and
//! pivots the cells back into the paper's per-dataset panels. The numbers
//! are identical to what the standalone per-figure loops produced — the
//! engine calls the same `adagp_accel` model functions on the same shared
//! shape tables (`adagp_sweep::shapes`), which the golden test in
//! `tests/sweep_golden.rs` pins down.

use crate::model_grid::vgg13_conv_shapes;
use crate::outln;
use adagp_accel::dataflow::{AcceleratorConfig, Dataflow};
use adagp_accel::designs::AdaGpDesign;
use adagp_accel::energy::{adagp_energy_joules, baseline_energy_joules, EnergyConfig};
use adagp_accel::layer_cost::{model_costs, PredictorCostModel};
use adagp_accel::speedup::{geomean, EpochMix, MODEL_BATCH};
use adagp_accel::timeline::{characterize_layers, LayerCharacterization};
use adagp_nn::models::shapes::{InputScale, LayerShape};
use adagp_nn::models::CnnModel;
use adagp_pipeline::{PipelineConfig, PipelineScheme};
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::{presets, runner, SweepRun};
use serde::{Deserialize, Serialize};

pub use crate::model_grid::{transformer_shapes, yolo_shapes};
pub use adagp_sweep::DatasetScale;

/// One row of a Figures 17–19 speed-up table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SpeedupRow {
    /// Model name.
    pub model: String,
    /// ADA-GP-LOW speed-up.
    pub low: f64,
    /// ADA-GP-Efficient speed-up.
    pub efficient: f64,
    /// ADA-GP-MAX speed-up.
    pub max: f64,
}

/// Pivots one dataset's cells of a figure run into the paper's table rows
/// (one row per model, designs as columns) and appends the geomean row.
fn rows_from_run(run: &SweepRun, dataset: DatasetScale) -> Vec<SpeedupRow> {
    let mut rows: Vec<SpeedupRow> = Vec::new();
    for cell in &run.cells {
        if cell.spec.dataset != dataset {
            continue;
        }
        if cell.spec.design == AdaGpDesign::Low {
            rows.push(SpeedupRow {
                model: cell.spec.model.name().to_string(),
                low: 0.0,
                efficient: 0.0,
                max: 0.0,
            });
        }
        let row = rows.last_mut().expect("LOW cell comes first per model");
        match cell.spec.design {
            AdaGpDesign::Low => row.low = cell.metrics.speedup,
            AdaGpDesign::Efficient => row.efficient = cell.metrics.speedup,
            AdaGpDesign::Max => row.max = cell.metrics.speedup,
        }
    }
    let g = |f: &dyn Fn(&SpeedupRow) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
    rows.push(SpeedupRow {
        model: "Geomean".to_string(),
        low: g(&|r| r.low),
        efficient: g(&|r| r.efficient),
        max: g(&|r| r.max),
    });
    rows
}

/// Figure 16: per-layer characterization of VGG13's ten conv layers under
/// ADA-GP-Efficient.
pub fn vgg13_characterization() -> Vec<LayerCharacterization> {
    let cfg = AcceleratorConfig::default();
    let layers = vgg13_conv_shapes();
    let costs = model_costs(
        &cfg,
        Dataflow::WeightStationary,
        &PredictorCostModel::default(),
        &layers,
        MODEL_BATCH,
    );
    let labels: Vec<String> = layers.iter().map(|l| l.label.clone()).collect();
    let mix = EpochMix::paper();
    // Average GP fraction over the post-warm-up epochs.
    let post_epochs: usize = mix.total() - mix.warmup;
    let gp_frac = mix
        .stages()
        .iter()
        .skip(1)
        .map(|&(g, e)| g * e as f64)
        .sum::<f64>()
        / post_epochs as f64;
    characterize_layers(
        &labels,
        &costs,
        AdaGpDesign::Efficient,
        mix.warmup as f64 / mix.total() as f64,
        gp_frac,
    )
}

/// Figure 20: per-model ADA-GP speed-up over each pipeline scheme, with
/// the predictor latency ratio α/FW taken from the cycle model.
pub fn pipeline_speedup_rows(scheme: PipelineScheme) -> Vec<(String, f64)> {
    let cfg = AcceleratorConfig::default();
    let pcfg = PipelineConfig::default();
    let mut rows: Vec<(String, f64)> = CnnModel::all()
        .iter()
        .map(|&m| {
            let layers = cached_shapes(m, InputScale::ImageNet);
            // Each device runs one micro-batch (mini-batch / devices) of a
            // quarter of the layers, so the predictor latency is weighed
            // against a per-device, per-micro-batch forward slice.
            let micro_batch = MODEL_BATCH / pcfg.devices;
            let costs = model_costs(
                &cfg,
                Dataflow::WeightStationary,
                &PredictorCostModel::default(),
                &layers,
                micro_batch,
            );
            let fw: u64 = costs.iter().map(|c| c.fw).sum();
            let alpha: u64 = costs.iter().map(|c| c.alpha).sum();
            let alpha_ratio = pcfg.devices as f64 * alpha as f64 / fw as f64;
            (
                m.name().to_string(),
                scheme.adagp_speedup(&pcfg, alpha_ratio),
            )
        })
        .collect();
    let g = geomean(&rows.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    rows.push(("Geomean".to_string(), g));
    rows
}

/// Figure 21: memory energy (J) for baseline / Efficient / MAX per model.
pub fn energy_rows() -> Vec<(String, f64, f64, f64)> {
    let cfg = EnergyConfig::default();
    let mix = EpochMix::paper();
    CnnModel::all()
        .iter()
        .map(|&m| {
            let layers = cached_shapes(m, InputScale::Cifar);
            (
                m.name().to_string(),
                baseline_energy_joules(&cfg, &layers, &mix),
                adagp_energy_joules(&cfg, &layers, &mix, AdaGpDesign::Efficient),
                adagp_energy_joules(&cfg, &layers, &mix, AdaGpDesign::Max),
            )
        })
        .collect()
}

/// Prints one of Figures 17–19: runs the figure's grid through the sweep
/// engine, then prints a speed-up table for every dataset panel.
pub fn print_speedup_figure(figure: &str, df: Dataflow) {
    use crate::report::{f2, render_table};
    let run = runner::run_grid(&presets::speedup_figure(df));
    for dataset in DatasetScale::all() {
        let rows: Vec<Vec<String>> = rows_from_run(&run, dataset)
            .iter()
            .map(|r| vec![r.model.clone(), f2(r.low), f2(r.efficient), f2(r.max)])
            .collect();
        outln!(
            "{}",
            render_table(
                &format!(
                    "{figure}: speed-up over baseline ({} dataflow), {} dataset",
                    df.name(),
                    dataset.name()
                ),
                &["Model", "ADA-GP-LOW", "ADA-GP-Efficient", "ADA-GP-MAX"],
                &rows,
            )
        );
    }
}

/// Training cycles (baseline, ADA-GP) for an arbitrary shape list under a
/// design and the paper's epoch mix — used for the cycle columns of
/// Tables 2–3.
pub fn cycle_pair(layers: &[LayerShape], design: AdaGpDesign) -> (f64, f64) {
    let cfg = AcceleratorConfig::default();
    let mix = EpochMix::paper();
    (
        adagp_accel::speedup::baseline_training_cycles(
            &cfg,
            Dataflow::WeightStationary,
            layers,
            &mix,
        ),
        adagp_accel::speedup::adagp_training_cycles(
            &cfg,
            Dataflow::WeightStationary,
            design,
            layers,
            &mix,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 17's panel for `dataset`, as [`print_speedup_figure`] pivots it.
    fn speedup_rows(df: Dataflow, dataset: DatasetScale) -> Vec<SpeedupRow> {
        rows_from_run(&runner::run_grid(&presets::speedup_figure(df)), dataset)
    }

    #[test]
    fn speedup_rows_cover_13_models_plus_geomean() {
        let rows = speedup_rows(Dataflow::WeightStationary, DatasetScale::Cifar10);
        assert_eq!(rows.len(), 14);
        assert_eq!(rows.last().unwrap().model, "Geomean");
        for r in &rows {
            assert!(r.max >= r.efficient && r.efficient >= r.low, "{}", r.model);
            assert!(r.max > 1.0 && r.max < 2.0, "{}: {}", r.model, r.max);
        }
    }

    #[test]
    fn imagenet_geomean_at_least_cifar() {
        // Figure 17: ImageNet average (1.48) ≥ CIFAR average (1.46).
        let c = speedup_rows(Dataflow::WeightStationary, DatasetScale::Cifar10);
        let i = speedup_rows(Dataflow::WeightStationary, DatasetScale::ImageNet);
        assert!(i.last().unwrap().max >= c.last().unwrap().max - 0.02);
    }

    #[test]
    fn characterization_has_ten_layers() {
        let ch = vgg13_characterization();
        assert_eq!(ch.len(), 10);
        assert!(ch.iter().all(|c| c.adagp_total() < c.baseline));
    }

    #[test]
    fn pipeline_rows_near_paper_averages() {
        let g = pipeline_speedup_rows(PipelineScheme::GPipe);
        let geo = g.last().unwrap().1;
        assert!((1.55..1.70).contains(&geo), "GPipe geomean {geo}");
        let c = pipeline_speedup_rows(PipelineScheme::Chimera);
        let geo_c = c.last().unwrap().1;
        assert!((1.48..1.62).contains(&geo_c), "Chimera geomean {geo_c}");
        assert!(geo > geo_c);
    }

    #[test]
    fn energy_rows_show_savings() {
        for (model, base, eff, max) in energy_rows() {
            assert!(eff < base, "{model}");
            assert!(max <= eff + 1e-9, "{model}");
        }
    }

    #[test]
    fn cycle_pair_shows_speedup() {
        let (b, a) = cycle_pair(&transformer_shapes(), AdaGpDesign::Efficient);
        assert!(b / a > 1.0 && b / a < 2.0);
    }

    #[test]
    fn speedup_row_serde_round_trips() {
        // The bench result struct survives JSON through the activated
        // vendored serde (ROADMAP "Real serde" step).
        let rows = speedup_rows(Dataflow::WeightStationary, DatasetScale::Cifar10);
        let js = serde::json::to_string(&rows);
        let back: Vec<SpeedupRow> = serde::json::from_str(&js).expect("rows round-trip");
        assert_eq!(back, rows);
        // Full precision: bit-exact floats after the round trip.
        assert_eq!(back[0].max.to_bits(), rows[0].max.to_bits());
    }
}
