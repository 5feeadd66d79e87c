//! Named grids: the sweeps the paper's figures are points on, plus a tiny
//! smoke grid for tests.

use crate::grid::{DatasetScale, GridSpec, PhaseSchedule};
use adagp_accel::{AdaGpDesign, Dataflow};
use adagp_nn::models::CnnModel;

/// The speed-up figure grid for one baseline dataflow: all 13 models ×
/// 3 datasets × 3 designs under the paper schedule (one of Figs 17–19).
pub fn speedup_figure(df: Dataflow) -> GridSpec {
    GridSpec {
        name: match df {
            Dataflow::WeightStationary => "fig17-ws",
            Dataflow::RowStationary => "fig18-rs",
            Dataflow::InputStationary => "fig19-is",
            Dataflow::OutputStationary => "speedup-os",
        }
        .to_string(),
        models: CnnModel::all().to_vec(),
        datasets: DatasetScale::all().to_vec(),
        designs: AdaGpDesign::all().to_vec(),
        dataflows: vec![df],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![None],
        buffers: vec![None],
    }
}

/// Figure 21's grid: per-model memory energy for the Efficient and MAX
/// designs at CIFAR scale (the energy metrics carry the result; the
/// baseline column is the `baseline_energy_j` metric of any design row).
pub fn energy() -> GridSpec {
    GridSpec {
        name: "energy".to_string(),
        models: CnnModel::all().to_vec(),
        datasets: vec![DatasetScale::Cifar10],
        designs: vec![AdaGpDesign::Efficient, AdaGpDesign::Max],
        dataflows: vec![Dataflow::WeightStationary],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![None],
        buffers: vec![None],
    }
}

/// Every dataflow (including Output-Stationary, which the figures skip) ×
/// every design for one representative model per family — the ablation
/// surface ROADMAP's sweep item asked for.
pub fn dataflows() -> GridSpec {
    GridSpec {
        name: "dataflows".to_string(),
        models: vec![
            CnnModel::ResNet50,
            CnnModel::InceptionV3,
            CnnModel::Vgg13,
            CnnModel::DenseNet121,
            CnnModel::MobileNetV2,
        ],
        datasets: vec![DatasetScale::Cifar10, DatasetScale::ImageNet],
        designs: AdaGpDesign::all().to_vec(),
        dataflows: Dataflow::all().to_vec(),
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![None],
        buffers: vec![None],
    }
}

/// Phase-schedule sensitivity: how much of the speed-up each epoch mix
/// keeps, across designs.
pub fn schedules() -> GridSpec {
    GridSpec {
        name: "schedules".to_string(),
        models: vec![CnnModel::Vgg13, CnnModel::ResNet50, CnnModel::MobileNetV2],
        datasets: vec![DatasetScale::Cifar10],
        designs: AdaGpDesign::all().to_vec(),
        dataflows: vec![Dataflow::WeightStationary],
        schedules: PhaseSchedule::all().to_vec(),
        bandwidths: vec![None],
        buffers: vec![None],
    }
}

/// The smoke grid: 2 models × 2 designs (4 cells), small enough to run
/// in milliseconds and compare with a committed golden CSV.
pub fn smoke() -> GridSpec {
    GridSpec {
        name: "smoke".to_string(),
        models: vec![CnnModel::Vgg13, CnnModel::ResNet50],
        datasets: vec![DatasetScale::Cifar10],
        designs: vec![AdaGpDesign::Efficient, AdaGpDesign::Max],
        dataflows: vec![Dataflow::WeightStationary],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![None],
        buffers: vec![None],
    }
}

/// The contention study: the fig17 model set swept over DRAM bandwidth
/// and buffer capacity for the MAX design — where the §3.7 per-layer
/// windows either hide the predictor or stall on the memory system.
/// Buffer points: 32K words (128 KB, aggressively small), the default
/// 128K words (512 KB) and 512K words (2 MB, fits most working sets).
pub fn bandwidth() -> GridSpec {
    GridSpec {
        name: "bandwidth".to_string(),
        models: CnnModel::all().to_vec(),
        datasets: vec![DatasetScale::Cifar10],
        designs: vec![AdaGpDesign::Max],
        dataflows: vec![Dataflow::WeightStationary],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: [8u64, 16, 32, 64, 128, 256]
            .iter()
            .map(|&b| Some(b))
            .collect(),
        buffers: [32 * 1024u64, 128 * 1024, 512 * 1024]
            .iter()
            .map(|&b| Some(b))
            .collect(),
    }
}

/// Test-sized slice of [`bandwidth`]: 2 models × 2 bandwidths × 2 buffer
/// capacities (8 cells), byte-compared against a committed golden across
/// thread counts.
pub fn bandwidth_smoke() -> GridSpec {
    GridSpec {
        name: "bandwidth-smoke".to_string(),
        models: vec![CnnModel::Vgg13, CnnModel::ResNet50],
        datasets: vec![DatasetScale::Cifar10],
        designs: vec![AdaGpDesign::Max],
        dataflows: vec![Dataflow::WeightStationary],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![Some(16), Some(256)],
        buffers: vec![Some(16 * 1024), Some(1024 * 1024)],
    }
}

/// The roofline grid: every fig17 model at ImageNet scale (the largest
/// working sets) under the MAX design with default knobs. Its run is the
/// roofline study — each model's bandwidth knee is the cell's
/// `knee_words_per_cycle` — and `runs/roofline.csv` pins the full metric
/// set across PRs.
pub fn roofline() -> GridSpec {
    GridSpec {
        name: "roofline".to_string(),
        models: CnnModel::all().to_vec(),
        datasets: vec![DatasetScale::ImageNet],
        designs: vec![AdaGpDesign::Max],
        dataflows: vec![Dataflow::WeightStationary],
        schedules: vec![PhaseSchedule::Paper],
        bandwidths: vec![None],
        buffers: vec![None],
    }
}

/// Every named preset, in CLI listing order.
pub fn all() -> Vec<GridSpec> {
    vec![
        speedup_figure(Dataflow::WeightStationary),
        speedup_figure(Dataflow::RowStationary),
        speedup_figure(Dataflow::InputStationary),
        energy(),
        dataflows(),
        schedules(),
        bandwidth(),
        bandwidth_smoke(),
        roofline(),
        smoke(),
    ]
}

/// Looks a preset up by its name.
pub fn by_name(name: &str) -> Option<GridSpec> {
    all().into_iter().find(|g| g.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_are_unique_and_resolvable() {
        let presets = all();
        let names: std::collections::HashSet<_> = presets.iter().map(|g| g.name.clone()).collect();
        assert_eq!(names.len(), presets.len());
        for g in &presets {
            assert_eq!(by_name(&g.name).as_ref(), Some(g));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn figure_presets_match_figure_shapes() {
        let fig17 = speedup_figure(Dataflow::WeightStationary);
        assert_eq!(fig17.name, "fig17-ws");
        // 13 models × 3 datasets × 3 designs = 117 cells per figure.
        assert_eq!(fig17.cell_count(), 117);
        assert_eq!(smoke().cell_count(), 4);
        assert_eq!(energy().cell_count(), 26);
        assert_eq!(bandwidth().cell_count(), 13 * 6 * 3);
        assert_eq!(bandwidth_smoke().cell_count(), 8);
        assert_eq!(roofline().cell_count(), 13);
    }

    #[test]
    fn contention_presets_override_every_cell() {
        for cell in bandwidth().expand() {
            assert!(cell.dram_words_per_cycle.is_some());
            assert!(cell.buffer_words.is_some());
        }
        for cell in roofline().expand() {
            assert!(cell.dram_words_per_cycle.is_none());
            assert!(cell.buffer_words.is_none());
        }
    }
}
