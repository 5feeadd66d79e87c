//! Declarative grid axes and deterministic expansion into identified
//! cells.
//!
//! A [`GridSpec`] lists the values of each experiment axis;
//! [`GridSpec::expand`] takes their cartesian product in a fixed nesting
//! order (dataflow → dataset → model → design → schedule — the grouping
//! order of the paper's figure panels). Each cell's identity is derived
//! from its *content* (the canonical axis-value key), never from its
//! position, so inserting an axis value reorders nothing retroactively:
//! existing cells keep their IDs and stay diffable across PRs.

use adagp_accel::speedup::EpochMix;
use adagp_accel::{AdaGpDesign, Dataflow};
use adagp_nn::models::shapes::InputScale;
use adagp_nn::models::CnnModel;

/// The dataset column of Figures 17–19 (model input scale differs).
/// Moved here from `adagp_bench::speedup_tables` so the grid axes and the
/// figure harness share one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetScale {
    /// CIFAR10 (32² inputs).
    Cifar10,
    /// CIFAR100 (32² inputs).
    Cifar100,
    /// ImageNet (224² inputs).
    ImageNet,
}

impl DatasetScale {
    /// All three dataset columns.
    pub fn all() -> [DatasetScale; 3] {
        [
            DatasetScale::Cifar10,
            DatasetScale::Cifar100,
            DatasetScale::ImageNet,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetScale::Cifar10 => "Cifar10",
            DatasetScale::Cifar100 => "Cifar100",
            DatasetScale::ImageNet => "ImageNet",
        }
    }

    /// Input scale of this dataset.
    pub fn input_scale(&self) -> InputScale {
        match self {
            DatasetScale::ImageNet => InputScale::ImageNet,
            _ => InputScale::Cifar,
        }
    }
}

/// A named phase schedule — the {warm-up, annealing, steady-state} epoch
/// mix axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseSchedule {
    /// The paper's 90-epoch run: 10 warm-up + 4+4+4 annealing + 68 steady.
    Paper,
    /// A conservative mix: long warm-up, then straight to 1:1 (no
    /// annealing ramp). Lower speed-up, higher fidelity.
    WarmupHeavy,
    /// An aggressive mix: minimal warm-up, steady 1:1 for the rest.
    SteadyOnly,
}

impl PhaseSchedule {
    /// Every named schedule, in a stable order.
    pub fn all() -> [PhaseSchedule; 3] {
        [
            PhaseSchedule::Paper,
            PhaseSchedule::WarmupHeavy,
            PhaseSchedule::SteadyOnly,
        ]
    }

    /// Stable name used in cell keys, CSV and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseSchedule::Paper => "paper",
            PhaseSchedule::WarmupHeavy => "warmup-heavy",
            PhaseSchedule::SteadyOnly => "steady-only",
        }
    }

    /// The epoch mix this schedule denotes.
    pub fn mix(&self) -> EpochMix {
        match self {
            PhaseSchedule::Paper => EpochMix::paper(),
            PhaseSchedule::WarmupHeavy => EpochMix {
                warmup: 50,
                stage_4_1: 0,
                stage_3_1: 0,
                stage_2_1: 0,
                stage_1_1: 40,
            },
            PhaseSchedule::SteadyOnly => EpochMix {
                warmup: 10,
                stage_4_1: 0,
                stage_3_1: 0,
                stage_2_1: 0,
                stage_1_1: 80,
            },
        }
    }
}

/// One expanded grid point with its stable content-derived ID.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Content-derived cell identity: 16 lowercase hex digits of
    /// FNV-1a-64 over [`CellSpec::key`].
    pub id: String,
    /// Baseline dataflow the speed-up is measured against.
    pub dataflow: Dataflow,
    /// Dataset (sets the input scale of the layer shapes).
    pub dataset: DatasetScale,
    /// Model whose paper-scale layer shapes feed the cycle model.
    pub model: CnnModel,
    /// ADA-GP hardware design.
    pub design: AdaGpDesign,
    /// Phase schedule (epoch mix).
    pub schedule: PhaseSchedule,
    /// Simulator DRAM bandwidth override (words/cycle); `None` means the
    /// evaluator's default. Default-valued cells keep the pre-axis key
    /// (and therefore their PR 3/4 IDs); overridden cells append `bw<n>`.
    pub dram_words_per_cycle: Option<u64>,
    /// Simulator buffer-capacity override (words); `None` means the
    /// evaluator's default. Overridden cells append `buf<n>` to the key.
    pub buffer_words: Option<u64>,
}

impl CellSpec {
    /// Builds the cell for one combination of the five primary axis
    /// values (ID included, simulator knobs at their defaults).
    pub fn new(
        dataflow: Dataflow,
        dataset: DatasetScale,
        model: CnnModel,
        design: AdaGpDesign,
        schedule: PhaseSchedule,
    ) -> Self {
        Self::with_contention(dataflow, dataset, model, design, schedule, None, None)
    }

    /// Builds a cell with explicit simulator contention knobs.
    pub fn with_contention(
        dataflow: Dataflow,
        dataset: DatasetScale,
        model: CnnModel,
        design: AdaGpDesign,
        schedule: PhaseSchedule,
        dram_words_per_cycle: Option<u64>,
        buffer_words: Option<u64>,
    ) -> Self {
        let mut cell = CellSpec {
            id: String::new(),
            dataflow,
            dataset,
            model,
            design,
            schedule,
            dram_words_per_cycle,
            buffer_words,
        };
        cell.id = format!("{:016x}", fnv1a64(cell.key().as_bytes()));
        cell
    }

    /// Canonical human-readable key:
    /// `dataflow/dataset/model/design/schedule[/bw<n>][/buf<n>]` — the
    /// contention segments appear only when the cell overrides the
    /// evaluator defaults, so every pre-contention-axis cell keeps the
    /// exact key (and content-derived ID) it has had since PR 3.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}/{}/{}/{}/{}",
            self.dataflow.name(),
            self.dataset.name(),
            self.model.name(),
            self.design.name(),
            self.schedule.name()
        );
        if let Some(bw) = self.dram_words_per_cycle {
            key.push_str(&format!("/bw{bw}"));
        }
        if let Some(buf) = self.buffer_words {
            key.push_str(&format!("/buf{buf}"));
        }
        key
    }

    /// CSV/JSON display value of the bandwidth override column.
    pub fn dram_bw_name(&self) -> String {
        self.dram_words_per_cycle
            .map_or_else(|| "default".to_string(), |v| v.to_string())
    }

    /// CSV/JSON display value of the buffer-capacity override column.
    pub fn buffer_words_name(&self) -> String {
        self.buffer_words
            .map_or_else(|| "default".to_string(), |v| v.to_string())
    }
}

/// One slice of a sharded sweep: this invocation owns every cell whose
/// expansion index `i` satisfies `i % n == k - 1`. Index-based (not
/// ID-hash-based) assignment keeps the per-shard cell sets contiguous in
/// workload terms and — more importantly — deterministic for any grid,
/// so `k/n` invocations never overlap and together cover the grid
/// exactly once (property-tested in `shardlog`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 1-based shard index (`1 ..= n`).
    pub k: u32,
    /// Total shard count.
    pub n: u32,
}

impl Default for Shard {
    /// The whole grid: shard 1 of 1.
    fn default() -> Self {
        Shard { k: 1, n: 1 }
    }
}

impl Shard {
    /// Parses the CLI form `k/n` (e.g. `2/4`).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec (`k` and `n` must be
    /// positive integers with `k <= n`).
    pub fn parse(text: &str) -> Result<Shard, String> {
        let err = || format!("bad shard spec `{text}` (expected k/n with 1 <= k <= n)");
        let (k, n) = text.split_once('/').ok_or_else(err)?;
        let k: u32 = k.trim().parse().map_err(|_| err())?;
        let n: u32 = n.trim().parse().map_err(|_| err())?;
        if k == 0 || n == 0 || k > n {
            return Err(err());
        }
        Ok(Shard { k, n })
    }

    /// Whether this shard owns the cell at expansion index `index`.
    pub fn owns(&self, index: usize) -> bool {
        index % self.n as usize == (self.k - 1) as usize
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.k, self.n)
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms;
/// collisions over the few-hundred-cell grid space are not a concern
/// (and the expansion test asserts uniqueness anyway).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A declarative experiment grid: the cartesian product of its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid name (used in run records and the CLI).
    pub name: String,
    /// Model axis.
    pub models: Vec<CnnModel>,
    /// Dataset axis.
    pub datasets: Vec<DatasetScale>,
    /// Hardware-design axis.
    pub designs: Vec<AdaGpDesign>,
    /// Baseline-dataflow axis.
    pub dataflows: Vec<Dataflow>,
    /// Phase-schedule axis.
    pub schedules: Vec<PhaseSchedule>,
    /// Simulator DRAM-bandwidth axis (words/cycle); `None` = evaluator
    /// default. Standard grids use `vec![None]`.
    pub bandwidths: Vec<Option<u64>>,
    /// Simulator buffer-capacity axis (words); `None` = evaluator
    /// default. Standard grids use `vec![None]`.
    pub buffers: Vec<Option<u64>>,
}

impl GridSpec {
    /// Number of cells the grid expands into, saturating at `usize::MAX`
    /// when the axes' product overflows.
    pub fn cell_count(&self) -> usize {
        [
            self.models.len(),
            self.datasets.len(),
            self.designs.len(),
            self.dataflows.len(),
            self.schedules.len(),
            self.bandwidths.len(),
            self.buffers.len(),
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
        .unwrap_or(usize::MAX)
    }

    /// Expands the axes into cells, in the deterministic nesting order
    /// dataflow → dataset → model → design → schedule → bandwidth →
    /// buffer.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for &df in &self.dataflows {
            for &ds in &self.datasets {
                for &m in &self.models {
                    for &d in &self.designs {
                        for &s in &self.schedules {
                            for &bw in &self.bandwidths {
                                for &buf in &self.buffers {
                                    cells.push(CellSpec::with_contention(df, ds, m, d, s, bw, buf));
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// One-line summary of the axis sizes, e.g. `13m × 3ds × 3d × 1df ×
    /// 1s` (the contention axes are appended only when swept).
    pub fn axes_summary(&self) -> String {
        let mut out = format!(
            "{}m × {}ds × {}d × {}df × {}s",
            self.models.len(),
            self.datasets.len(),
            self.designs.len(),
            self.dataflows.len(),
            self.schedules.len()
        );
        if self.bandwidths.len() > 1 {
            out.push_str(&format!(" × {}bw", self.bandwidths.len()));
        }
        if self.buffers.len() > 1 {
            out.push_str(&format!(" × {}buf", self.buffers.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> GridSpec {
        GridSpec {
            name: "tiny".to_string(),
            models: vec![CnnModel::Vgg13, CnnModel::ResNet50],
            datasets: vec![DatasetScale::Cifar10],
            designs: vec![AdaGpDesign::Efficient, AdaGpDesign::Max],
            dataflows: vec![Dataflow::WeightStationary],
            schedules: vec![PhaseSchedule::Paper],
            bandwidths: vec![None],
            buffers: vec![None],
        }
    }

    #[test]
    fn expansion_matches_cell_count_and_order() {
        let g = tiny_grid();
        let cells = g.expand();
        assert_eq!(cells.len(), g.cell_count());
        assert_eq!(cells.len(), 4);
        // model-major over designs: Vgg13/Eff, Vgg13/Max, ResNet50/Eff, ...
        assert_eq!(cells[0].model, CnnModel::Vgg13);
        assert_eq!(cells[0].design, AdaGpDesign::Efficient);
        assert_eq!(cells[1].model, CnnModel::Vgg13);
        assert_eq!(cells[1].design, AdaGpDesign::Max);
        assert_eq!(cells[2].model, CnnModel::ResNet50);
    }

    #[test]
    fn ids_are_stable_and_content_derived() {
        // Golden values: these must never change across PRs — the whole
        // point of content-derived IDs is that stored runs stay diffable.
        let cell = CellSpec::new(
            Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            CnnModel::Vgg13,
            AdaGpDesign::Efficient,
            PhaseSchedule::Paper,
        );
        assert_eq!(cell.key(), "WS/Cifar10/VGG13/ADA-GP-Efficient/paper");
        assert_eq!(
            cell.id,
            format!("{:016x}", super::fnv1a64(cell.key().as_bytes()))
        );
        // Same content → same id, regardless of grid or position.
        let again = tiny_grid()
            .expand()
            .into_iter()
            .find(|c| c.key() == cell.key())
            .expect("cell present");
        assert_eq!(again.id, cell.id);
    }

    #[test]
    fn ids_are_unique_across_the_full_grid() {
        let g = GridSpec {
            name: "full".to_string(),
            models: CnnModel::all().to_vec(),
            datasets: DatasetScale::all().to_vec(),
            designs: AdaGpDesign::all().to_vec(),
            dataflows: Dataflow::all().to_vec(),
            schedules: PhaseSchedule::all().to_vec(),
            bandwidths: vec![None, Some(16), Some(64)],
            buffers: vec![None, Some(1 << 15)],
        };
        let cells = g.expand();
        assert_eq!(cells.len(), 13 * 3 * 3 * 4 * 3 * 3 * 2);
        let ids: std::collections::HashSet<_> = cells.iter().map(|c| c.id.clone()).collect();
        assert_eq!(ids.len(), cells.len(), "cell ID collision");
    }

    #[test]
    fn contention_axes_extend_the_key_only_when_overridden() {
        // Golden: a default-knob cell keeps its PR 3 key and ID...
        let plain = CellSpec::new(
            Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            CnnModel::Vgg13,
            AdaGpDesign::Efficient,
            PhaseSchedule::Paper,
        );
        assert_eq!(plain.key(), "WS/Cifar10/VGG13/ADA-GP-Efficient/paper");
        // ...while overridden knobs append stable, value-bearing segments.
        let swept = CellSpec::with_contention(
            Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            CnnModel::Vgg13,
            AdaGpDesign::Efficient,
            PhaseSchedule::Paper,
            Some(32),
            Some(65536),
        );
        assert_eq!(
            swept.key(),
            "WS/Cifar10/VGG13/ADA-GP-Efficient/paper/bw32/buf65536"
        );
        assert_ne!(swept.id, plain.id);
        assert_eq!(swept.dram_bw_name(), "32");
        assert_eq!(swept.buffer_words_name(), "65536");
        assert_eq!(plain.dram_bw_name(), "default");
        assert_eq!(plain.buffer_words_name(), "default");
    }

    #[test]
    fn schedules_have_distinct_mixes_of_equal_length() {
        let totals: Vec<usize> = PhaseSchedule::all()
            .iter()
            .map(|s| s.mix().total())
            .collect();
        assert_eq!(totals, vec![90, 90, 90]);
        assert_ne!(PhaseSchedule::Paper.mix(), PhaseSchedule::WarmupHeavy.mix());
    }

    #[test]
    fn shard_parse_accepts_valid_and_rejects_malformed_specs() {
        assert_eq!(Shard::parse("1/1").unwrap(), Shard { k: 1, n: 1 });
        assert_eq!(Shard::parse("3/7").unwrap(), Shard { k: 3, n: 7 });
        assert_eq!(Shard::default(), Shard { k: 1, n: 1 });
        for bad in ["", "1", "0/2", "3/2", "2/0", "a/b", "1/2/3", "-1/2"] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn shards_partition_every_index_exactly_once() {
        for n in [1u32, 2, 4, 7] {
            for index in 0..100usize {
                let owners: Vec<u32> = (1..=n).filter(|&k| Shard { k, n }.owns(index)).collect();
                assert_eq!(owners.len(), 1, "index {index} under n={n}: {owners:?}");
            }
        }
    }

    #[test]
    fn fnv_reference_vector() {
        // Published FNV-1a test vector: "a" → 0xaf63dc4c8601ec8c.
        assert_eq!(super::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
