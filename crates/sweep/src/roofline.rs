//! Bandwidth-roofline analysis: for each grid cell, the smallest DRAM
//! bandwidth at which the simulated ADA-GP training run comes within
//! [`KNEE_TOLERANCE`] of its contention-free cycles — the model's
//! *roofline knee*. Below the knee the memory system stalls the paper's
//! per-layer overlap windows; above it extra bandwidth buys nothing.
//!
//! The search leans on a property the simulator guarantees (and
//! `crates/sim/tests/contention_properties.rs` sweeps): the simulated
//! makespan is monotone non-increasing in `dram_words_per_cycle`, so the
//! knee is well-defined and binary search over `[1, KNEE_MAX_BW]` finds
//! it exactly.
//!
//! **Build once, replay per probe.** The bandwidth being probed only
//! changes the durations of the DRAM tasks, never the topology of the
//! batch graphs, so the search compiles nothing: it re-times the cell's
//! already-built Phase-BP and Phase-GP graphs
//! ([`adagp_sim::StepGraphs::set_bandwidth`]) and replays them untraced,
//! two makespans per probe. The graphs are the same set the cell's
//! `simulate_cell` numbers came from ([`crate::simeval`]'s `CellGraphs`);
//! they live for one cell evaluation. The contention-free reference is
//! the closed form of [`adagp_accel::designs`] on the cell's layer costs,
//! which the `no_contention` simulation equals bit-for-bit (the sim
//! crate's contract, golden-tested) — the knee is anchored to the same
//! number the figures print, without simulating it again.
//!
//! Knees are memoized per (cell-sans-bandwidth, buffer, batch, ports,
//! tolerance): the `bandwidth` preset revisits the same (model, buffer)
//! point once per bandwidth axis value, and the fig17-sized grids ask
//! once per cell. A miss costs one lookup before the search and one
//! insert after it.

use crate::grid::{CellSpec, GridSpec};
use crate::simeval::{cell_sim_config, CellGraphs};
use crate::store::csv_float;
use adagp_accel::designs::{bp_batch_cycles, gp_batch_cycles};
use adagp_accel::layer_cost::LayerCost;
use adagp_accel::speedup::EpochMix;
use adagp_sim::{epoch_total, SimConfig, StepGraphs};
use std::collections::HashMap;
use std::sync::Mutex;

/// Relative slack over the contention-free cycles that still counts as
/// "at the roofline" (1%).
pub const KNEE_TOLERANCE: f64 = 0.01;

/// Upper end of the knee search range (words/cycle). A cell that is not
/// within tolerance even here reports the cap itself — by monotonicity
/// that only happens when per-task streaming *latency* (not bandwidth)
/// dominates, which no paper-scale model exhibits.
pub const KNEE_MAX_BW: u64 = 1 << 20;

/// Smallest bandwidth in `[1, KNEE_MAX_BW]` whose simulated training
/// cycles are within `tolerance` of `free_cycles`, by binary search on
/// the monotone bandwidth→cycles curve. Each probe re-times `graphs`
/// (which must have a DRAM channel) and replays BP and GP; the graphs
/// are left at the last probed bandwidth.
fn knee_search(graphs: &mut StepGraphs, mix: &EpochMix, free_cycles: f64, tolerance: f64) -> u64 {
    let target = free_cycles * (1.0 + tolerance);
    let mut at = |bw: u64| {
        graphs.set_bandwidth(bw);
        graphs.adagp_training_cycles(mix)
    };
    if at(KNEE_MAX_BW) > target {
        return KNEE_MAX_BW; // capped: even the top of the range stalls
    }
    let (mut lo, mut hi) = (1u64, KNEE_MAX_BW); // invariant: at(hi) ≤ target
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at(mid) <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

impl CellGraphs {
    /// Contention-free ADA-GP training cycles of the cell: the closed
    /// forms on its layer costs (== the `no_contention` simulation).
    fn free_cycles(&self, spec: &CellSpec) -> f64 {
        let costs: Vec<LayerCost> = self.layers.iter().map(|l| l.cost).collect();
        epoch_total(
            &self.mix,
            bp_batch_cycles(spec.design, &costs) as f64,
            gp_batch_cycles(spec.design, &costs) as f64,
        )
    }

    /// Simulated ADA-GP training cycles at `words_per_cycle`, leaving the
    /// graphs at the cell's configured bandwidth. A cell under a
    /// contention-off base has no DRAM tasks to re-time, so it compiles a
    /// channel-enabled set through the same path.
    fn cycles_at(&mut self, spec: &CellSpec, words_per_cycle: u64) -> f64 {
        self.with_channel(spec, |graphs, mix| {
            graphs.set_bandwidth(words_per_cycle);
            graphs.adagp_training_cycles(mix)
        })
    }

    /// The cell's knee by [`knee_search`] (not memoized).
    fn search_knee(&mut self, spec: &CellSpec, tolerance: f64) -> u64 {
        let free = self.free_cycles(spec);
        self.with_channel(spec, |graphs, mix| {
            knee_search(graphs, mix, free, tolerance)
        })
    }

    /// Runs `f` on graphs that have a DRAM channel: the cell's own
    /// (restored to the configured bandwidth afterwards), or — under a
    /// contention-off base — a set compiled `with_bandwidth`.
    fn with_channel<T>(
        &mut self,
        spec: &CellSpec,
        f: impl FnOnce(&mut StepGraphs, &EpochMix) -> T,
    ) -> T {
        match self.cfg.dram_words_per_cycle {
            Some(configured) => {
                let out = f(&mut self.graphs, &self.mix);
                self.graphs.set_bandwidth(configured);
                out
            }
            None => {
                let cfg = self.cfg.with_bandwidth(KNEE_MAX_BW);
                let mut graphs = StepGraphs::build(spec.design, &self.layers, &cfg);
                f(&mut graphs, &self.mix)
            }
        }
    }
}

fn knee_cache() -> &'static Mutex<HashMap<KneeMemoKey, u64>> {
    static CACHE: std::sync::OnceLock<Mutex<HashMap<KneeMemoKey, u64>>> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The memoized knee under `key`: one lookup, and on a miss `search`
/// (outside the lock) followed by one insert.
fn memoized_knee(key: KneeMemoKey, search: impl FnOnce() -> u64) -> u64 {
    let cached = knee_cache()
        .lock()
        .expect("knee memo poisoned")
        .get(&key)
        .copied();
    cached.unwrap_or_else(|| {
        let knee = search();
        knee_cache()
            .lock()
            .expect("knee memo poisoned")
            .insert(key, knee);
        knee
    })
}

/// Memo key of one cell's knee. The cell's own bandwidth value is
/// deliberately absent — the knee *is* the bandwidth sweep — but every
/// other input that shapes the curve is a **named field**: a new
/// curve-shaping knob must be added here explicitly (and shows up in
/// `Debug`/`Eq`), so it cannot silently alias two distinct curves into
/// one memo slot the way an ad-hoc format string could. Derivable from
/// the resolved config alone, so callers can check the cache before
/// building any graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KneeMemoKey {
    /// Dataflow display name (all axis names are `&'static str`s from
    /// the enums' `name()`, so keys are cheap to build and hash).
    pub dataflow: &'static str,
    /// Dataset display name.
    pub dataset: &'static str,
    /// Model display name.
    pub model: &'static str,
    /// Design display name.
    pub design: &'static str,
    /// Phase-schedule name.
    pub schedule: &'static str,
    /// Resolved buffer capacity override (words), `None` = unbounded.
    pub buffer_words: Option<u64>,
    /// Resolved simulation batch size.
    pub batch: usize,
    /// DRAM channel port multiplicity.
    pub dram_ports: u32,
    /// Knee tolerance as raw bits (`f64::to_bits`), keeping the key `Eq`
    /// + `Hash` without float-comparison pitfalls.
    pub tolerance_bits: u64,
}

impl KneeMemoKey {
    /// Builds the memo key of `spec`'s knee under the resolved simulator
    /// config and search tolerance.
    pub fn new(spec: &CellSpec, cfg: &SimConfig, tolerance: f64) -> KneeMemoKey {
        KneeMemoKey {
            dataflow: spec.dataflow.name(),
            dataset: spec.dataset.name(),
            model: spec.model.name(),
            design: spec.design.name(),
            schedule: spec.schedule.name(),
            buffer_words: cfg.buffer_words,
            batch: cfg.batch,
            dram_ports: cfg.dram_ports,
            tolerance_bits: tolerance.to_bits(),
        }
    }
}

/// The memoized knee of a cell whose graphs are already built (the
/// runner's and [`cell_roofline`]'s path: a miss searches on them).
pub(crate) fn knee_of_cell(spec: &CellSpec, cell: &mut CellGraphs, tolerance: f64) -> u64 {
    memoized_knee(KneeMemoKey::new(spec, &cell.cfg, tolerance), || {
        cell.search_knee(spec, tolerance)
    })
}

/// The roofline knee of one cell (words/cycle), memoized. A memo hit
/// costs only the key lookup — the layer list and the batch graphs are
/// built only on a miss.
pub fn cell_knee(spec: &CellSpec, base: &SimConfig, tolerance: f64) -> u64 {
    let key = KneeMemoKey::new(spec, &cell_sim_config(spec, base), tolerance);
    memoized_knee(key, || {
        CellGraphs::build(spec, base).search_knee(spec, tolerance)
    })
}

/// One cell's roofline summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// The grid point analyzed.
    pub spec: CellSpec,
    /// Contention-free ADA-GP training cycles (bit-identical to the
    /// analytic closed form).
    pub free_cycles: f64,
    /// The roofline knee: smallest bandwidth (words/cycle) within
    /// tolerance of `free_cycles` ([`KNEE_MAX_BW`] caps the search).
    pub knee_words_per_cycle: u64,
    /// Simulated training cycles at the knee bandwidth.
    pub knee_cycles: f64,
    /// Simulated training cycles at the cell's configured bandwidth.
    pub sim_cycles: f64,
    /// Epoch-weighted spill cycles at the cell's configured bandwidth.
    pub spill_cycles: f64,
    /// Fraction of `sim_cycles` that is memory stall (bandwidth + spill):
    /// `(sim_cycles − free_cycles) / sim_cycles`, 0 when contention-free.
    pub dram_stall_frac: f64,
}

/// Analyzes one cell: knee (memoized), contention-free reference and the
/// stall breakdown at the cell's configured bandwidth.
pub fn cell_roofline(spec: &CellSpec, base: &SimConfig, tolerance: f64) -> RooflinePoint {
    let mut cell = CellGraphs::build(spec, base);
    let knee = knee_of_cell(spec, &mut cell, tolerance);
    let knee_cycles = cell.cycles_at(spec, knee);
    let free_cycles = cell.free_cycles(spec);
    let step = cell.graphs.run(&cell.mix);
    let sim_cycles = step.adagp_training_cycles();
    RooflinePoint {
        spec: spec.clone(),
        free_cycles,
        knee_words_per_cycle: knee,
        knee_cycles,
        sim_cycles,
        spill_cycles: step.adagp_spill_cycles(),
        dram_stall_frac: ((sim_cycles - free_cycles) / sim_cycles).max(0.0),
    }
}

/// Roofline analysis of every cell of `grid`, in expansion order, on the
/// shared runtime pool (thread-count invariant like the other runners).
pub fn run_roofline_grid(grid: &GridSpec, base: &SimConfig, tolerance: f64) -> Vec<RooflinePoint> {
    adagp_runtime::pool().parallel_map(grid.expand(), |spec| cell_roofline(&spec, base, tolerance))
}

/// Column layout of the roofline CSV.
pub const ROOFLINE_CSV_HEADER: [&str; 14] = [
    "id",
    "dataflow",
    "dataset",
    "model",
    "design",
    "schedule",
    "dram_bw",
    "buffer_words",
    "knee_words_per_cycle",
    "free_cycles",
    "knee_cycles",
    "sim_cycles",
    "spill_cycles",
    "dram_stall_frac",
];

/// Renders roofline points as byte-stable CSV (integers verbatim, floats
/// at the store's fixed precision).
pub fn roofline_csv(points: &[RooflinePoint]) -> String {
    let mut out = String::new();
    out.push_str(&ROOFLINE_CSV_HEADER.join(","));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            p.spec.id,
            p.spec.dataflow.name(),
            p.spec.dataset.name(),
            p.spec.model.name(),
            p.spec.design.name(),
            p.spec.schedule.name(),
            p.spec.dram_bw_name(),
            p.spec.buffer_words_name(),
            p.knee_words_per_cycle,
            csv_float(p.free_cycles),
            csv_float(p.knee_cycles),
            csv_float(p.sim_cycles),
            csv_float(p.spill_cycles),
            csv_float(p.dram_stall_frac),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DatasetScale, PhaseSchedule};
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;
    use adagp_sim::StepSim;

    fn cell(buffer: Option<u64>) -> CellSpec {
        CellSpec::with_contention(
            Dataflow::WeightStationary,
            DatasetScale::Cifar10,
            CnnModel::Vgg13,
            AdaGpDesign::Max,
            PhaseSchedule::Paper,
            None,
            buffer,
        )
    }

    #[test]
    fn knee_is_within_tolerance_and_minimal() {
        let base = SimConfig::default();
        let p = cell_roofline(&cell(None), &base, KNEE_TOLERANCE);
        assert!(p.knee_words_per_cycle >= 1);
        assert!(p.knee_words_per_cycle < KNEE_MAX_BW, "finite knee expected");
        assert!(p.knee_cycles <= p.free_cycles * (1.0 + KNEE_TOLERANCE));
        // One step below the knee must violate the tolerance (minimality)
        // — checked on freshly built graphs, not a replay.
        if p.knee_words_per_cycle > 1 {
            let cell = CellGraphs::build(&cell(None), &base);
            let below = StepSim::run(
                AdaGpDesign::Max,
                &cell.layers,
                &cell.mix,
                &cell.cfg.with_bandwidth(p.knee_words_per_cycle - 1),
            )
            .adagp_training_cycles();
            assert!(below > p.free_cycles * (1.0 + KNEE_TOLERANCE));
        }
    }

    #[test]
    fn smaller_buffer_never_lowers_the_knee() {
        let base = SimConfig::default();
        let big = cell_roofline(&cell(Some(1 << 22)), &base, KNEE_TOLERANCE);
        let small = cell_roofline(&cell(Some(1 << 13)), &base, KNEE_TOLERANCE);
        assert!(small.knee_words_per_cycle >= big.knee_words_per_cycle);
        assert!(small.spill_cycles >= big.spill_cycles);
    }

    #[test]
    fn memoized_knee_matches_the_direct_search() {
        let base = SimConfig::default();
        let spec = cell(Some(1 << 14));
        let direct = CellGraphs::build(&spec, &base).search_knee(&spec, KNEE_TOLERANCE);
        assert_eq!(cell_knee(&spec, &base, KNEE_TOLERANCE), direct);
        assert_eq!(cell_knee(&spec, &base, KNEE_TOLERANCE), direct); // cached
    }

    #[test]
    fn memo_key_ignores_bandwidth_but_separates_every_curve_knob() {
        let base = SimConfig::default();
        let key =
            |spec: &CellSpec, tol: f64| KneeMemoKey::new(spec, &cell_sim_config(spec, &base), tol);
        let with_bw = |bw: Option<u64>, buf: Option<u64>| {
            CellSpec::with_contention(
                Dataflow::WeightStationary,
                DatasetScale::Cifar10,
                CnnModel::Vgg13,
                AdaGpDesign::Max,
                PhaseSchedule::Paper,
                bw,
                buf,
            )
        };
        // Bandwidth-axis siblings share one memo slot: the knee search is
        // itself the bandwidth sweep.
        assert_eq!(
            key(&with_bw(None, Some(1 << 14)), KNEE_TOLERANCE),
            key(&with_bw(Some(64), Some(1 << 14)), KNEE_TOLERANCE)
        );
        // Every other curve-shaping knob keys a distinct slot.
        assert_ne!(
            key(&with_bw(None, Some(1 << 14)), KNEE_TOLERANCE),
            key(&with_bw(None, Some(1 << 15)), KNEE_TOLERANCE)
        );
        assert_ne!(
            key(&cell(None), KNEE_TOLERANCE),
            key(&cell(None), KNEE_TOLERANCE * 2.0)
        );
        let mut other_ports = cell_sim_config(&cell(None), &base);
        other_ports.dram_ports += 1;
        assert_ne!(
            KneeMemoKey::new(&cell(None), &other_ports, KNEE_TOLERANCE),
            key(&cell(None), KNEE_TOLERANCE)
        );
        let mut other_batch = cell_sim_config(&cell(None), &base);
        other_batch.batch += 1;
        assert_ne!(
            KneeMemoKey::new(&cell(None), &other_batch, KNEE_TOLERANCE),
            key(&cell(None), KNEE_TOLERANCE)
        );
    }

    #[test]
    fn stall_fraction_is_a_proper_fraction_and_zero_without_contention() {
        let p = cell_roofline(&cell(None), &SimConfig::default(), KNEE_TOLERANCE);
        assert!(
            (0.0..1.0).contains(&p.dram_stall_frac),
            "{}",
            p.dram_stall_frac
        );
        let free = cell_roofline(&cell(None), &SimConfig::no_contention(), KNEE_TOLERANCE);
        assert_eq!(free.dram_stall_frac, 0.0);
        assert_eq!(free.spill_cycles, 0.0);
        assert_eq!(free.sim_cycles.to_bits(), free.free_cycles.to_bits());
    }

    #[test]
    fn csv_is_byte_stable_and_well_formed() {
        let base = SimConfig::default();
        let points: Vec<RooflinePoint> = [Some(1 << 14), None]
            .iter()
            .map(|&b| cell_roofline(&cell(b), &base, KNEE_TOLERANCE))
            .collect();
        let a = roofline_csv(&points);
        let b = roofline_csv(&points);
        assert_eq!(a, b);
        for line in a.lines().skip(1) {
            assert_eq!(line.split(',').count(), ROOFLINE_CSV_HEADER.len());
        }
    }
}
