//! Bandwidth-roofline analysis: for each grid cell, the smallest DRAM
//! bandwidth at which the simulated ADA-GP training run comes within
//! [`KNEE_TOLERANCE`] of its contention-free cycles — the model's
//! *roofline knee*. Below the knee the memory system stalls the paper's
//! per-layer overlap windows; above it extra bandwidth buys nothing.
//!
//! The knee is one of every cell's metrics
//! ([`CellMetrics::knee_words_per_cycle`](crate::runner::CellMetrics::knee_words_per_cycle),
//! from [`crate::runner::evaluate_cell`]), so the roofline study is a
//! plain run of the `roofline` preset (`sweep run roofline --csv …`,
//! pinned by `runs/roofline.csv`). [`cell_knee`] is the same knee on its
//! own, under any base config and tolerance.
//!
//! The search rests on the simulated makespan being monotone
//! non-increasing in `dram_words_per_cycle`, so that the knee is
//! well-defined and a search over `[1, KNEE_MAX_BW]` finds it exactly.
//! FIFO list scheduling is not monotone in general — a schedule can get
//! longer when a task gets shorter (Graham, "Bounds on Multiprocessing
//! Timing Anomalies", 1969) — but on the graphs searched here it is, as
//! a result and not a sample, wherever the emitter's predicate holds.
//! Every batch graph is *order-determinate* ([`adagp_sim::engine`]'s
//! module doc): each resource admits its tasks in one order at every
//! bandwidth, so a run is a recursion of `max` and `+` over the
//! durations — a max-plus system at one port (Baccelli et al.,
//! "Synchronization and Linearity", 1992), the FIFO multi-server
//! recursion at k ports (Kiefer & Wolfowitz, 1955). Every start, and so
//! the makespan, is monotone non-decreasing in every duration, and a
//! DRAM task's `⌈words / b⌉` cycles never grow with `b`. The emitter
//! `debug_assert`s the predicate, and tests check it on every preset
//! graph and on seeded mixes; an emitter change that broke it would put
//! the premise back on trust (ROADMAP item 25 must keep it).
//! `crates/sim/tests/contention_properties.rs` still samples the
//! monotonicity on 200 seeded layer mixes, and
//! `gallop_equals_the_bisection_on_every_preset_knee` (below) on the
//! replayed points of all 308 preset knees.
//!
//! **Chains, then crossing, then replay.** A replay of both batch
//! graphs is the search's cost, so the search first finds where
//! replaying can start. The longest dependency paths of the two graphs,
//! resources ignored
//! ([`adagp_sim::AdaGpGraphs::training_cycles_floor`], blended like the
//! cycles), bound the replayed cycles from below at every bandwidth; a
//! walk of both costs a fraction of a replay, and it also leaves behind
//! one longest chain per graph, as a certificate: the chain's fixed
//! (compute and join) cycles and its DRAM words
//! ([`adagp_sim::ChainCertificate`]). A longest path is a max over
//! chains (a max-plus expression), so any chain bounds it from below,
//! at any bandwidth `b`: a chain with DRAM tasks of `wᵢ` words takes
//! `fixed + Σ⌈wᵢ/b⌉ ≥ fixed + ⌈Σwᵢ/b⌉` cycles. The search walks at 1;
//! while the walk is over target, it keeps the walk's two chains and
//! walks next at the first bandwidth at which `lb(b)` — [`epoch_total`]
//! of the longest kept BP chain's `fixed + ⌈W/b⌉` and the same for GP —
//! is within target. `lb` never exceeds the floor (each term is at most
//! its graph's longest path, and `epoch_total` is monotone under IEEE
//! rounding), so every bandwidth it skips has its floor over target,
//! and the first walk within target is the floor's crossing `s`: the
//! chains prove it without assuming anything of the floor's shape. On
//! the eight benchmark presets' 308 knees that takes 611 walks, two at
//! most per knee (`sweep_floor_walks_total`), where galloping the floor
//! over 1, 2, 4, … took 3 235; every crossing is the one that gallop
//! finds (`tests` checks it on all 308). The walks have no logarithmic
//! bound: where a chain's DRAM tasks round up apart, `lb` can sit under
//! target over a stretch where the floor is over it, and the search
//! then walks that stretch one bandwidth at a time (ROADMAP). Then it
//! replays at `s`, `s + 1`, `s + 3`, … (a gallop from `s − 1`) and
//! bisects the last doubling. Every bandwidth below `s` has its floor
//! over target and its cycles at least that, so the knee is at or above
//! `s`, and the search returns the knee a search of the whole range
//! returns (`tests` checks both, and the floor under every replayed
//! point, on all 308 preset knees); only this replay gallop rests on
//! the makespan's monotonicity. A knee `k` costs at most
//! `2⌈log₂(k − s + 1)⌉ + 1` replays. On the presets the floor's `s` is
//! the knee for 300 knees and one below it for the other 8, so a knee
//! costs 1.03 replays, against 10.5 for the gallop from 1 the floor
//! replaced (316 against 3 235, `sweep_knee_probes_total`). A cell
//! whose floor is over target even at the cap reports the cap without a
//! replay; no preset has one. Every knee in the committed `runs/*.csv`
//! is between 1 and 174 w/c.
//!
//! **Build once, replay per probe.** The bandwidth being probed only
//! changes the durations of the DRAM tasks, never the topology of the
//! batch graphs, so the search compiles nothing: it re-times the cell's
//! already-built Phase-BP and Phase-GP graphs
//! ([`adagp_sim::AdaGpGraphs::set_bandwidth`]) and replays them untraced,
//! two makespans per probe, each one fixed-order pass. The graphs are the set of the cell's group
//! ([`crate::simeval`]'s `CellGraphs`: the cells that differ only in
//! bandwidth and schedule), built at most once per group and only on a
//! memo miss; the search leaves them at the last bandwidth it probed, and
//! the next cell re-times them to its own. The contention-free
//! reference is the closed form of [`adagp_accel::designs`] on the cell's
//! layer costs, which the `no_contention` simulation equals bit-for-bit
//! (the sim crate's contract, golden-tested) — the knee is anchored to
//! the same number the figures print, without simulating it again.
//!
//! **Knees are memoized** per [`KneeMemoKey`]: (model, input scale,
//! dataflow, design, schedule, buffer, batch, ports, tolerance). The
//! cell's bandwidth is absent — the knee *is* the bandwidth sweep — and
//! so is the dataset, which reaches the curve only through its input
//! scale (a CIFAR-100 cell shares its CIFAR-10 twin's knee). The
//! `bandwidth` preset revisits one (model, buffer) point per bandwidth
//! value; the eight benchmark presets ask for 308 distinct knees over
//! 771 cells. The table is an [`adagp_runtime::Memo`], like the batch
//! memo: a hit is one lookup; a miss runs the search outside the
//! table's lock, once per key even when threads race for it. A group
//! whose batches all come from the batch memo but whose knees miss (the
//! non-paper `schedules` cells) compiles its graphs once, for the
//! searches alone.

use crate::grid::{CellSpec, PhaseSchedule};
use crate::memo::CellMemos;
use crate::simeval::{build_graphs, cell_sim_config, CellGraphs};
use adagp_accel::layer_cost::LayerCost;
use adagp_accel::speedup::{adagp_cycles_of, epoch_total, EpochMix};
use adagp_accel::{AdaGpDesign, Dataflow};
use adagp_nn::models::shapes::InputScale;
use adagp_nn::models::CnnModel;
use adagp_obs as obs;
use adagp_sim::{AdaGpGraphs, ChainCertificate, SimConfig, TrainingFloor};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

/// Relative slack over the contention-free cycles that still counts as
/// "at the roofline" (1%).
pub const KNEE_TOLERANCE: f64 = 0.01;

/// Upper end of the knee search range (words/cycle). A cell that is not
/// within tolerance even here reports the cap itself — by monotonicity
/// that only happens when per-task streaming *latency* (not bandwidth)
/// dominates, which no paper-scale model exhibits.
pub const KNEE_MAX_BW: u64 = 1 << 20;

/// Replayed knee probes, process-wide (`sweep_knee_probes_total`): one
/// per bandwidth at which a search re-timed and replayed a cell's graphs.
fn probes_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("sweep_knee_probes_total"))
}

/// Longest-path walks, process-wide (`sweep_floor_walks_total`): one per
/// bandwidth at which a search re-timed a cell's graphs and walked both
/// for their floor and its chains.
fn walks_counter() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::registry().counter("sweep_floor_walks_total"))
}

/// Smallest bandwidth in `[1, KNEE_MAX_BW]` at which the training cycles
/// `at(bandwidth)` are within `tolerance` of `free_cycles`, on a monotone
/// non-increasing curve bounded below by the floor `walk(bandwidth)`
/// returns (blended under `mix`): the floor's crossing
/// ([`floor_crossing`]), found without calling `at`, then the first
/// bandwidth from there on whose `at` is (module doc). [`KNEE_MAX_BW`] when even the cap is not within
/// tolerance — with no call to `at` at all when the floor already is not.
fn knee_search(
    mut at: impl FnMut(u64) -> f64,
    walk: impl FnMut(u64) -> TrainingFloor,
    mix: &EpochMix,
    free_cycles: f64,
    tolerance: f64,
) -> u64 {
    let target = free_cycles * (1.0 + tolerance);
    floor_crossing(walk, mix, target)
        .and_then(|s| first_within(&mut at, target, s - 1))
        .unwrap_or(KNEE_MAX_BW)
}

/// Smallest bandwidth in `[1, KNEE_MAX_BW]` whose floor `walk(bw).cycles`
/// is at or under `target`, or `None` when no bandwidth's is. Walks at 1,
/// then, while the walk is over target, keeps its two chains and walks
/// next at the first bandwidth the kept chains cannot prove over target:
/// their blended [`ChainCertificate::cycles_at`] bounds the floor from
/// below everywhere (module doc), so every bandwidth skipped is over
/// target. Assumes nothing about the floor's shape.
fn floor_crossing(
    mut walk: impl FnMut(u64) -> TrainingFloor,
    mix: &EpochMix,
    target: f64,
) -> Option<u64> {
    let mut chains: Vec<(ChainCertificate, ChainCertificate)> = Vec::new();
    let mut bw = 1;
    loop {
        let floor = walk(bw);
        if floor.cycles <= target {
            return Some(bw);
        }
        if bw == KNEE_MAX_BW {
            return None;
        }
        chains.push((floor.bp, floor.gp));
        let bound = |b| {
            let (mut bp, mut gp) = (0, 0);
            for (bp_chain, gp_chain) in &chains {
                bp = bp.max(bp_chain.cycles_at(b));
                gp = gp.max(gp_chain.cycles_at(b));
            }
            epoch_total(mix, bp as f64, gp as f64)
        };
        bw = first_within(bound, target, bw)?;
    }
}

/// Smallest bandwidth in `(above, KNEE_MAX_BW]` at which `curve` is at or
/// under `target`, on a curve that is monotone non-increasing over that
/// range (`curve(above)` is never called): gallop `above + 1, above + 2,
/// above + 4, …` up to the cap, then bisect the last doubling. A result
/// `d` past `above` costs at most `2⌈log₂ d⌉ + 1` calls. `None` when even
/// the cap is above `target`.
fn first_within(mut curve: impl FnMut(u64) -> f64, target: f64, above: u64) -> Option<u64> {
    let (mut lo, mut step) = (above, 1);
    let mut hi = loop {
        let probe = (above + step).min(KNEE_MAX_BW);
        if curve(probe) <= target {
            break probe;
        }
        if probe == KNEE_MAX_BW {
            return None; // capped: even the top of the range stalls
        }
        (lo, step) = (probe, step * 2);
    };
    // curve(hi) ≤ target, and curve(lo) > target unless lo == above.
    lo += 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if curve(mid) <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

impl CellGraphs {
    /// Contention-free ADA-GP training cycles of `spec`: the closed forms
    /// on the group's layer costs (== the `no_contention` simulation).
    fn free_cycles(&self, spec: &CellSpec) -> f64 {
        let costs: Vec<LayerCost> = self.layers.iter().map(|l| l.cost).collect();
        adagp_cycles_of(spec.design, &costs, &spec.schedule.mix())
    }

    /// `spec`'s knee by [`knee_search`] (not memoized), on this group's
    /// graphs. They are left timed at the last bandwidth probed: a cell
    /// re-times them before it replays them.
    pub(crate) fn search_knee(&mut self, spec: &CellSpec, tolerance: f64) -> u64 {
        let (free, mix) = (self.free_cycles(spec), spec.schedule.mix());
        self.with_channel(spec, |at, walk| {
            knee_search(at, walk, &mix, free, tolerance)
        })
    }

    /// Runs `f` on `spec`'s two curves over graphs that have a DRAM
    /// channel — the group's own, or, under a contention-off base, a set
    /// compiled `with_bandwidth`. Both re-time the graphs to the bandwidth
    /// asked for; the first replays them (a probe, counted in
    /// `sweep_knee_probes_total`), the second walks them for their floor
    /// and its chains ([`AdaGpGraphs::training_cycles_floor`], counted in
    /// `sweep_floor_walks_total`).
    fn with_channel<T>(
        &mut self,
        spec: &CellSpec,
        f: impl FnOnce(&mut dyn FnMut(u64) -> f64, &mut dyn FnMut(u64) -> TrainingFloor) -> T,
    ) -> T {
        let mix = spec.schedule.mix();
        let probe = |graphs: &mut AdaGpGraphs| {
            let graphs = RefCell::new(graphs);
            let retimed = |bw| {
                let mut graphs = graphs.borrow_mut();
                graphs.set_bandwidth(bw);
                graphs
            };
            f(
                &mut |bw| {
                    probes_counter().inc();
                    retimed(bw).run(&mix).training_cycles()
                },
                &mut |bw| {
                    walks_counter().inc();
                    retimed(bw).training_cycles_floor(&mix)
                },
            )
        };
        if self.cfg.dram_words_per_cycle.is_some() {
            probe(&mut self.graphs)
        } else {
            let cfg = self.cfg.with_bandwidth(KNEE_MAX_BW);
            probe(&mut build_graphs(spec.design, &self.layers, &cfg))
        }
    }
}

/// Memo key of one cell's knee. The cell's own bandwidth value is
/// deliberately absent — the knee *is* the bandwidth sweep — and the
/// dataset is present only as its input scale, the one thing the curve
/// reads of it; every other input that shapes the curve is a **named
/// field**: a new curve-shaping knob must be added here explicitly (and
/// shows up in `Debug`/`Eq`), so it cannot silently alias two distinct
/// curves into one memo slot the way an ad-hoc format string could.
/// Derivable from the resolved config alone, so callers can check the
/// cache before building any graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KneeMemoKey {
    /// Dataflow.
    pub dataflow: Dataflow,
    /// Input scale of the cell's dataset.
    pub input_scale: InputScale,
    /// Model.
    pub model: CnnModel,
    /// ADA-GP design.
    pub design: AdaGpDesign,
    /// Phase schedule (the epoch mix weighs the curve).
    pub schedule: PhaseSchedule,
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
            dataflow: spec.dataflow,
            input_scale: spec.dataset.input_scale(),
            model: spec.model,
            design: spec.design,
            schedule: spec.schedule,
            buffer_words: cfg.buffer_words,
            batch: cfg.batch,
            dram_ports: cfg.dram_ports,
            tolerance_bits: tolerance.to_bits(),
        }
    }
}

/// The roofline knee of one cell (words/cycle), memoized. A memo hit
/// costs only the key lookup — the layer list and the batch graphs are
/// built only on a miss.
pub fn cell_knee(spec: &CellSpec, base: &SimConfig, tolerance: f64) -> u64 {
    let key = KneeMemoKey::new(spec, &cell_sim_config(spec, base), tolerance);
    let (knee, _) = CellMemos::global().knees.get_or_compute(&key, || {
        CellGraphs::build(spec, base).search_knee(spec, tolerance)
    });
    knee
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DatasetScale, PhaseSchedule};
    use crate::presets;
    use crate::runner::evaluate_cell;
    use crate::simeval::simulate_cell;
    use adagp_accel::{AdaGpDesign, Dataflow};
    use adagp_nn::models::CnnModel;
    use adagp_sim::StepSim;
    use std::collections::HashSet;

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

    /// The search [`knee_search`] replaced, kept as its reference: probe
    /// the cap, then bisect all of `[1, KNEE_MAX_BW]` (21 probes).
    fn bisect_reference(mut at: impl FnMut(u64) -> f64, free_cycles: f64, tolerance: f64) -> u64 {
        let target = free_cycles * (1.0 + tolerance);
        if at(KNEE_MAX_BW) > target {
            return KNEE_MAX_BW;
        }
        let (mut lo, mut hi) = (1u64, KNEE_MAX_BW);
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

    /// [`first_within`]'s call bound for a result `d` past its start:
    /// `2⌈log₂ d⌉ + 1`.
    fn probe_bound(d: u64) -> u32 {
        2 * (64 - (d - 1).leading_zeros()) + 1
    }

    /// [`knee_search`] on `at` over the floor `walk` blends under `mix`,
    /// and how many times it replayed (called `at`) and walked.
    fn counted_search(
        mut at: impl FnMut(u64) -> f64,
        mut walk: impl FnMut(u64) -> TrainingFloor,
        mix: &EpochMix,
        free_cycles: f64,
    ) -> (u64, u32, u32) {
        let (mut replays, mut walks) = (0, 0);
        let knee = knee_search(
            |bw| {
                replays += 1;
                at(bw)
            },
            |bw| {
                walks += 1;
                walk(bw)
            },
            mix,
            free_cycles,
            KNEE_TOLERANCE,
        );
        (knee, replays, walks)
    }

    /// One warm-up epoch: [`epoch_total`] is then the BP value itself.
    fn one_epoch() -> EpochMix {
        EpochMix {
            warmup: 1,
            stage_4_1: 0,
            stage_3_1: 0,
            stage_2_1: 0,
            stage_1_1: 0,
        }
    }

    /// The floor of two batches that are each the one chain `chain`, and
    /// that chain as both certificates.
    fn single_chain(chain: ChainCertificate, mix: &EpochMix) -> impl Fn(u64) -> TrainingFloor + '_ {
        move |bw| {
            let cycles = chain.cycles_at(bw) as f64;
            TrainingFloor {
                cycles: epoch_total(mix, cycles, cycles),
                bp: chain,
                gp: chain,
            }
        }
    }

    /// A step at `k` over `floor`: 2000 cycles below it, 1000 from it on,
    /// and never under the floor.
    fn step_at(k: u64, floor: &dyn Fn(u64) -> TrainingFloor) -> impl Fn(u64) -> f64 + '_ {
        move |bw| floor(bw).cycles.max(if bw >= k { 1000.0 } else { 2000.0 })
    }

    #[test]
    fn gallop_finds_every_synthetic_knee_within_its_probe_bound() {
        let mut knees: Vec<u64> = (1..=1100).collect();
        for j in 0..=20 {
            knees.extend([(1u64 << j) - 1, 1 << j, (1 << j) + 1]);
        }
        knees.retain(|k| (1..=KNEE_MAX_BW).contains(k));
        knees.sort_unstable();
        knees.dedup();
        let mix = one_epoch();
        // Free cycles 1000.5, so the target is 1010.505: a chain of 1000
        // fixed cycles and 10·s words is within it from `s` on, and not
        // below (⌈10s/b⌉ ≤ 10 exactly when b ≥ s).
        let free = 1000.5;
        let crossing_at = |s: u64| {
            single_chain(
                ChainCertificate {
                    fixed_cycles: 1000,
                    dram_words: 10 * s,
                },
                &mix,
            )
        };
        let zero = single_chain(
            ChainCertificate {
                fixed_cycles: 0,
                dram_words: 0,
            },
            &mix,
        );
        for k in knees {
            // A zero floor is within tolerance everywhere, so one walk
            // suffices and the replays gallop from 1.
            let step = step_at(k, &zero);
            let (knee, replays, walks) = counted_search(&step, &zero, &mix, free);
            assert_eq!((knee, walks), (k, 1));
            assert!(replays <= probe_bound(k), "knee {k}: {replays} replays");
            assert_eq!(bisect_reference(&step, free, KNEE_TOLERANCE), k);
            // A floor that crosses at `s ≤ k`, certified by its own chain:
            // one walk at 1 and, unless `s` is 1, one at `s`; the replays
            // start at `s`.
            let mut crossings = vec![1, k.div_ceil(2), k - k / 8, k - 1, k];
            crossings.retain(|&s| s >= 1);
            for s in crossings {
                let floor = crossing_at(s);
                let step = step_at(k, &floor);
                let (knee, replays, walks) = counted_search(&step, &floor, &mix, free);
                assert_eq!(knee, k, "floor crossing {s}");
                assert_eq!(walks, if s == 1 { 1 } else { 2 }, "floor crossing {s}");
                assert!(
                    replays <= probe_bound(k - s + 1),
                    "knee {k}, floor crossing {s}: {replays} replays"
                );
                if s == k {
                    assert_eq!(
                        replays, 1,
                        "knee {k}: the floor's crossing needs one replay"
                    );
                }
            }
        }
        // Capped under a zero floor: no bandwidth is within tolerance, so
        // the replays gallop over all 21 powers of two and report the cap.
        assert_eq!(
            counted_search(|_| 2000.0, &zero, &mix, free),
            (KNEE_MAX_BW, 21, 1)
        );
        // A floor above target even at the cap: its chain proves it after
        // one walk, and the cap comes with no replay.
        let over = single_chain(
            ChainCertificate {
                fixed_cycles: 1500,
                dram_words: 0,
            },
            &mix,
        );
        assert_eq!(
            counted_search(|_| 2000.0, &over, &mix, free),
            (KNEE_MAX_BW, 0, 1)
        );
    }

    #[test]
    fn gallop_equals_the_bisection_on_every_preset_knee() {
        let base = SimConfig::default();
        let mut seen = HashSet::new();
        let specs: Vec<CellSpec> = [
            "fig17-ws",
            "fig18-rs",
            "fig19-is",
            "dataflows",
            "schedules",
            "bandwidth",
            "energy",
            "roofline",
        ]
        .iter()
        .flat_map(|name| presets::by_name(name).expect("known preset").expand())
        .filter(|spec| {
            seen.insert(KneeMemoKey::new(
                spec,
                &cell_sim_config(spec, &base),
                KNEE_TOLERANCE,
            ))
        })
        .collect();
        assert_eq!(specs.len(), 308, "distinct knee keys of the eight presets");
        let walks = adagp_runtime::pool().parallel_map(specs, |spec| {
            let mut cell = CellGraphs::build(&spec, &base);
            let (free, mix) = (cell.free_cycles(&spec), spec.schedule.mix());
            cell.with_channel(&spec, |at, walk| {
                // Every (bandwidth, cycles) either search replayed.
                let mut curve = Vec::new();
                let mut probe = |bw| {
                    let cycles = at(bw);
                    curve.push((bw, cycles));
                    cycles
                };
                let (knee, replays, _) = counted_search(&mut probe, &mut *walk, &mix, free);
                let bisect = bisect_reference(&mut probe, free, KNEE_TOLERANCE);
                assert_eq!(knee, bisect, "{}", spec.key());
                // The certified crossing is the one the floor gallop it
                // replaced finds.
                let target = free * (1.0 + KNEE_TOLERANCE);
                let (mut walks, mut gallop_walks) = (0, 0);
                let mut counted = |n: &mut u32, bw| {
                    *n += 1;
                    walk(bw)
                };
                let s = floor_crossing(|bw| counted(&mut walks, bw), &mix, target);
                let gallop = first_within(|bw| counted(&mut gallop_walks, bw).cycles, target, 0);
                assert_eq!(s, gallop, "{}", spec.key());
                let s = s.expect("finite floor crossing");
                assert!(
                    s <= knee && replays <= probe_bound(knee - s + 1),
                    "{}: knee {knee}, floor crossing {s}, {replays} replays",
                    spec.key()
                );
                // What makes the searches agree: the curve is monotone
                // non-increasing on the graphs the figures come from, and
                // never under its floor.
                curve.sort_by_key(|&(bw, _)| bw);
                for &(bw, cycles) in &curve {
                    assert!(walk(bw).cycles <= cycles, "{} at {bw} w/c", spec.key());
                }
                for w in curve.windows(2) {
                    assert!(w[1].1 <= w[0].1, "{}: {w:?}", spec.key());
                }
                (walks, gallop_walks)
            })
        });
        let certified: u32 = walks.iter().map(|w| w.0).sum();
        let gallop: u32 = walks.iter().map(|w| w.1).sum();
        assert!(certified <= 2 * 308, "{certified} walks for 308 knees");
        assert_eq!(gallop, 3_235, "the floor gallop's walks");
    }

    /// Every committed `roofline` knee, checked on freshly built
    /// simulations rather than the search's replays: at the knee the run
    /// is within tolerance of the cell's analytic cycles, one word/cycle
    /// below it is not.
    #[test]
    fn knee_is_within_tolerance_and_minimal() {
        let base = SimConfig::default();
        let specs = presets::roofline().expand();
        assert_eq!(specs.len(), 13);
        for spec in specs {
            let m = evaluate_cell(&spec);
            let knee = m.knee_words_per_cycle as u64;
            assert!(
                (1..KNEE_MAX_BW).contains(&knee),
                "{}: finite knee expected",
                spec.key()
            );
            let target = m.adagp_cycles * (1.0 + KNEE_TOLERANCE);
            let cell = CellGraphs::build(&spec, &base);
            let simulated = |bw: u64| {
                StepSim::run(
                    spec.design,
                    &cell.layers,
                    &spec.schedule.mix(),
                    &cell.cfg.with_bandwidth(bw),
                )
                .adagp
                .training_cycles()
            };
            assert!(simulated(knee) <= target, "{}: knee {knee}", spec.key());
            if knee > 1 {
                assert!(simulated(knee - 1) > target, "{}: knee {knee}", spec.key());
            }
        }
    }

    #[test]
    fn smaller_buffer_never_lowers_the_knee() {
        let big = evaluate_cell(&cell(Some(1 << 22)));
        let small = evaluate_cell(&cell(Some(1 << 13)));
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
        let m = evaluate_cell(&cell(None));
        assert!(
            (0.0..1.0).contains(&m.dram_stall_frac),
            "{}",
            m.dram_stall_frac
        );
        // Contention off: no spills, and the simulated cycles are the
        // analytic ones to the bit, so the stall is exactly zero.
        let free = simulate_cell(&cell(None), &SimConfig::no_contention());
        assert_eq!(free.spill_cycles, 0.0);
        assert_eq!(free.sim_cycles.to_bits(), m.adagp_cycles.to_bits());
    }
}
