//! Build-once / replay-many against rebuild-every-time, on real grids:
//!
//! 1. For all 117 `fig17-ws` cells × {Baseline, BP, GP} × a spread of
//!    bandwidths, one compiled [`BatchGraph`] re-timed to the bandwidth
//!    runs exactly — stats and full trace — as a `simulate_batch` freshly
//!    built there.
//! 2. For every distinct [`KneeMemoKey`] of the eight benchmark presets,
//!    [`cell_knee`] (which replays one set of graphs per search) equals
//!    the rebuild-per-probe full-range bisection this crate used to run,
//!    kept here as the oracle — including its contention-free reference,
//!    a `no_contention` *simulation* where the production path now takes
//!    the closed form. At one w/c below the knee, at the knee and at
//!    twice the knee, the search's longest-path floor of a freshly built
//!    pair of graphs must not exceed the oracle's simulated cycles.

use adagp_accel::layer_cost::PredictorCostModel;
use adagp_accel::speedup::EpochMix;
use adagp_accel::{AcceleratorConfig, AdaGpDesign, Dataflow};
use adagp_sim::{
    epoch_total, model_sim_layers, simulate_batch, AdaGpGraphs, BatchGraph, Phase, SimConfig,
    SimLayer,
};
use adagp_sweep::roofline::{KNEE_MAX_BW, KNEE_TOLERANCE};
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::{cell_knee, cell_sim_config, presets, CellSpec, KneeMemoKey};
use std::collections::HashSet;

/// `spec`'s simulator layers under `cfg`, from the same shapes, accelerator
/// config and predictor cost model as a sweep cell.
fn cell_layers(spec: &CellSpec, cfg: &SimConfig) -> Vec<SimLayer> {
    model_sim_layers(
        &AcceleratorConfig::default(),
        spec.dataflow,
        &PredictorCostModel::default(),
        &cached_shapes(spec.model, spec.dataset.input_scale()),
        cfg,
    )
}

#[test]
fn fig17_replays_equal_fresh_builds_at_every_bandwidth() {
    let cells = presets::speedup_figure(Dataflow::WeightStationary).expand();
    assert_eq!(cells.len(), 117, "fig17 grid changed shape");
    let base = SimConfig::default();
    let checked: usize = adagp_runtime::pool()
        .parallel_map(cells, |spec| {
            let cfg = cell_sim_config(&spec, &base);
            let layers = cell_layers(&spec, &cfg);
            let mut checked = 0;
            for (phase, design) in [
                (Phase::Baseline, None),
                (Phase::Bp, Some(spec.design)),
                (Phase::Gp, Some(spec.design)),
            ] {
                let mut graph = BatchGraph::build(phase, design, &layers, &cfg);
                for bw in [1, 2, 3, 7, 18, 64, 1 << 20] {
                    let context = format!("{} {} at {bw} w/c", spec.key(), phase.name());
                    let fresh = simulate_batch(phase, design, &layers, &cfg.with_bandwidth(bw));
                    graph.set_bandwidth(bw);
                    assert_eq!(graph.run(), fresh.stats, "{context}: untraced stats");
                    let replayed = graph.clone().simulate();
                    assert_eq!(replayed.stats, fresh.stats, "{context}: traced stats");
                    let (r, f) = (&replayed.result, &fresh.result);
                    assert_eq!(r.busy, f.busy, "{context}: busy");
                    assert_eq!(r.buffer_curve, f.buffer_curve, "{context}: buffer curve");
                    assert_eq!(r.spans, f.spans, "{context}: spans");
                    assert_eq!(r.ready_of, f.ready_of, "{context}: ready_of");
                    assert_eq!(r.unblocked_by, f.unblocked_by, "{context}: unblocked_by");
                    checked += 1;
                }
            }
            checked
        })
        .into_iter()
        .sum();
    assert_eq!(checked, 117 * 3 * 7);
}

/// The oracle's training cycles: two graph builds per call.
fn rebuilt_training_cycles(
    design: AdaGpDesign,
    layers: &[SimLayer],
    mix: &EpochMix,
    cfg: &SimConfig,
) -> f64 {
    let bp = simulate_batch(Phase::Bp, Some(design), layers, cfg).makespan() as f64;
    let gp = simulate_batch(Phase::Gp, Some(design), layers, cfg).makespan() as f64;
    epoch_total(mix, bp, gp)
}

/// The knee search as it was before graphs were replayed: a simulated
/// contention-free reference and a full-range bisection that rebuilds
/// both batch graphs at every probe.
fn rebuilt_knee(spec: &CellSpec, base: &SimConfig, tolerance: f64) -> u64 {
    let cfg = cell_sim_config(spec, base);
    let layers = cell_layers(spec, &cfg);
    let mix = spec.schedule.mix();
    let free = rebuilt_training_cycles(
        spec.design,
        &layers,
        &mix,
        &SimConfig {
            batch: cfg.batch,
            ..SimConfig::no_contention()
        },
    );
    let target = free * (1.0 + tolerance);
    let at = |bw: u64| rebuilt_training_cycles(spec.design, &layers, &mix, &cfg.with_bandwidth(bw));
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

#[test]
fn cell_knee_equals_the_rebuild_per_probe_oracle_on_every_preset_key() {
    let base = SimConfig::default();
    let mut seen = HashSet::new();
    let cells: Vec<CellSpec> = [
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
    assert_eq!(cells.len(), 308, "distinct knee keys of the eight presets");
    let mismatches: Vec<String> = adagp_runtime::pool()
        .parallel_map(cells, |spec| {
            let got = cell_knee(&spec, &base, KNEE_TOLERANCE);
            let want = rebuilt_knee(&spec, &base, KNEE_TOLERANCE);
            if got != want {
                return Some(format!("{}: knee {got}, oracle {want}", spec.key()));
            }
            let cfg = cell_sim_config(&spec, &base);
            let layers = cell_layers(&spec, &cfg);
            let mix = spec.schedule.mix();
            [want - 1, want, 2 * want]
                .into_iter()
                .filter(|bw| (1..=KNEE_MAX_BW).contains(bw))
                .find_map(|bw| {
                    let cfg = cfg.with_bandwidth(bw);
                    let floor =
                        AdaGpGraphs::build(spec.design, &layers, &cfg).training_cycles_floor(&mix);
                    let cycles = rebuilt_training_cycles(spec.design, &layers, &mix, &cfg);
                    (floor > cycles).then(|| {
                        format!(
                            "{} at {bw} w/c: floor {floor} > cycles {cycles}",
                            spec.key()
                        )
                    })
                })
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn contention_off_base_searches_through_the_compiled_path() {
    // `cell_sim_config` lets a contention-off base win over the cell's
    // overrides, so the cell's own graphs have no DRAM tasks to re-time;
    // the search must still probe `with_bandwidth` configurations — and
    // a looser tolerance keys a separate memo slot.
    let base = SimConfig::no_contention();
    for spec in presets::smoke().expand() {
        for tolerance in [KNEE_TOLERANCE, 0.05] {
            assert_eq!(
                cell_knee(&spec, &base, tolerance),
                rebuilt_knee(&spec, &base, tolerance),
                "{} at tolerance {tolerance}",
                spec.key()
            );
        }
    }
}
