//! The `sweep_cold` workload: what `sweep run <preset>` costs a user. Every
//! pass is a fresh process (the roofline knee memo and the shape cache are
//! process-global with no public reset): the eight presets once cold, then
//! several times warm. A traced run re-issues `evaluate_cell` from its
//! public pieces and probes `accel`, `sim` and the store/shard-log side of
//! `sweep`.

use crate::alloc::counted;
use crate::probes::time_reps;
use crate::report::{Metric, Samples};
use crate::stats::{hi_percentile, median, percentile};
use crate::trace::Tracer;
use adagp_accel::energy::{adagp_energy_joules, baseline_energy_joules, EnergyConfig};
use adagp_accel::layer_cost::PredictorCostModel;
use adagp_accel::speedup::{adagp_training_cycles, baseline_training_cycles};
use adagp_accel::AcceleratorConfig;
use adagp_sim::{model_sim_layers, simulate_batch, SimConfig, StepSim};
use adagp_sweep::roofline::KNEE_TOLERANCE;
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::simeval::cell_sim_config;
use adagp_sweep::store::{to_csv_string, to_json_string};
use adagp_sweep::{
    cell_knee, evaluate_cell, load_shard, merge_to_run, presets, run_grid, run_sharded,
    simulate_cell, CellMetrics, CellResult, CellSpec, GridSpec, KneeMemoKey, Shard, ShardWriter,
    StoredCell, StoredRun, SweepRun,
};
use adagp_tensor::Prng;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The presets a pass runs: 771 cells, 633 distinct IDs.
pub const PRESETS: [&str; 8] = [
    "fig17-ws",
    "fig18-rs",
    "fig19-is",
    "dataflows",
    "schedules",
    "bandwidth",
    "energy",
    "roofline",
];

/// Presets whose CSV is committed under `runs/` and must be reproduced
/// byte for byte.
const GOLDEN: [&str; 4] = ["fig17-ws", "fig18-rs", "fig19-is", "bandwidth"];

/// Warm repetitions per pass.
const WARM_REPS: usize = 3;

/// Fresh-process passes of a run `scale` times the reference length.
pub fn passes(scale: f64) -> usize {
    ((4.0 * scale).round() as usize).max(1)
}

/// The presets in the order `seed` puts them.
pub fn seeded_presets(seed: u64) -> Vec<GridSpec> {
    let mut names = PRESETS.to_vec();
    Prng::seed_from_u64(crate::mix_seed(seed, 5)).shuffle(&mut names);
    names
        .into_iter()
        .map(|n| presets::by_name(n).expect("PRESETS names existing presets"))
        .collect()
}

/// Nanoseconds since the Unix epoch: the clock a parent and its child
/// share, for timing process start.
pub fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// FNV-1a over every cell's `sim_cycles` bits, kept to 53 bits so it
/// survives a trip through a JSON number.
fn cycles_checksum<'a>(cells: impl Iterator<Item = &'a CellMetrics>) -> f64 {
    let bytes = cells.flat_map(|m| m.sim_cycles.to_bits().to_le_bytes());
    (crate::fnv1a(bytes) >> 11) as f64
}

/// Every distinct cell of the preset universe, in the order `seed` puts the
/// presets.
pub fn distinct_cells(seed: u64) -> Vec<CellSpec> {
    let mut seen = HashSet::new();
    seeded_presets(seed)
        .iter()
        .flat_map(GridSpec::expand)
        .filter(|c| seen.insert(c.id.clone()))
        .collect()
}

fn golden_matches(name: &str, csv: &str) -> Result<(), String> {
    let path = format!("runs/{name}.csv");
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("read {path} (run from the repository root): {e}"))?;
    if committed == csv {
        Ok(())
    } else {
        Err(format!("CSV differs from {path}"))
    }
}

/// Processes started per run only to time set-up (process start + expansion
/// of every preset), beside the passes' own.
pub const SETUP_ONLY_RUNS: usize = 8;

/// One untraced pass, in a process that has evaluated nothing yet. With
/// `setup_only` it stops once set-up has been timed.
pub fn run_pass(seed: u64, spawned_at_ns: u128, setup_only: bool) -> Samples {
    let mut out = Samples::default();
    let grids = seeded_presets(seed);
    let cells: usize = grids.iter().map(|g| black_box(g.expand()).len()).sum();
    out.push(
        "setup_s",
        (epoch_ns().saturating_sub(spawned_at_ns)) as f64 / 1e9,
    );
    if setup_only {
        return out;
    }

    let mut cold_csv = Vec::new();
    let mut cold_runs = Vec::new();
    let t = Instant::now();
    for grid in &grids {
        let run = run_grid(grid);
        cold_csv.push(to_csv_string(&run));
        cold_runs.push(run);
    }
    out.push("cold_cells_per_s", cells as f64 / t.elapsed().as_secs_f64());
    out.attempt(cells as u64);
    let all = |runs: &[SweepRun]| -> Vec<CellResult> {
        runs.iter().flat_map(|r| r.cells.iter().cloned()).collect()
    };
    let cold_cells = all(&cold_runs);
    out.extend(
        "cold_cell_ms",
        cold_cells.iter().map(|c| c.wall_micros as f64 / 1e3),
    );
    let checksum = cycles_checksum(cold_cells.iter().map(|c| &c.metrics));
    out.push("cycles_checksum", checksum);

    let mut warm_ok = Ok(());
    for _ in 0..WARM_REPS {
        let t = Instant::now();
        for (grid, cold) in grids.iter().zip(&cold_csv) {
            let run = run_grid(grid);
            if &to_csv_string(&run) != cold && warm_ok.is_ok() {
                warm_ok = Err(format!(
                    "warm CSV of {} differs from the cold one",
                    grid.name
                ));
            }
            out.extend(
                "warm_cell_ms",
                run.cells.iter().map(|c| c.wall_micros as f64 / 1e3),
            );
        }
        out.push("warm_cells_per_s", cells as f64 / t.elapsed().as_secs_f64());
    }
    out.attempt((WARM_REPS * cells) as u64);

    out.check("warm == cold", warm_ok);
    for (grid, csv) in grids.iter().zip(&cold_csv) {
        if GOLDEN.contains(&grid.name.as_str()) {
            out.check(
                &format!("golden {}", grid.name),
                golden_matches(&grid.name, csv),
            );
        }
    }
    out
}

/// Checks that hold across the passes of one run.
pub fn cross_pass_checks(s: &mut Samples) {
    let sums = s.get("cycles_checksum").to_vec();
    let same = sums.windows(2).all(|w| w[0] == w[1]);
    s.check(
        "sim_cycles checksum repeats",
        if same {
            Ok(())
        } else {
            Err(format!("{sums:?}"))
        },
    );
}

/// End-to-end metrics of the pooled untraced passes.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    let (cold, warm) = (s.get("cold_cell_ms"), s.get("warm_cell_ms"));
    vec![
        Metric::new(
            "fast_ops_per_s",
            median(s.get("warm_cells_per_s")),
            s.get("warm_cells_per_s").len(),
            "warm_cells_per_s: cells/s of one warm pass over the eight presets, median over passes and processes",
        ),
        Metric::new(
            "cold_ops_per_s",
            median(s.get("cold_cells_per_s")),
            s.get("cold_cells_per_s").len(),
            "cold_cells_per_s: cells/s of run_grid in a fresh process, median over processes",
        ),
        Metric::new(
            "fast_op_ms_p50",
            median(warm),
            warm.len(),
            "warm_cell_ms_p50: CellResult::wall_micros of warm-pass cells",
        ),
        Metric::new(
            "cold_op_ms_p50",
            median(cold),
            cold.len(),
            "cold_cell_ms_p50: CellResult::wall_micros of cold-pass cells",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// `evaluate_cell` re-issued from its public pieces, with a span around
/// every call; the traced run checks the result equals `evaluate_cell`'s.
fn traced_cell(tr: &mut Tracer, spec: &CellSpec) -> CellMetrics {
    let cell = tr.begin("sweep", "cell");
    let layers = tr.span("sweep", "shapes", || {
        cached_shapes(spec.model, spec.dataset.input_scale())
    });
    let cfg = AcceleratorConfig::default();
    let mix = spec.schedule.mix();
    let analytic = tr.begin("sweep", "analytic");
    let (baseline_cycles, adagp_cycles) = tr.span("accel", "cycles", || {
        (
            baseline_training_cycles(&cfg, spec.dataflow, &layers, &mix),
            adagp_training_cycles(&cfg, spec.dataflow, spec.design, &layers, &mix),
        )
    });
    let ecfg = EnergyConfig::default();
    let (baseline_energy_j, adagp_energy_j) = tr.span("accel", "energy", || {
        (
            baseline_energy_joules(&ecfg, &layers, &mix),
            adagp_energy_joules(&ecfg, &layers, &mix, spec.design),
        )
    });
    tr.end(analytic);
    let base = SimConfig::default();
    let sim = tr.span("sim", "simulate_cell", || simulate_cell(spec, &base));
    let knee = tr.span("sweep", "cell_knee", || {
        cell_knee(spec, &base, KNEE_TOLERANCE)
    });
    tr.end(cell);
    CellMetrics {
        speedup: baseline_cycles / adagp_cycles,
        baseline_cycles,
        adagp_cycles,
        baseline_energy_j,
        adagp_energy_j,
        sim_cycles: sim.sim_cycles,
        pe_utilization: sim.pe_utilization,
        overlap_efficiency: sim.overlap_efficiency,
        spill_cycles: sim.spill_cycles,
        dram_stall_frac: ((sim.sim_cycles - adagp_cycles) / sim.sim_cycles).max(0.0),
        knee_words_per_cycle: knee as f64,
    }
}

/// The traced run, in a process that has evaluated nothing yet: every cell
/// once cold under spans (one thread), then warm traced and untraced, then
/// the probes.
pub fn run_traced(seed: u64, out_dir: &Path) -> Samples {
    let mut out = Samples::default();
    crate::shared_probes(&mut out);
    let grids = seeded_presets(seed);
    let specs: Vec<CellSpec> = grids.iter().flat_map(GridSpec::expand).collect();
    let base = SimConfig::default();

    // Cold: which knee searches miss the memo is known from the key.
    let mut cold = Tracer::new(true);
    let mut seen = HashSet::new();
    let mut knee_is_cold = Vec::with_capacity(specs.len());
    let mut results = Vec::with_capacity(specs.len());
    for (op, spec) in specs.iter().enumerate() {
        cold.set_op(op as u64);
        let key = KneeMemoKey::new(spec, &cell_sim_config(spec, &base), KNEE_TOLERANCE);
        knee_is_cold.push(seen.insert(key));
        results.push(traced_cell(&mut cold, spec));
    }
    out.attempt(specs.len() as u64);

    // Warm, cell by cell: the real `evaluate_cell` (which must agree with
    // the traced result), then the re-issued cell under spans, alternating
    // so host drift hits both alike.
    let mut warm = Tracer::new(true);
    let mut mismatch = None;
    for (op, (spec, traced)) in specs.iter().zip(&results).enumerate() {
        let t = Instant::now();
        let (direct, allocs, _) = counted(|| evaluate_cell(spec));
        out.push("u_warm_us", t.elapsed().as_secs_f64() * 1e6);
        out.push("warm_allocs", allocs as f64);
        if direct != *traced && mismatch.is_none() {
            mismatch = Some(spec.key());
        }
        warm.set_op(op as u64);
        black_box(traced_cell(&mut warm, spec));
    }
    out.check(
        "traced cell == evaluate_cell",
        mismatch.map_or(Ok(()), |k| Err(format!("cell {k} differs"))),
    );
    out.attempt(2 * specs.len() as u64);

    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let cell_us = sum(&cold.durations_us("cell"));
    let knee_us = cold.durations_us("cell_knee");
    let cold_knee_ms: Vec<f64> = knee_us
        .iter()
        .zip(&knee_is_cold)
        .filter(|(_, cold)| **cold)
        .map(|(us, _)| us / 1e3)
        .collect();
    let (cycles_us, energy_us) = (cold.durations_us("cycles"), cold.durations_us("energy"));
    let u_warm = median(out.get("u_warm_us"));
    let scalars = [
        ("accel.cycles_call_us", median(&cycles_us)),
        ("accel.energy_call_us", median(&energy_us)),
        (
            "accel.share_of_cold_cell",
            (sum(&cycles_us) + sum(&energy_us)) / cell_us,
        ),
        ("sweep.analytic_us", median(&cold.durations_us("analytic"))),
        (
            "sweep.simulate_cell_us",
            median(&cold.durations_us("simulate_cell")),
        ),
        ("sweep.knee_cold_ms", median(&cold_knee_ms)),
        ("sweep.knee_hit_us", median(&warm.durations_us("cell_knee"))),
        (
            "sweep.share_analytic",
            (sum(&cold.durations_us("analytic")) + sum(&cold.durations_us("shapes"))) / cell_us,
        ),
        (
            "sweep.share_sim",
            sum(&cold.durations_us("simulate_cell")) / cell_us,
        ),
        ("sweep.share_knee", sum(&knee_us) / cell_us),
        ("sweep.warm_cell_us", u_warm),
        ("sweep.allocs_per_warm_cell", median(out.get("warm_allocs"))),
        ("sim.cycles_checksum", cycles_checksum(results.iter())),
        (
            "bench.trace_overhead_frac",
            median(&warm.durations_us("cell")) / u_warm - 1.0,
        ),
    ];
    for (k, v) in scalars {
        out.push(k, v);
    }
    let (p, hi) = hi_percentile(&cold.durations_ms("cell"));
    out.push("sweep.cold_cell_ms_hi", hi);
    out.push("sweep.cold_cell_ms_hi.percentile", p);

    let expand_s = median(&time_reps(20, || {
        for g in &grids {
            black_box(g.expand());
        }
    }));
    out.push(
        "sweep.expand_us_per_cell",
        expand_s / specs.len() as f64 * 1e6,
    );
    store_probes(&mut out, &specs, &results);
    sim_probes(&mut out, &specs);
    let stored: Vec<StoredCell> = specs
        .iter()
        .zip(&results)
        .map(|(s, m)| StoredCell::from_evaluation(s, m))
        .collect();
    shardlog_probes(&mut out, &stored, &grids, &out_dir.join("sweep-log"));

    let path = out_dir.join("sweep_cold.trace.json");
    if let Err(e) = cold.write(&path, "sweep_cold") {
        out.check("write trace", Err(format!("{}: {e}", path.display())));
    }
    out
}

/// `sweep.csv_cells_per_s`, `json_cells_per_s`, `load_cells_per_s` over one
/// run holding every evaluated cell.
fn store_probes(out: &mut Samples, specs: &[CellSpec], results: &[CellMetrics]) {
    let run = SweepRun {
        grid: "benchmark".to_string(),
        cells: specs
            .iter()
            .zip(results)
            .map(|(spec, metrics)| CellResult {
                spec: spec.clone(),
                metrics: *metrics,
                wall_micros: 0,
            })
            .collect(),
        total_wall_micros: 0,
    };
    let n = run.cells.len() as f64;
    let csv = to_csv_string(&run);
    let rate = |secs: Vec<f64>| n / median(&secs);
    out.push(
        "sweep.csv_cells_per_s",
        rate(time_reps(10, || drop(black_box(to_csv_string(&run))))),
    );
    out.push(
        "sweep.json_cells_per_s",
        rate(time_reps(10, || drop(black_box(to_json_string(&run))))),
    );
    out.push(
        "sweep.load_cells_per_s",
        rate(time_reps(10, || {
            drop(black_box(StoredRun::from_csv_str(&csv)))
        })),
    );
}

/// `sim.*` host-time probes on the first cell of each distinct (dataflow,
/// dataset, model): layer building, one GP batch on the engine, one
/// three-batch `StepSim`.
pub fn sim_probes(out: &mut Samples, specs: &[CellSpec]) {
    let mut seen = HashSet::new();
    let (mut build, mut batch, mut step, mut tasks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for spec in specs {
        if !seen.insert((spec.dataflow.name(), spec.dataset.name(), spec.model.name())) {
            continue;
        }
        let cfg = cell_sim_config(spec, &SimConfig::default());
        let shapes = cached_shapes(spec.model, spec.dataset.input_scale());
        let build_layers = || {
            model_sim_layers(
                &AcceleratorConfig::default(),
                spec.dataflow,
                &PredictorCostModel::default(),
                &shapes,
                &cfg,
            )
        };
        let layers = build_layers();
        build.push(median(&time_reps(3, || drop(black_box(build_layers())))));
        let gp = || simulate_batch(adagp_sim::Phase::Gp, Some(spec.design), &layers, &cfg);
        tasks.push(gp().result.tasks.len() as f64);
        batch.push(median(&time_reps(3, || drop(black_box(gp())))));
        let mix = spec.schedule.mix();
        step.push(median(&time_reps(3, || {
            black_box(StepSim::run(spec.design, &layers, &mix, &cfg));
        })));
    }
    out.push("sim.build_layers_us", median(&build) * 1e6);
    out.push("sim.simulate_batch_us", median(&batch) * 1e6);
    out.push("sim.step_sim_us", median(&step) * 1e6);
    out.push("sim.tasks_per_batch", median(&tasks));
    out.push(
        "sim.tasks_per_s",
        tasks.iter().sum::<f64>() / batch.iter().sum::<f64>(),
    );
}

/// `sweep.log_*` and `resume_skip_cells_per_s`: the cells appended twice
/// (two directories, fsync per record) so the p99 has its ten samples,
/// then the first log loaded, merged and resumed. Removes both
/// directories.
pub fn shardlog_probes(out: &mut Samples, cells: &[StoredCell], grids: &[GridSpec], dir: &Path) {
    let dirs = [dir.to_path_buf(), dir.with_extension("again")];
    let mut append_us = Vec::with_capacity(2 * cells.len());
    let mut io = Ok(());
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
        match ShardWriter::open(d, Shard::default()) {
            Ok(mut w) => {
                for cell in cells {
                    let t = Instant::now();
                    if let Err(e) = w.append(cell) {
                        io = Err(format!("append: {e}"));
                    }
                    append_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            Err(e) => io = Err(format!("open {}: {e}", d.display())),
        }
    }
    out.push("sweep.log_append_us_p50", median(&append_us));
    out.push("sweep.log_append_us_p99", percentile(&append_us, 99.0));

    let log = dirs[0].join(adagp_sweep::shard_file_name(Shard::default()));
    let n = cells.len() as f64;
    let load_s = median(&time_reps(5, || drop(black_box(load_shard(&log)))));
    out.push("sweep.log_load_cells_per_s", n / load_s);
    let largest = grids
        .iter()
        .max_by_key(|g| g.cell_count())
        .expect("at least one preset");
    let merge_s = median(&time_reps(5, || {
        drop(black_box(merge_to_run(&dirs[0], largest)))
    }));
    out.push("sweep.log_merge_ms", merge_s * 1e3);

    let (mut owned, mut secs) = (0usize, 0.0);
    for grid in grids {
        let t = Instant::now();
        match run_sharded(grid, Shard::default(), &dirs[0], 64) {
            Ok(stats) if stats.evaluated == 0 => owned += stats.owned,
            Ok(stats) => {
                io = Err(format!(
                    "resume of {} evaluated {}",
                    grid.name, stats.evaluated
                ))
            }
            Err(e) => io = Err(e),
        }
        secs += t.elapsed().as_secs_f64();
    }
    out.push("sweep.resume_skip_cells_per_s", owned as f64 / secs);
    out.check("shard log append/load/resume", io);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_universe_is_771_cells_633_distinct() {
        let grids = seeded_presets(1);
        let ids: Vec<String> = grids
            .iter()
            .flat_map(GridSpec::expand)
            .map(|c| c.id)
            .collect();
        assert_eq!(ids.len(), 771);
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 633);
        // The seed orders the presets; it never changes the set.
        let names = |seed| {
            let mut n: Vec<String> = seeded_presets(seed).into_iter().map(|g| g.name).collect();
            n.sort();
            n
        };
        assert_eq!(names(1), names(2));
        assert_ne!(
            seeded_presets(1)
                .iter()
                .map(|g| &g.name)
                .collect::<Vec<_>>(),
            seeded_presets(2)
                .iter()
                .map(|g| &g.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn checksum_depends_on_every_cell() {
        let m = |c: f64| CellMetrics {
            speedup: 1.0,
            baseline_cycles: 1.0,
            adagp_cycles: 1.0,
            baseline_energy_j: 1.0,
            adagp_energy_j: 1.0,
            sim_cycles: c,
            pe_utilization: 1.0,
            overlap_efficiency: 1.0,
            spill_cycles: 0.0,
            dram_stall_frac: 0.0,
            knee_words_per_cycle: 1.0,
        };
        let a = [m(1.0), m(2.0)];
        let b = [m(1.0), m(2.5)];
        assert_eq!(cycles_checksum(a.iter()), cycles_checksum(a.iter()));
        assert_ne!(cycles_checksum(a.iter()), cycles_checksum(b.iter()));
        assert!(cycles_checksum(a.iter()) < (1u64 << 53) as f64);
    }
}
