//! Golden-file gates for the sweep engine:
//!
//! 1. The `smoke` preset's CSV must be byte-identical to the committed
//!    golden file — grid expansion, cell IDs, metric math and CSV
//!    formatting cannot drift silently.
//! 2. Every committed run under `runs/` regenerates bit for bit: its CSV
//!    byte for byte, its JSON record byte for byte but for the wall
//!    times. A change that moves a committed figure fails here.
//! 3. `sweep diff` of two identical runs reports zero regressions, and a
//!    perturbed run is flagged.
//! 4. The fig17 preset reproduces, bit-exactly, the per-model speed-up
//!    numbers the standalone figure binaries computed before the engine
//!    existed (direct `adagp_accel::speedup::training_speedup` calls).

use adagp_accel::speedup::{training_speedup, EpochMix};
use adagp_accel::{AcceleratorConfig, Dataflow};
use adagp_sweep::shapes::cached_shapes;
use adagp_sweep::{diff, presets, runner, store, DiffConfig, StoredRun};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/sweep_smoke_golden.csv")
}

#[test]
fn smoke_csv_matches_committed_golden_bytes() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden CSV");
    let fresh = store::to_csv_string(&runner::run_grid(&presets::smoke()));
    assert_eq!(
        fresh, golden,
        "smoke sweep CSV drifted from testdata/sweep_smoke_golden.csv; if the \
         cycle/energy model changed intentionally, regenerate it with \
         `cargo run -p adagp-bench --bin sweep -- run smoke --csv \
         crates/bench/testdata/sweep_smoke_golden.csv` and explain the delta \
         in the PR"
    );
}

/// How to refresh `runs/` after an intentional model change (the loop
/// in `runs/README.md`).
const REFRESH_RUNS: &str = "if the model changed intentionally, regenerate runs/ with
  for f in fig17-ws fig18-rs fig19-is roofline bandwidth; do
    cargo run --release -p adagp-bench --bin sweep -- run $f --quiet \\
      --csv runs/$f.csv --json runs/$f.json
  done
and explain the delta in the PR";

/// The JSON record with every `wall_micros` and `total_wall_micros`
/// value read as 0: the only fields two runs of the same code differ in.
fn zero_timings(json: &str) -> String {
    json.split_inclusive('\n')
        .map(|line| match line.split_once(": ") {
            Some((key, value))
                if matches!(key.trim(), "\"wall_micros\"" | "\"total_wall_micros\"") =>
            {
                let rest = value.trim_start_matches(|c: char| c.is_ascii_digit());
                format!("{key}: 0{rest}")
            }
            _ => line.to_string(),
        })
        .collect()
}

/// Asserts `fresh` equals the committed `file`, naming the first line
/// that differs.
fn assert_regenerates(file: &str, committed: &str, fresh: &str) {
    let (mut old, mut new) = (committed.split_inclusive('\n'), fresh.split_inclusive('\n'));
    for line in 1.. {
        match (old.next(), new.next()) {
            (None, None) => return,
            (a, b) if a == b => {}
            (a, b) => panic!(
                "{file} differs from a fresh run at line {line}:\n  committed: {:?}\n  \
                 fresh:     {:?}\n{REFRESH_RUNS}",
                a.unwrap_or("<end of file>"),
                b.unwrap_or("<end of file>")
            ),
        }
    }
}

/// Every committed run is what its preset computes today: the CSV byte
/// for byte (stricter than `sweep diff`'s tolerance verdict), the JSON
/// record byte for byte but for its wall times. The record's floats are
/// shortest-round-trip, so equal bytes are equal bits in every metric.
#[test]
fn every_committed_run_regenerates_bit_for_bit() {
    let runs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../runs");
    let mut stems: Vec<String> = std::fs::read_dir(&runs)
        .expect("runs/ directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("csv" | "json")))
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
        .collect();
    stems.sort();
    stems.dedup();
    assert!(stems.len() >= 5, "committed runs missing: {stems:?}");
    for stem in &stems {
        let grid = presets::by_name(stem).unwrap_or_else(|| panic!("runs/{stem}: no preset"));
        let run = runner::run_grid(&grid);
        let read = |ext: &str| {
            std::fs::read_to_string(runs.join(format!("{stem}.{ext}")))
                .unwrap_or_else(|e| panic!("runs/{stem}.{ext}: {e}"))
        };
        assert_regenerates(
            &format!("runs/{stem}.csv"),
            &read("csv"),
            &store::to_csv_string(&run),
        );
        assert_regenerates(
            &format!("runs/{stem}.json"),
            &zero_timings(&read("json")),
            &zero_timings(&store::to_json_string(&run)),
        );
    }
}

#[test]
fn identical_runs_diff_clean_and_perturbed_runs_are_flagged() {
    let golden = StoredRun::load(&golden_path()).expect("golden loads");
    let fresh = StoredRun::from_run(&runner::run_grid(&presets::smoke()));
    let clean = diff::diff_runs(&golden, &fresh, &DiffConfig::default());
    assert!(!clean.has_regressions(), "{}", clean.render());
    assert!(clean.improvements.is_empty(), "{}", clean.render());
    assert_eq!(clean.matched_cells, 4);

    // Perturb one speed-up downward: must be reported as a regression.
    let mut perturbed = fresh.clone();
    perturbed.cells[0].metrics[0] *= 0.95;
    let report = diff::diff_runs(&golden, &perturbed, &DiffConfig::default());
    assert!(report.has_regressions());
    assert_eq!(report.regressions.len(), 1);
    assert_eq!(report.regressions[0].metric.name, "speedup");
}

#[test]
fn fig17_preset_reproduces_the_standalone_binary_numbers() {
    // The pre-engine fig17 binary computed, per (dataset, model, design),
    // training_speedup(default cfg, WS, design, model_shapes, paper mix).
    // The engine must produce the same f64s, bit for bit.
    let run = runner::run_grid(&presets::speedup_figure(Dataflow::WeightStationary));
    assert_eq!(run.cells.len(), 117);
    let cfg = AcceleratorConfig::default();
    let mix = EpochMix::paper();
    for cell in &run.cells {
        let layers = cached_shapes(cell.spec.model, cell.spec.dataset.input_scale());
        let expected = training_speedup(
            &cfg,
            Dataflow::WeightStationary,
            cell.spec.design,
            &layers,
            &mix,
        );
        assert_eq!(
            cell.metrics.speedup.to_bits(),
            expected.to_bits(),
            "{}: engine {} vs direct {}",
            cell.spec.key(),
            cell.metrics.speedup,
            expected
        );
    }
}
