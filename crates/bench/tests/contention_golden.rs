//! Golden gates for the contention-study subsystem:
//!
//! 1. The `roofline` preset's store CSV (all 13 fig17 models at ImageNet
//!    scale under ADA-GP-MAX, each cell's bandwidth knee among its
//!    metrics) is byte-identical to the committed `runs/roofline.csv` —
//!    the knee search, the tiling-driven spill model and the CSV
//!    formatting cannot drift silently.
//! 2. The `bandwidth-smoke` preset's store CSV is byte-identical to the
//!    committed golden and byte-stable across shared-pool thread counts
//!    {1, 2, 4} — the determinism contract CI re-checks process-wide.

use adagp_sweep::{presets, roofline, runner, store};
use std::path::PathBuf;

fn testdata(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("testdata/{name}"))
}

#[test]
fn roofline_knee_per_fig17_model_matches_committed_golden_bytes() {
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../runs/roofline.csv");
    let golden = std::fs::read_to_string(committed).expect("committed run");
    let run = runner::run_grid(&presets::roofline());
    let fresh = store::to_csv_string(&run);
    assert_eq!(
        fresh, golden,
        "the roofline run drifted from runs/roofline.csv; if the contention \
         model changed intentionally, regenerate it with `cargo run --release \
         -p adagp-bench --bin sweep -- run roofline --quiet --csv \
         runs/roofline.csv` and explain the delta in the PR"
    );
    // The headline claim of the study: every fig17 model has a *finite*
    // knee and a nonzero spill under the default 128K-word buffer.
    for c in &run.cells {
        assert!(
            c.metrics.knee_words_per_cycle < roofline::KNEE_MAX_BW as f64,
            "{}: knee hit the search cap",
            c.spec.key()
        );
        assert!(
            c.metrics.spill_cycles > 0.0,
            "{}: expected spills",
            c.spec.key()
        );
    }
}

#[test]
fn bandwidth_smoke_csv_matches_committed_golden_across_thread_counts() {
    let golden = std::fs::read_to_string(testdata("bandwidth_smoke_golden.csv"))
        .expect("committed bandwidth golden");
    let grid = presets::bandwidth_smoke();
    for threads in [1, 2, 4] {
        let fresh =
            adagp_runtime::with_threads(threads, || store::to_csv_string(&runner::run_grid(&grid)));
        assert_eq!(
            fresh, golden,
            "bandwidth-smoke CSV drifted at ADAGP_THREADS={threads}; if the \
             contention model changed intentionally, regenerate it with \
             `cargo run --release -p adagp-bench --bin sweep -- run \
             bandwidth-smoke --quiet --csv \
             crates/bench/testdata/bandwidth_smoke_golden.csv` and explain \
             the delta in the PR"
        );
    }
}

#[test]
fn bandwidth_grid_shows_the_contention_gradient() {
    // Within the committed bandwidth-smoke golden: at a fixed buffer,
    // higher bandwidth never slows the simulated run; at a fixed
    // bandwidth, a bigger buffer never spills more.
    let golden = store::StoredRun::load(&testdata("bandwidth_smoke_golden.csv")).expect("loads");
    let metric = |name: &str| {
        store::METRICS
            .iter()
            .position(|m| m.name == name)
            .expect("known metric")
    };
    let (sim_i, spill_i) = (metric("sim_cycles"), metric("spill_cycles"));
    for a in &golden.cells {
        for b in &golden.cells {
            if a.axes[..5] == b.axes[..5] && a.axes[6] == b.axes[6] {
                let (bw_a, bw_b): (u64, u64) =
                    (a.axes[5].parse().unwrap(), b.axes[5].parse().unwrap());
                if bw_a < bw_b {
                    assert!(
                        a.metrics[sim_i] >= b.metrics[sim_i],
                        "{}: more bandwidth slowed the sim",
                        a.key()
                    );
                }
            }
            if a.axes[..6] == b.axes[..6] {
                let (buf_a, buf_b): (u64, u64) =
                    (a.axes[6].parse().unwrap(), b.axes[6].parse().unwrap());
                if buf_a < buf_b {
                    assert!(
                        a.metrics[spill_i] >= b.metrics[spill_i],
                        "{}: a smaller buffer spilled less",
                        a.key()
                    );
                }
            }
        }
    }
}
