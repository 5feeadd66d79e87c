//! Golden gates for the contention-study subsystem:
//!
//! 1. Every fig17 model in the `roofline` preset (ImageNet scale,
//!    ADA-GP-MAX) has a finite bandwidth knee and spills under the
//!    default 128K-word buffer. `runs/roofline.csv` and `.json` are
//!    pinned bit for bit with the other committed runs, by
//!    `sweep_golden.rs::every_committed_run_regenerates_bit_for_bit`.
//! 2. The `bandwidth-smoke` preset's store CSV is byte-identical to the
//!    committed golden and byte-stable across shared-pool thread counts
//!    {1, 2, 4}.

use adagp_sweep::{presets, roofline, runner, store};
use std::path::PathBuf;

fn testdata(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("testdata/{name}"))
}

#[test]
fn roofline_run_has_a_finite_knee_and_spills_for_every_fig17_model() {
    let run = runner::run_grid(&presets::roofline());
    assert_eq!(run.cells.len(), 13);
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
