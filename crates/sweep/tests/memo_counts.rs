//! What a sweep simulates, counted: the eight presets of the benchmark's
//! `sweep_cold` workload (771 cells, 633 distinct) ask the simulator for
//! 485 distinct pairs of BP / GP batches and 308 distinct roofline knees.
//! A first pass runs each exactly once, a second pass none. The 308 knee
//! searches replay their graphs 316 times in all: the longest-path floor
//! puts 300 knees at the first bandwidth replayed and the other 8 one
//! above it (3 235 replays before the search had a floor). The counts
//! hold on 2 threads, where two cells of one key can meet: the later one
//! waits for the earlier one's value instead of computing it again.
//!
//! The counters and gauges are process-global, so this test has a binary
//! of its own: no other test's evaluations move them.

use adagp_runtime::with_threads;
use adagp_sweep::{presets, run_grid};

const PRESETS: [&str; 8] = [
    "fig17-ws",
    "fig18-rs",
    "fig19-is",
    "dataflows",
    "schedules",
    "bandwidth",
    "energy",
    "roofline",
];

#[test]
fn the_eight_presets_simulate_each_batch_pair_and_search_each_knee_once() {
    let registry = adagp_obs::registry();
    let sims = registry.counter("sweep_sim_runs_total");
    let knees = registry.counter("sweep_knee_searches_total");
    let probes = registry.counter("sweep_knee_probes_total");
    let sim_entries = registry.gauge("sweep_sim_memo_entries");
    let knee_entries = registry.gauge("sweep_knee_memo_entries");
    // Two threads, as the benchmark runs: every miss is still a distinct
    // key.
    let pass = || {
        with_threads(2, || {
            PRESETS
                .iter()
                .map(|name| {
                    run_grid(&presets::by_name(name).expect("known preset"))
                        .cells
                        .len()
                })
                .sum::<usize>()
        })
    };
    assert_eq!(pass(), 771);
    assert_eq!((sims.get(), knees.get()), (485, 308), "first pass");
    assert_eq!(probes.get(), 316, "replayed knee probes, first pass");
    assert_eq!((sim_entries.get(), knee_entries.get()), (485, 308));
    assert_eq!(pass(), 771);
    assert_eq!((sims.get(), knees.get()), (485, 308), "second pass");
    assert_eq!(probes.get(), 316, "replayed knee probes, second pass");
    assert_eq!((sim_entries.get(), knee_entries.get()), (485, 308));
    let text = registry.render("adagp_");
    for line in [
        "adagp_sweep_sim_runs_total 485",
        "adagp_sweep_knee_searches_total 308",
        "adagp_sweep_knee_probes_total 316",
        "adagp_sweep_sim_memo_entries 485",
        "adagp_sweep_knee_memo_entries 308",
    ] {
        assert!(text.lines().any(|l| l == line), "{line} not in\n{text}");
    }
}
