//! What a sweep simulates, counted: the eight presets of the benchmark's
//! `sweep_cold` workload (771 cells, 633 distinct) ask the simulator for
//! 485 distinct pairs of BP / GP batches and 308 distinct roofline knees.
//! A first pass runs each exactly once, a second pass none. The 308 knee
//! searches replay their graphs 316 times in all: the longest-path floor
//! puts 300 knees at the first bandwidth replayed and the other 8 one
//! above it (3 235 replays before the search had a floor). The cells run
//! in groups that differ only in bandwidth and schedule, and a group
//! compiles its BP and GP graphs once: 312 groups, 624 graphs (1 006 when
//! every cell that missed compiled its own). The counts hold at 1, 2 and
//! 3 pool threads: no two groups of one call share a key, and a cell
//! whose key another call is computing waits for its value instead of
//! computing it again.
//!
//! The counters and gauges are process-global, so this test has a binary
//! of its own, and runs each pool size in a fresh process of it: no other
//! evaluation moves them.

use adagp_runtime::with_threads;
use adagp_sweep::{presets, run_grid};
use std::process::Command;

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

/// Names the pool size a child process checks the counts at.
const THREADS_ENV: &str = "MEMO_COUNTS_THREADS";

/// Two passes over the eight presets on `threads` threads, in a process
/// that has evaluated nothing yet, with the counts after each.
fn check_counts(threads: usize) {
    let registry = adagp_obs::registry();
    let sims = registry.counter("sweep_sim_runs_total");
    let knees = registry.counter("sweep_knee_searches_total");
    let probes = registry.counter("sweep_knee_probes_total");
    let builds = registry.counter("sweep_graph_builds_total");
    let sim_entries = registry.gauge("sweep_sim_memo_entries");
    let knee_entries = registry.gauge("sweep_knee_memo_entries");
    let pass = || {
        with_threads(threads, || {
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
    for name in ["first pass", "second pass"] {
        assert_eq!(pass(), 771);
        assert_eq!((sims.get(), knees.get()), (485, 308), "{name}");
        assert_eq!(probes.get(), 316, "replayed knee probes, {name}");
        assert_eq!(builds.get(), 624, "compiled graphs, {name}");
        assert_eq!((sim_entries.get(), knee_entries.get()), (485, 308));
    }
    let text = registry.render("adagp_");
    for line in [
        "adagp_sweep_sim_runs_total 485",
        "adagp_sweep_knee_searches_total 308",
        "adagp_sweep_knee_probes_total 316",
        "adagp_sweep_graph_builds_total 624",
        "adagp_sweep_sim_memo_entries 485",
        "adagp_sweep_knee_memo_entries 308",
    ] {
        assert!(text.lines().any(|l| l == line), "{line} not in\n{text}");
    }
}

#[test]
fn the_eight_presets_simulate_each_batch_pair_and_search_each_knee_once() {
    if let Ok(threads) = std::env::var(THREADS_ENV) {
        return check_counts(threads.parse().expect("a pool size"));
    }
    for threads in [1, 2, 3] {
        let out = Command::new(std::env::current_exe().expect("this test binary"))
            .args([
                "the_eight_presets_simulate_each_batch_pair_and_search_each_knee_once",
                "--exact",
                "--nocapture",
            ])
            .env(THREADS_ENV, threads.to_string())
            .output()
            .expect("run this test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains(" 1 passed"),
            "at {threads} threads:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
