//! Cache-consistency battery for the serve memo store:
//!
//! 1. **Exactly-once evaluation** — any number of concurrent submitters
//!    of the same cell trigger one evaluation; everyone gets bit-exact
//!    copies and the `/metrics` counters account for every request.
//! 2. **Warm start** — a cache warmed from each committed `runs/*`
//!    artifact (CSV and JSON) loads every cell. That the artifacts are
//!    what fresh evaluation computes, bit for bit, is `adagp-bench`'s
//!    `sweep_golden.rs::every_committed_run_regenerates_bit_for_bit`.
//! 3. **Byte-stable log** — restarting on a shard log answers from it
//!    without touching it: the log's bytes survive any number of
//!    shutdown → replay cycles and merge to a standard run file.
//! 4. **Byte-identical hit lines** — a hit streams exactly the line
//!    `wire::cell_line` renders for the memoized metrics, whether the cell
//!    was evaluated, replayed from a shard log or warm-loaded from a CSV,
//!    and a warm reply is its cold reply with `"cached"` flipped.

use adagp_serve::wire::{cell_line, grid_to_value};
use adagp_serve::{
    check_invariants, fetch_metrics, http_request, server, submit_grid, CellCache, ServerConfig,
    ServerHandle,
};
use adagp_sweep::grid::GridSpec;
use adagp_sweep::store::{stored_csv_string, to_csv_string, StoredRun};
use adagp_sweep::{evaluate_cell, merge_to_run, presets, run_grid};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adagp-serve-cache-{}-{name}", std::process::id()))
}

#[test]
fn concurrent_submitters_of_one_cell_observe_exactly_one_evaluation() {
    let server = server::start(ServerConfig {
        workers: 8,
        queue_depth: 64,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    // A single-cell grid every client submits simultaneously.
    let spec = r#"{
        "name": "one-cell",
        "models": ["VGG13"],
        "datasets": ["Cifar10"],
        "designs": ["ADA-GP-Efficient"],
        "dataflows": ["WS"],
        "schedules": ["paper"]
    }"#;
    const CLIENTS: usize = 8;
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(move || submit_grid(addr, spec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").expect("grid accepted"))
            .collect()
    });

    // Every client got the same single cell, bit-identical to a direct
    // evaluation.
    let direct = evaluate_cell(&presets::smoke().expand()[0].clone());
    let direct_bits: Vec<u64> = adagp_sweep::metrics_to_array(&direct)
        .iter()
        .map(|m| m.to_bits())
        .collect();
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.cells.len(), 1, "client {i}");
        assert!(r.cell_errors.is_empty(), "client {i}: {:?}", r.cell_errors);
        let got: Vec<u64> = r.cells[0].metrics.iter().map(|m| m.to_bits()).collect();
        assert_eq!(got, direct_bits, "client {i} metrics drifted");
    }

    // The counters prove single evaluation: of the CLIENTS served cells,
    // exactly one was an evaluation; the rest joined its flight or hit
    // the memoized entry, depending on arrival order.
    let metrics = fetch_metrics(addr).expect("metrics scrape");
    assert_eq!(check_invariants(&metrics), None);
    assert_eq!(metrics["evaluations"], 1, "{metrics:?}");
    assert_eq!(metrics["cells_served"], CLIENTS as i128, "{metrics:?}");
    assert_eq!(
        metrics["cell_hits"] + metrics["coalesced_waits"],
        CLIENTS as i128 - 1,
        "{metrics:?}"
    );
    server.shutdown().expect("clean shutdown");
}

/// The smoke grid — whose direct evaluation the test compares against —
/// expands to exactly one cell; pin that here so the direct-comparison
/// above cannot silently compare against the wrong cell.
#[test]
fn smoke_preset_first_cell_is_the_one_cell_grid() {
    let cell = &presets::smoke().expand()[0];
    assert_eq!(cell.key(), "WS/Cifar10/VGG13/ADA-GP-Efficient/paper");
}

#[test]
fn warm_load_takes_every_cell_of_every_committed_artifact() {
    let runs = repo_root().join("runs");
    let files: Vec<PathBuf> = std::fs::read_dir(&runs)
        .expect("runs/ directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("csv" | "json")))
        .collect();
    assert!(files.len() >= 8, "committed artifacts missing: {files:?}");

    for file in files {
        let stored = StoredRun::load(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        let cache = CellCache::new();
        let loaded = cache.warm(stored.cells.clone());
        assert_eq!(loaded, stored.cells.len(), "{file:?} loaded partially");
    }
}

#[test]
fn shard_log_survives_restart_cycles_byte_stable_and_merges_to_a_run_file() {
    let dir = tmp("log-cycles");
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        log_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let log_bytes = || {
        let log = dir.join(adagp_sweep::shard_file_name(adagp_sweep::Shard::default()));
        std::fs::read(log).expect("shard log")
    };

    // First server: evaluate a small grid cold; every cell is appended.
    let server = server::start(config.clone()).expect("server starts");
    let response = submit_grid(server.addr(), r#"{"preset":"smoke"}"#).expect("grid accepted");
    assert_eq!(response.done.evaluated, response.announced_cells);
    server.shutdown().expect("clean shutdown");
    let bytes = log_bytes();

    // Two more incarnations on the same directory: all hits, zero
    // evaluations, bit-identical metrics — and nothing re-appended.
    for cycle in 0..2 {
        let server = server::start(config.clone()).expect("restarted server starts");
        let replay = submit_grid(server.addr(), r#"{"preset":"smoke"}"#).expect("grid accepted");
        assert_eq!(replay.done.hits, replay.done.cells, "cycle {cycle}");
        assert!(replay.cells.iter().all(|c| c.cached));
        let metrics = fetch_metrics(server.addr()).expect("metrics");
        assert_eq!(metrics["evaluations"], 0, "{metrics:?}");
        server.shutdown().expect("clean shutdown");
        assert_eq!(response.cells.len(), replay.cells.len());
        for (x, y) in response.cells.iter().zip(&replay.cells) {
            assert_eq!(x.id, y.id);
            for (mx, my) in x.metrics.iter().zip(&y.metrics) {
                assert_eq!(mx.to_bits(), my.to_bits(), "cell {}", x.id);
            }
        }
        assert_eq!(log_bytes(), bytes, "cycle {cycle} rewrote the log");
    }

    // The served log is a standard shard log: `sweep merge` rebuilds
    // the run file of the grid from it, byte for byte.
    let grid = presets::smoke();
    let merged = merge_to_run(&dir, &grid).expect("log merges");
    assert!(merged.is_complete(), "{:?}", merged.missing);
    assert_eq!(
        stored_csv_string(&merged.cells),
        to_csv_string(&run_grid(&grid))
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The NDJSON lines of a `/grid` reply to `grid`, verbatim.
fn grid_lines(server: &ServerHandle, grid: &GridSpec) -> Vec<String> {
    let body = serde::json::to_string(&grid_to_value(grid));
    let reply = http_request(server.addr(), "POST", "/grid", Some(&body)).expect("grid reply");
    assert_eq!(reply.status, 200, "{}", reply.body);
    reply.body.lines().map(str::to_string).collect()
}

/// Asserts that `lines`, a reply to `grid` that hit every cell, streams
/// for each cell exactly what `cell_line` renders for the metrics
/// `server` has memoized.
fn assert_hit_lines(server: &ServerHandle, grid: &GridSpec, lines: &[String], what: &str) {
    let cells = grid.expand();
    assert_eq!(lines.len(), cells.len() + 2, "{what}: header, cells, done");
    for (spec, line) in cells.iter().zip(&lines[1..]) {
        let (stored, _) = server.state().cache.get_or_evaluate(spec).unwrap();
        let want = cell_line(&spec.id, &spec.key(), true, &stored.metrics());
        assert_eq!(line, &want, "{what}: {}", spec.key());
    }
    let done = lines.last().unwrap();
    let all_hits = format!(r#""hits":{0},"evaluated":0,"joined":0"#, cells.len());
    assert!(done.contains(&all_hits), "{what}: {done}");
}

#[test]
fn every_preset_hits_with_the_rendered_cell_line_from_every_source() {
    let dir = tmp("hit-lines");
    let _ = std::fs::remove_dir_all(&dir);
    let logged = ServerConfig {
        log_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    // A fresh evaluation: each preset cold, then its first and a repeat hit.
    let server = server::start(logged.clone()).expect("server starts");
    for grid in presets::all() {
        grid_lines(&server, &grid);
        for hit in ["first", "repeat"] {
            let lines = grid_lines(&server, &grid);
            assert_hit_lines(
                &server,
                &grid,
                &lines,
                &format!("evaluated {} {hit}", grid.name),
            );
        }
    }
    server.shutdown().expect("clean shutdown");

    // The same cells replayed from the shard log.
    let server = server::start(logged).expect("restarted server starts");
    for grid in presets::all() {
        for hit in ["first", "repeat"] {
            let lines = grid_lines(&server, &grid);
            assert_hit_lines(
                &server,
                &grid,
                &lines,
                &format!("replayed {} {hit}", grid.name),
            );
        }
    }
    assert_eq!(
        fetch_metrics(server.addr()).expect("metrics")["evaluations"],
        0
    );
    server.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();

    // A CSV warm-load, whose metrics are quantized to 6 decimals.
    let server = server::start(ServerConfig {
        warm: vec![repo_root().join("runs/fig17-ws.csv")],
        ..ServerConfig::default()
    })
    .expect("warm server starts");
    let grid = presets::by_name("fig17-ws").expect("fig17-ws preset");
    for hit in ["first", "repeat"] {
        let lines = grid_lines(&server, &grid);
        assert_hit_lines(&server, &grid, &lines, &format!("warm-loaded {hit}"));
    }
    assert_eq!(
        fetch_metrics(server.addr()).expect("metrics")["evaluations"],
        0
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn a_warm_reply_is_the_cold_reply_with_cached_set() {
    let server = server::start(ServerConfig::default()).expect("server starts");
    let grid = presets::bandwidth_smoke();
    let cold = grid_lines(&server, &grid);
    let warm = grid_lines(&server, &grid);
    assert_eq!(cold.len(), grid.cell_count() + 2);
    assert_eq!(warm.len(), cold.len());
    assert_eq!(warm[0], cold[0], "header");
    let cells = cold.len() - 1;
    for (c, w) in cold[1..cells].iter().zip(&warm[1..cells]) {
        assert!(c.contains(r#""cached":false"#), "{c}");
        assert_eq!(*w, c.replace(r#""cached":false"#, r#""cached":true"#));
    }
    server.shutdown().expect("clean shutdown");
}
