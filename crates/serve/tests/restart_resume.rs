//! Warm-restart resume battery: a server configured with a shard-log
//! directory must restart mid-grid with **zero recomputation** — every
//! cell a previous incarnation evaluated is replayed from the
//! append-only log, bit-exactly, and `/metrics` proves no evaluator
//! ran. Durability comes from the fsync'd appends each window of fresh
//! evaluations makes before its lines stream, not from a graceful
//! shutdown flush, so the guarantee holds for a killed process too (the
//! fault-injection CLI battery covers the real-abort variant; here the
//! second incarnation starts from whatever the log holds).

use adagp_serve::server::GRID_WINDOW;
use adagp_serve::wire::{parse_grid_line, GridLine};
use adagp_serve::{check_invariants, fetch_metrics, server, submit_grid, ServerConfig};
use adagp_sweep::shardlog::load_shard;
use adagp_sweep::{shard_file_name, Shard};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("adagp-serve-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SPEC: &str = r#"{"preset":"smoke"}"#;

#[test]
fn restarted_server_reevaluates_zero_logged_cells() {
    let dir = tmp_dir("full");

    // First incarnation: a cold cache evaluates every cell of the grid
    // and appends each one to the shard log as it completes.
    let first = server::start(ServerConfig {
        log_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("first server starts");
    let addr = first.addr();
    let response = submit_grid(addr, SPEC).expect("first submission");
    assert!(
        response.cell_errors.is_empty(),
        "{:?}",
        response.cell_errors
    );
    let cells = response.cells.len();
    assert!(cells >= 4, "smoke grid has at least 4 cells");
    let metrics = fetch_metrics(addr).expect("first metrics scrape");
    assert_eq!(check_invariants(&metrics), None);
    assert_eq!(metrics["evaluations"], cells as i128, "first run is cold");
    // Every evaluation was durably appended before the response ended.
    assert!(
        metrics["adagp_sweep_log_appends_total"] >= cells as i128,
        "{metrics:?}"
    );
    first.shutdown().expect("first shutdown");

    // Second incarnation, same log directory: the merged log warms the
    // cache before the listener accepts anything.
    let second = server::start(ServerConfig {
        log_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("second server starts");
    let addr2 = second.addr();
    let replay = submit_grid(addr2, SPEC).expect("second submission");
    assert!(replay.cell_errors.is_empty(), "{:?}", replay.cell_errors);
    assert_eq!(replay.cells.len(), cells);

    // The acceptance criterion: zero re-evaluations, asserted via the
    // fresh incarnation's own /metrics counters.
    let metrics2 = fetch_metrics(addr2).expect("second metrics scrape");
    assert_eq!(check_invariants(&metrics2), None);
    assert_eq!(metrics2["evaluations"], 0, "{metrics2:?}");
    assert_eq!(metrics2["cell_hits"], cells as i128, "{metrics2:?}");

    // And the replayed metrics are bit-exact: the log's JSON floats are
    // shortest-round-trip, so the warm entries carry the original bits.
    for (a, b) in response.cells.iter().zip(&replay.cells) {
        assert_eq!(a.id, b.id, "stream order is the expansion order");
        let first_bits: Vec<u64> = a.metrics.iter().map(|m| m.to_bits()).collect();
        let second_bits: Vec<u64> = b.metrics.iter().map(|m| m.to_bits()).collect();
        assert_eq!(first_bits, second_bits, "cell {}", a.id);
    }
    second.shutdown().expect("second shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partially_logged_grid_resumes_only_the_missing_cells() {
    let dir = tmp_dir("partial");

    // Log only a subset: submit a 2-cell sub-grid of smoke.
    let sub = r#"{
        "name": "sub",
        "models": ["VGG13", "ResNet50"],
        "datasets": ["Cifar10"],
        "designs": ["ADA-GP-Efficient"],
        "dataflows": ["WS"],
        "schedules": ["paper"]
    }"#;
    let first = server::start(ServerConfig {
        log_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("first server starts");
    let sub_cells = submit_grid(first.addr(), sub)
        .expect("sub-grid submission")
        .cells
        .len();
    assert_eq!(sub_cells, 2);
    first.shutdown().expect("first shutdown");

    // The restarted server owes evaluations only for the cells the log
    // does not cover.
    let second = server::start(ServerConfig {
        log_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("second server starts");
    let full = submit_grid(second.addr(), SPEC).expect("full submission");
    assert!(full.cell_errors.is_empty(), "{:?}", full.cell_errors);
    let metrics = fetch_metrics(second.addr()).expect("metrics scrape");
    assert_eq!(check_invariants(&metrics), None);
    assert_eq!(
        metrics["evaluations"],
        (full.cells.len() - sub_cells) as i128,
        "{metrics:?}"
    );
    assert_eq!(metrics["cell_hits"], sub_cells as i128, "{metrics:?}");
    second.shutdown().expect("second shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// No `"cached":false` line reaches the client before its record is on
/// disk: reading a cold multi-window reply line by line over a raw
/// socket, every evaluated cell's ID is already a committed
/// (newline-terminated) record of the shard log when its line arrives.
#[test]
fn every_evaluated_line_streams_after_its_record_is_committed() {
    let dir = tmp_dir("ordering");
    // 3 models x 3 designs x 3 dataflows = 27 cells: four windows of 8.
    let body = r#"{
        "name": "ordering",
        "models": ["VGG13", "ResNet50", "MobileNet-V2"],
        "datasets": ["Cifar10"],
        "designs": ["ADA-GP-LOW", "ADA-GP-Efficient", "ADA-GP-MAX"],
        "dataflows": ["WS", "RS", "IS"],
        "schedules": ["paper"]
    }"#;
    let cfg = ServerConfig {
        log_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let first = server::start(cfg.clone()).expect("first server starts");
    let log = dir.join(shard_file_name(Shard::default()));

    let mut stream = TcpStream::connect(first.addr()).expect("connect");
    write!(
        stream,
        "POST /grid HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send the request");
    let mut reply = BufReader::new(stream);
    let mut line = String::new();
    reply.read_line(&mut line).expect("read the status line");
    assert!(line.starts_with("HTTP/1.1 200 "), "{line}");
    // The head ends at its blank line.
    loop {
        line.clear();
        assert!(reply.read_line(&mut line).expect("read the head") > 0);
        if line == "\r\n" {
            break;
        }
    }
    let (mut cells, mut evaluated) = (0, 0);
    let mut done = None;
    loop {
        line.clear();
        if reply.read_line(&mut line).expect("read a line") == 0 {
            break;
        }
        assert!(line.ends_with('\n'), "a whole line: {line:?}");
        match parse_grid_line(line.trim_end()).expect("a reply line") {
            GridLine::Header { cells: n, .. } => assert!(n as usize > 2 * GRID_WINDOW, "{n} cells"),
            GridLine::Cell(cell) => {
                cells += 1;
                if !cell.cached {
                    evaluated += 1;
                    let committed: HashSet<String> = load_shard(&log)
                        .expect("read the log")
                        .cells
                        .into_iter()
                        .map(|c| c.id)
                        .collect();
                    assert!(
                        committed.contains(&cell.id),
                        "cell {} streamed before its record was committed",
                        cell.id
                    );
                }
            }
            GridLine::Error { .. } => panic!("cell error: {line}"),
            GridLine::Done(d) => done = Some(d),
        }
    }
    let done = done.expect("a done line");
    assert_eq!((done.cells, done.evaluated), (27, 27));
    assert_eq!((cells, evaluated), (27, 27));
    first.shutdown().expect("first shutdown");

    // The log alone answers the grid on restart.
    let second = server::start(cfg).expect("second server starts");
    let replay = submit_grid(second.addr(), body).expect("second submission");
    assert_eq!(
        (replay.done.cells, replay.done.evaluated, replay.done.hits),
        (27, 0, 27)
    );
    let metrics = fetch_metrics(second.addr()).expect("metrics scrape");
    assert_eq!(metrics["evaluations"], 0, "{metrics:?}");
    second.shutdown().expect("second shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
