//! Smoke coverage of the serve binaries through the real executables:
//!
//! * `serve_loadtest` at the acceptance scale (≥64 overlapping grids,
//!   ≥4 client threads) must PASS — bit-identical replies, exactly-once
//!   evaluation, graceful shutdown and a restart that replays the shard
//!   log without evaluating.
//! * The `serve` CLI itself must come up, answer traffic, and drain
//!   cleanly on `POST /shutdown`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn loadtest_smoke_passes_at_acceptance_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_loadtest"))
        .args(["--clients", "4", "--grids", "64", "--seed", "11"])
        .output()
        .expect("serve_loadtest runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "loadtest failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("loadtest: PASS"), "{stdout}");
    assert!(
        stdout.contains("evaluated exactly once"),
        "coalescing line missing:\n{stdout}"
    );
    assert!(
        stdout.contains("logged cells, 0 re-evaluated"),
        "restart line missing:\n{stdout}"
    );
}

#[test]
fn serve_cli_starts_serves_and_drains_on_shutdown() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--workers", "2", "--queue-depth", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout")).lines();
    let banner = lines
        .next()
        .expect("serve prints its address")
        .expect("stdout is text");
    let addr: std::net::SocketAddr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
        .parse()
        .expect("banner carries host:port");

    let health = adagp_serve::http_request(addr, "GET", "/health", None).expect("health");
    assert_eq!(health.status, 200);
    let grid = adagp_serve::submit_grid(addr, r#"{"preset":"smoke"}"#).expect("grid");
    assert_eq!(grid.done.cells, grid.announced_cells);
    assert_eq!(grid.done.evaluated, grid.done.cells, "cold serve evaluates");

    adagp_serve::client::request_shutdown(addr).expect("shutdown accepted");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited non-zero");
    let tail: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        tail.iter().any(|l| l.starts_with("drained")),
        "drain banner missing: {tail:?}"
    );
    assert!(
        tail.iter().any(|l| l.contains("served")),
        "summary line missing: {tail:?}"
    );
}
