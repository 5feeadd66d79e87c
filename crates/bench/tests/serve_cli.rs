//! The `serve` CLI through the real executable: it must come up, answer
//! traffic, and drain cleanly on `POST /shutdown`. (The closed-loop load
//! test of the server itself is `adagp-serve`'s `tests/load_test.rs`.)

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

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
