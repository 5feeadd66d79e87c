//! The `serve` CLI through the real executable. (The closed-loop load
//! test of the server itself is `adagp-serve`'s `tests/load_test.rs`.)
//!
//! * A cold server comes up, answers traffic, and drains cleanly on
//!   `POST /shutdown`.
//! * A server warm-started from `runs/fig17-ws.csv` under `ADAGP_TRACE`
//!   answers the smoke grid twice with the same lines once `"cached"`
//!   and the done line are masked; its `/metrics` hold the counter and
//!   histogram invariants with `/grid`'s latency histogram populated,
//!   `/profile` and `/critical` validate non-empty, a 1 MiB one-string
//!   body is refused with a 400 within 5 s, and its drain leaves a valid
//!   Chrome trace behind.
//! * The shard log survives `SIGKILL`: a server on a log directory is
//!   killed after serving the smoke grid (4 cells, one group, one fsync;
//!   4 batch simulations, 4 knee searches and 4 replayed knee probes on
//!   `/metrics`), and its successor on the same directory evaluates
//!   nothing.
//! * A stdout closed before `serve --help` prints is not a panic.

use adagp_serve::{check_invariants, fetch_metrics, http_request, submit_grid};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Lines};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");
const SMOKE: &str = r#"{"preset":"smoke"}"#;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adagp-serve-cli-{}-{name}", std::process::id()))
}

/// A running `serve` process: its address and the rest of its stdout.
struct Serve {
    child: Child,
    addr: SocketAddr,
    lines: Lines<BufReader<ChildStdout>>,
}

impl Serve {
    /// Starts `serve args` (with `ADAGP_TRACE` at `trace`, if given) and
    /// reads the address off its `listening on` banner.
    fn start(args: &[&str], trace: Option<&Path>) -> Serve {
        let mut cmd = Command::new(SERVE);
        cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
        if let Some(path) = trace {
            cmd.env("ADAGP_TRACE", path);
        }
        let mut child = cmd.spawn().expect("serve starts");
        let mut lines = BufReader::new(child.stdout.take().expect("stdout")).lines();
        let banner = lines
            .next()
            .expect("serve prints its address")
            .expect("stdout is text");
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
            .parse()
            .expect("banner carries host:port");
        Serve { child, addr, lines }
    }

    /// `POST /shutdown`: the process drains, prints its summary and
    /// exits 0.
    fn shutdown(mut self) {
        adagp_serve::client::request_shutdown(self.addr).expect("shutdown accepted");
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited non-zero");
        let tail: Vec<String> = self.lines.by_ref().map_while(Result::ok).collect();
        assert!(
            tail.iter().any(|l| l.starts_with("drained")),
            "drain banner missing: {tail:?}"
        );
        assert!(
            tail.iter().any(|l| l.contains("served")),
            "summary line missing: {tail:?}"
        );
    }

    /// `SIGKILL` (on Unix): no drain, no shutdown path runs.
    fn kill(mut self) {
        self.child.kill().expect("kill serve");
        self.child.wait().expect("reap serve");
    }

    /// `/metrics`, checked against the counter and histogram invariants.
    fn metrics(&self) -> HashMap<String, i128> {
        let m = fetch_metrics(self.addr).expect("metrics scrape");
        assert_eq!(check_invariants(&m), None, "{m:?}");
        m
    }
}

/// A failed check must not leave the server running.
impl Drop for Serve {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// A histogram family's `_count`: present and non-zero.
fn assert_histogram_recorded(m: &HashMap<String, i128>, family: &str) {
    let count = m.get(&format!("{family}_count")).copied();
    assert!(
        count.is_some_and(|c| c > 0),
        "histogram `{family}` recorded nothing: {count:?}"
    );
}

/// The smoke grid's reply lines without the done line, each `"cached"`
/// value masked.
fn masked_smoke_reply(addr: SocketAddr) -> Vec<String> {
    let reply = http_request(addr, "POST", "/grid", Some(SMOKE)).expect("/grid");
    assert_eq!(reply.status, 200, "{}", reply.body);
    reply
        .body
        .lines()
        .filter(|l| !l.is_empty() && !l.contains(r#""done":true"#))
        .map(|l| {
            l.replace(r#""cached":true"#, r#""cached":_"#)
                .replace(r#""cached":false"#, r#""cached":_"#)
        })
        .collect()
}

#[test]
fn serve_cli_starts_serves_and_drains_on_shutdown() {
    let server = Serve::start(&["--workers", "2", "--queue-depth", "8"], None);
    let health = http_request(server.addr, "GET", "/health", None).expect("health");
    assert_eq!(health.status, 200);
    let grid = submit_grid(server.addr, SMOKE).expect("grid");
    assert_eq!(grid.done.cells, grid.announced_cells);
    assert_eq!(grid.done.evaluated, grid.done.cells, "cold serve evaluates");
    server.shutdown();
}

#[test]
fn a_warm_traced_server_passes_every_live_check() {
    let trace = tmp("trace.json");
    let warm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../runs/fig17-ws.csv");
    let server = Serve::start(&["--warm", warm], Some(&trace));
    let addr = server.addr;

    // Posted twice, the smoke grid streams the same header and 4 cell
    // lines; the second time every cell comes from the cache.
    let first = masked_smoke_reply(addr);
    assert_eq!(first.len(), 5, "{first:?}");
    assert_eq!(masked_smoke_reply(addr), first);

    let m = server.metrics();
    assert_histogram_recorded(&m, "grid_micros");

    let reply = http_request(addr, "GET", "/profile", None).expect("/profile");
    assert_eq!(reply.status, 200, "/profile");
    let profile = adagp_obs::validate_profile(&reply.body).expect("/profile body valid");
    assert!(profile.nodes > 0, "/profile returned an empty span tree");

    let reply = http_request(addr, "GET", "/critical", None).expect("/critical");
    assert_eq!(reply.status, 200, "/critical");
    let crit = adagp_obs::validate_critpath(&reply.body).expect("/critical body valid");
    assert!(
        crit.chain > 0 || crit.lanes > 0,
        "/critical has no chain segments and no lanes"
    );

    // One long JSON string under the body cap: a parser that rescans
    // the rest of the input per character pins a worker for ~30 s.
    let long = format!(r#"{{"name":"{}"}}"#, "a".repeat(1_048_000));
    let start = Instant::now();
    let reply = http_request(addr, "POST", "/grid", Some(&long)).expect("/grid");
    let took = start.elapsed();
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(took < Duration::from_secs(5), "400 took {took:?}");

    server.shutdown();
    let text = std::fs::read_to_string(&trace).expect("trace written on drain");
    std::fs::remove_file(&trace).ok();
    let stats = adagp_obs::validate_chrome_trace(&text).expect("trace valid");
    assert!(stats.spans > 0, "trace contains no spans");
}

#[test]
fn a_killed_server_loses_no_committed_cell() {
    let dir = tmp("log");
    std::fs::remove_dir_all(&dir).ok();
    let args = ["--log-dir", dir.to_str().unwrap()];

    let first = Serve::start(&args, None);
    submit_grid(first.addr, SMOKE).expect("grid");
    let m = first.metrics();
    first.kill();
    assert_eq!(m["evaluations"], 4, "{m:?}");
    // The smoke grid's four cells fill one window: one group, one fsync.
    assert_eq!(m["adagp_sweep_log_appends_total"], 4, "{m:?}");
    assert_eq!(m["adagp_sweep_log_syncs_total"], 1, "{m:?}");
    assert_histogram_recorded(&m, "adagp_sweep_log_sync_us");
    // Four distinct simulator inputs: each cell simulates its batches and
    // searches its knee once, with one replay at the longest-path floor's
    // bandwidth, and the memos hold one entry each.
    for name in [
        "adagp_sweep_sim_runs_total",
        "adagp_sweep_knee_searches_total",
        "adagp_sweep_knee_probes_total",
        "adagp_sweep_sim_memo_entries",
        "adagp_sweep_knee_memo_entries",
    ] {
        assert_eq!(m[name], 4, "{name}: {m:?}");
    }
    // A served cell is a group of one: it compiles its BP and GP graphs.
    assert_eq!(m["adagp_sweep_graph_builds_total"], 8, "{m:?}");
    // Each search finds its floor's crossing in two longest-path walks.
    assert_eq!(m["adagp_sweep_floor_walks_total"], 8, "{m:?}");
    // Every replay, the four batch pairs and the four knee probes, runs
    // both graphs by the fixed-order pass, none by the event loop.
    assert_eq!(m["adagp_sim_fixed_order_passes_total"], 16, "{m:?}");
    assert_eq!(m["adagp_sim_event_loop_runs_total"], 0, "{m:?}");

    let second = Serve::start(&args, None);
    let grid = submit_grid(second.addr, SMOKE).expect("grid after restart");
    let m = second.metrics();
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(grid.done.cells, 4);
    assert_eq!(m["evaluations"], 0, "the restart re-evaluated: {m:?}");
}

#[test]
fn serve_help_survives_a_closed_stdout() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(SERVE)
        .arg("--help")
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
