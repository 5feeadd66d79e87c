//! The `serve` CLI: run the resident sweep server.
//!
//! ```text
//! serve [--addr host:port] [--workers n] [--queue-depth n]
//!       [--warm path]... [--log-dir dir]
//! ```
//!
//! Binds, warm-loads the cache from every `--warm` artifact (committed
//! `runs/*.csv`/`.json`; an in-memory preload), prints the bound address
//! on stdout (`listening on <addr>` — parseable by scripts and the
//! load-test harness), and serves until `POST /shutdown`, at which point
//! it drains in-flight evaluations. `--log-dir` is the server's
//! persistence: each `/grid` window's fresh evaluations are appended to
//! a shard log in the directory as one group (one fsync per window)
//! before the window's lines stream, and a restarted server replays the
//! merged log — stopping or killing the process mid-grid costs only the
//! cells of windows that had not committed. Cell evaluations run on the
//! shared runtime pool (`ADAGP_THREADS` sizes it).

use adagp_serve::{server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
Usage:
  serve [--addr host:port]   bind address (default 127.0.0.1:0, ephemeral)
        [--workers n]        connection worker threads (default 4)
        [--queue-depth n]    bounded accept queue; overflow answers 503
        [--warm path]...     warm the cache from stored runs (repeatable)
        [--log-dir dir]      crash-safe append log: replay it on start,
                             append each /grid window's fresh
                             evaluations (one fsync per window)

Endpoints: GET /health, GET /metrics, GET /profile, GET /critical,
POST /grid, POST /shutdown. /profile serves the live span-tree profile
and /critical the live stall attribution (adagp-critpath-v1); both are
non-empty when running under ADAGP_TRACE or ADAGP_PROFILE.

Exit codes:
  0  clean shutdown (drained)
  2  usage, bind, warm-load or log-replay error
";

fn main() -> ExitCode {
    let _trace = adagp_obs::trace_guard_from_env("serve");
    let _profile = adagp_obs::profile_guard_from_env();
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("serve: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => cfg.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue-depth" => {
                cfg.queue_depth = parse_num(&value("--queue-depth")?, "--queue-depth")?;
            }
            "--warm" => cfg.warm.push(PathBuf::from(value("--warm")?)),
            "--log-dir" => cfg.log_dir = Some(PathBuf::from(value("--log-dir")?)),
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let handle = server::start(cfg)?;
    let state = handle.state().clone();
    println!("listening on {}", handle.addr());
    handle.serve_forever()?;
    println!("drained");
    let m: std::collections::HashMap<&str, u64> = state.metrics.snapshot().into_iter().collect();
    println!(
        "served {} requests ({} grids, {} cells: {} hits, {} evaluated, {} joined)",
        m["requests_total"],
        m["grid_requests"],
        m["cells_served"],
        m["cell_hits"],
        m["evaluations"],
        m["coalesced_waits"]
    );
    Ok(ExitCode::SUCCESS)
}

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .map_err(|_| format!("{flag}: `{text}` is not a count\n{USAGE}"))
}
