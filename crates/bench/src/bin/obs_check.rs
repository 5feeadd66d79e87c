//! CI helper: validate a Chrome-trace dump, a `/metrics` scrape, a
//! span-tree profile dump, or a critical-path report from the command
//! line, with the exact same checkers the test suites use
//! (`adagp_obs::validate_chrome_trace`, `adagp_obs::validate_profile`,
//! `adagp_obs::validate_critpath`, `adagp_serve::parse_metrics` +
//! `check_invariants`) — no python in the loop.
//!
//! ```text
//! obs_check trace <path>
//! obs_check metrics <path> [--histogram <family>]...
//! obs_check profile <path>
//! obs_check critpath <path>
//! ```
//!
//! `trace` fails on unparseable JSON, a missing `traceEvents` array,
//! malformed span events, partially overlapping siblings on one lane, or
//! an empty trace. `metrics` fails on malformed lines or violated
//! counter/histogram invariants; each `--histogram <family>` additionally
//! requires that family to be present with a nonzero `_count`. `profile`
//! accepts either the `adagp-profile-v1` JSON tree or a collapsed-stack
//! dump, enforces the tree invariants (calls ≥ 1, self ≤ total, children
//! sum ≤ parent), and fails on an empty profile. `critpath`
//! validates an `adagp-critpath-v1` report (`adagp_obs::validate_critpath`:
//! chain contiguity, `Σ blame == makespan` in sim mode, exact per-lane
//! busy/queue/idle accounting in measured mode) and additionally rejects
//! degenerate reports with neither chain segments nor measured lanes.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    match args {
        [cmd, path] if cmd == "trace" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let stats =
                adagp_obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
            if stats.spans == 0 {
                return Err(format!("{path}: trace contains no spans"));
            }
            Ok(format!(
                "{path}: {} spans, {} metadata events, {} lanes — ok",
                stats.spans, stats.metadata, stats.lanes
            ))
        }
        [cmd, path] if cmd == "profile" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let stats = adagp_obs::validate_profile(&text).map_err(|e| format!("{path}: {e}"))?;
            if stats.nodes == 0 {
                return Err(format!("{path}: profile contains no spans"));
            }
            Ok(format!(
                "{path}: {} nodes, {} lanes, {} us total — ok",
                stats.nodes, stats.lanes, stats.total_us
            ))
        }
        [cmd, path] if cmd == "critpath" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let stats = adagp_obs::validate_critpath(&text).map_err(|e| format!("{path}: {e}"))?;
            if stats.chain == 0 && stats.lanes == 0 {
                return Err(format!("{path}: report has no chain segments and no lanes"));
            }
            Ok(format!(
                "{path}: {} report, makespan {}, {} chain segments, {} blame rows, {} lanes — ok",
                stats.mode, stats.makespan, stats.chain, stats.blame, stats.lanes
            ))
        }
        [cmd, path, rest @ ..] if cmd == "metrics" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let m = adagp_serve::parse_metrics(&text).map_err(|e| format!("{path}: {e}"))?;
            if let Some(why) = adagp_serve::check_invariants(&m) {
                return Err(format!("{path}: invariant violated: {why}"));
            }
            let mut out = format!("{path}: {} metrics, invariants ok", m.len());
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                if flag != "--histogram" {
                    return Err(format!("unknown flag `{flag}`"));
                }
                let family = it.next().ok_or("--histogram needs a family name")?;
                let count = m
                    .get(&format!("{family}_count"))
                    .copied()
                    .ok_or_else(|| format!("{path}: histogram `{family}` missing"))?;
                if count == 0 {
                    return Err(format!("{path}: histogram `{family}` recorded nothing"));
                }
                out.push_str(&format!("; {family}_count={count}"));
            }
            Ok(out)
        }
        _ => Err("usage: obs_check trace <path> | obs_check metrics <path> \
                  [--histogram <family>]... | obs_check profile <path> | \
                  obs_check critpath <path>"
            .to_string()),
    }
}
