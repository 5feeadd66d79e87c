//! End-to-end checks of the `sweep` binary's contention surface, driven
//! through the real executable (`CARGO_BIN_EXE_sweep`):
//!
//! * `sweep sim <grid> --no-contention` composes with the bandwidth
//!   grid's per-cell buffer/bandwidth overrides by *winning*: every
//!   `spill_cycles` value in the emitted CSV is exactly `0.000000`.
//! * The same grid with contention on reports nonzero spills — the flag
//!   is doing the silencing, not the grid.
//! * A zero `--bandwidth` / `--buffer-words` on `sweep sim` is exit 2.
//! * A NaN, negative or infinite `--tol` on `sweep diff` is exit 2.
//! * `--shard` on `sweep run` without `--log-dir`, the removed
//!   `--window` and the removed `sweep roofline` are exit 2.
//! * The documented simulator entry point, `sweep sim smoke`, runs end
//!   to end, and `sweep list` survives a stdout closed before it prints.

use std::path::PathBuf;
use std::process::Command;

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adagp-sweep-cli-{}-{name}", std::process::id()))
}

/// Runs `sweep sim bandwidth-smoke` with `extra` flags and returns the
/// spill_cycles column of the emitted CSV.
fn sim_spill_column(csv: &PathBuf, extra: &[&str]) -> Vec<String> {
    let mut cmd = sweep();
    cmd.args(["sim", "bandwidth-smoke", "--quiet", "--csv"])
        .arg(csv)
        .args(extra);
    let out = cmd.output().expect("sweep sim runs");
    assert!(
        out.status.success(),
        "sweep sim failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(csv).expect("CSV written");
    let header: Vec<&str> = text.lines().next().expect("header").split(',').collect();
    let spill = header
        .iter()
        .position(|&h| h == "spill_cycles")
        .expect("spill_cycles column");
    text.lines()
        .skip(1)
        .map(|l| l.split(',').nth(spill).expect("column present").to_string())
        .collect()
}

#[test]
fn no_contention_zeroes_spill_cycles_exactly_even_with_buffer_overrides() {
    let csv = tmp("no-contention.csv");
    let spills = sim_spill_column(&csv, &["--no-contention"]);
    assert_eq!(spills.len(), 8, "bandwidth-smoke has 8 cells");
    for (i, s) in spills.iter().enumerate() {
        assert_eq!(
            s, "0.000000",
            "cell {i}: --no-contention must zero spill_cycles exactly"
        );
    }
    std::fs::remove_file(&csv).ok();
}

#[test]
fn contention_on_reports_nonzero_spills_for_the_tight_buffer_cells() {
    let csv = tmp("contention.csv");
    let spills = sim_spill_column(&csv, &[]);
    assert!(
        spills.iter().any(|s| s != "0.000000"),
        "expected at least one spilling cell in bandwidth-smoke: {spills:?}"
    );
    std::fs::remove_file(&csv).ok();
}

#[test]
fn no_contention_composes_with_explicit_bandwidth_and_buffer_flags() {
    // The flag must win even when the CLI also passes the base knobs.
    let csv = tmp("composed.csv");
    let spills = sim_spill_column(
        &csv,
        &[
            "--bandwidth",
            "4",
            "--buffer-words",
            "1024",
            "--no-contention",
        ],
    );
    assert!(spills.iter().all(|s| s == "0.000000"), "{spills:?}");
    std::fs::remove_file(&csv).ok();
}

#[test]
fn sweep_sim_subcommand_runs_the_smoke_grid() {
    let output = sweep()
        .args(["sim", "smoke"])
        .output()
        .expect("sweep sim runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "sweep sim exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status
    );
    assert!(
        stdout.contains("simulated 4 cells"),
        "sweep sim did not report its cells\nstdout:\n{stdout}"
    );
    assert!(stdout.contains("Overlap eff"), "detail table missing");
}

#[test]
fn sweep_list_survives_a_closed_stdout() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = sweep()
        .arg("list")
        .stdout(writer)
        .output()
        .expect("sweep runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// A zero bandwidth or buffer is a usage error naming the flag (it was a
/// panic, exit 101, inside the batch builder or the tiling model).
#[test]
fn sim_rejects_zero_contention_values_as_usage_errors() {
    for flag in ["--bandwidth", "--buffer-words"] {
        let out = sweep()
            .args(["sim", "smoke", "--quiet", flag, "0"])
            .output()
            .expect("sweep sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: must be positive")),
            "{stderr}"
        );
    }
}

/// `sweep diff`'s documented exit-code contract, end to end: 0 for a
/// clean comparison, 1 when a metric regressed beyond tolerance, 2 for
/// usage errors — the codes CI branches on.
#[test]
fn diff_exit_codes_cover_clean_regressed_and_usage() {
    use adagp_sweep::store::{stored_json_string, StoredCell};
    use adagp_sweep::{evaluate_cell, presets};

    let cells: Vec<StoredCell> = presets::smoke()
        .expand()
        .iter()
        .map(|s| StoredCell::from_evaluation(s, &evaluate_cell(s)))
        .collect();
    let write = |name: &str, cells: &[StoredCell]| {
        let path = tmp(name);
        std::fs::write(&path, stored_json_string("smoke", cells)).expect("run record written");
        path
    };
    let before = write("diff-before.json", &cells);
    let mut worse = cells.clone();
    worse[0].metrics[0] *= 0.9; // speed-up down 10%: a regression
    let after = write("diff-after.json", &worse);

    let code = |args: &[&str]| {
        let out = sweep()
            .args(["diff"])
            .args(args)
            .output()
            .expect("sweep diff runs");
        out.status.code().expect("exit code")
    };
    let before_s = before.to_string_lossy().to_string();
    let after_s = after.to_string_lossy().to_string();
    assert_eq!(code(&[&before_s, &before_s]), 0, "identical runs are clean");
    assert_eq!(code(&[&before_s, &after_s]), 1, "regression exits 1");
    assert_eq!(
        code(&[&before_s, &after_s, "--tol", "0.5"]),
        0,
        "a loose tolerance absorbs the regression"
    );
    assert_eq!(code(&[&before_s]), 2, "missing <after> is a usage error");
    assert_eq!(
        code(&[&before_s, "/nonexistent/run.json"]),
        2,
        "unreadable input is an I/O error"
    );
    std::fs::remove_file(&before).ok();
    std::fs::remove_file(&after).ok();
}

/// `diff --tol` takes a finite non-negative number. A NaN or negative
/// tolerance used to make `diff` call every changed-or-not metric of a
/// run compared with itself a regression (exit 1), and an infinite one
/// turned the gate off.
#[test]
fn diff_rejects_bad_tolerances_as_usage_errors() {
    let run = concat!(env!("CARGO_MANIFEST_DIR"), "/../../runs/fig17-ws.csv");
    for tol in ["nan", "-1", "inf", "-0.5", "x"] {
        let out = sweep()
            .args(["diff", run, run, "--tol", tol])
            .output()
            .expect("sweep diff runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--tol {tol}: {stderr}");
        assert!(
            stderr.contains("need a finite non-negative number"),
            "--tol {tol}: {stderr}"
        );
    }
    let out = sweep()
        .args(["diff", run, run, "--tol", "0"])
        .output()
        .expect("sweep diff runs");
    assert_eq!(out.status.code(), Some(0), "a run matches itself exactly");
}

/// `--shard` shapes a logged run only, so without `--log-dir` it is a
/// usage error rather than a flag silently ignored; the log's window is
/// fixed, so `--window` is an unexpected argument; and the roofline
/// study is `sweep run roofline`, not a subcommand of its own.
#[test]
fn misplaced_flags_and_unknown_subcommands_are_usage_errors() {
    for (args, expected) in [
        (
            &["run", "smoke", "--quiet", "--shard", "1/2"][..],
            "--shard requires --log-dir",
        ),
        (
            &["run", "smoke", "--quiet", "--window", "4"],
            "unexpected argument `--window`",
        ),
        (&["roofline", "roofline"], "unknown subcommand `roofline`"),
    ] {
        let out = sweep().args(args).output().expect("sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}
