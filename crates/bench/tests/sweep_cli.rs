//! End-to-end checks of the `sweep` binary's usage surface, driven
//! through the real executable (`CARGO_BIN_EXE_sweep`), and of the
//! contention flags that moved from the removed `sweep sim` to `critpath
//! sim` (`CARGO_BIN_EXE_critpath`):
//!
//! * `critpath sim --no-contention` wins over `--bandwidth` /
//!   `--buffer-words` in any order: zero buffer-spill cycles in every
//!   phase, and the same report as the flag alone.
//! * With contention on, the same tight buffer spills — the flag is doing
//!   the silencing — and so does every tight-buffer cell of `sweep run
//!   bandwidth-smoke`.
//! * A zero `--bandwidth` / `--buffer-words` on `critpath sim` is exit 2
//!   naming the flag; `sweep run` takes neither flag (exit 2).
//! * A NaN, negative or infinite `--tol` on `sweep diff` is exit 2, and
//!   a regression's hint names the grid of a `<before>` named after it.
//! * `--shard` on `sweep run` without `--log-dir`, the removed
//!   `--window`, the removed `diff --preset` and the removed `sweep
//!   roofline` are exit 2.
//! * The removed `sweep sim` is exit 2 with the usage, and writes nothing.
//! * `sweep list` survives a stdout closed before it prints.

use std::path::PathBuf;
use std::process::Command;

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adagp-sweep-cli-{}-{name}", std::process::id()))
}

fn critpath() -> Command {
    Command::new(env!("CARGO_BIN_EXE_critpath"))
}

/// The stdout of a successful `critpath sim` with `args`.
fn critpath_sim(args: &[&str]) -> String {
    let out = critpath()
        .arg("sim")
        .args(args)
        .output()
        .expect("critpath runs");
    assert!(
        out.status.success(),
        "critpath sim {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The buffer-spill cycles of a `critpath sim` utilization report.
fn spill_cycles(report: &str) -> u64 {
    let tail = report
        .split("+ buffer-spill ")
        .nth(1)
        .unwrap_or_else(|| panic!("no buffer-spill in:\n{report}"));
    tail.split(' ')
        .next()
        .unwrap()
        .parse()
        .expect("spill cycles")
}

const PHASES: [&str; 3] = ["baseline", "bp", "gp"];

/// The tightest buffer of the bandwidth grids.
const TIGHT_BUFFER: &str = "16384";

#[test]
fn no_contention_zeroes_spill_cycles_exactly_even_with_buffer_overrides() {
    for phase in PHASES {
        let report = critpath_sim(&[
            "--phase",
            phase,
            "--bandwidth",
            "16",
            "--buffer-words",
            TIGHT_BUFFER,
            "--no-contention",
        ]);
        assert_eq!(spill_cycles(&report), 0, "phase {phase}: --no-contention");
    }
}

#[test]
fn contention_on_reports_nonzero_spills_for_the_tight_buffer_cells() {
    for phase in PHASES {
        let report = critpath_sim(&["--phase", phase, "--buffer-words", TIGHT_BUFFER]);
        assert!(spill_cycles(&report) > 0, "phase {phase}: no spill");
    }
    let csv = tmp("bandwidth-smoke.csv");
    let out = sweep()
        .args(["run", "bandwidth-smoke", "--quiet", "--csv"])
        .arg(&csv)
        .output()
        .expect("sweep runs");
    assert!(
        out.status.success(),
        "sweep run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&csv).expect("CSV written");
    std::fs::remove_file(&csv).ok();
    let header: Vec<&str> = text.lines().next().expect("header").split(',').collect();
    let col = |name: &str| header.iter().position(|&h| h == name).expect(name);
    let (buffer, spill) = (col("buffer_words"), col("spill_cycles"));
    let tight: Vec<Vec<&str>> = text
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect::<Vec<_>>())
        .filter(|row| row[buffer] == TIGHT_BUFFER)
        .collect();
    assert_eq!(tight.len(), 4, "bandwidth-smoke has 4 tight-buffer cells");
    for row in tight {
        assert_ne!(row[spill], "0.000000", "{}: no spill", row[0]);
    }
}

#[test]
fn no_contention_composes_with_explicit_bandwidth_and_buffer_flags() {
    // The flag must win even when the CLI also passes the base knobs.
    let alone = critpath_sim(&["--no-contention"]);
    assert_eq!(spill_cycles(&alone), 0);
    for args in [
        [
            "--bandwidth",
            "4",
            "--buffer-words",
            "1024",
            "--no-contention",
        ],
        [
            "--no-contention",
            "--bandwidth",
            "4",
            "--buffer-words",
            "1024",
        ],
    ] {
        assert_eq!(critpath_sim(&args), alone, "{args:?}");
    }
}

/// A zero bandwidth or buffer is a usage error naming the flag (it was a
/// panic, exit 101, inside the batch builder or the tiling model); the
/// run path takes neither flag — a grid's `bandwidths` / `buffers` axes
/// set them per cell.
#[test]
fn sim_rejects_zero_contention_values_as_usage_errors() {
    for flag in ["--bandwidth", "--buffer-words"] {
        let out = critpath()
            .args(["sim", flag, "0"])
            .output()
            .expect("critpath runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: must be positive")),
            "{stderr}"
        );
        let out = sweep()
            .args(["run", "smoke", "--quiet", flag, "0"])
            .output()
            .expect("sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "sweep run {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument `{flag}`")),
            "{stderr}"
        );
    }
}

/// The simulated columns are `sweep run`'s (`evaluate_cell`), and one
/// cell's per-phase makespans under any flags are `critpath sim`'s, so
/// `sweep sim` is an unknown subcommand: usage, exit 2, no file.
#[test]
fn sweep_sim_is_an_unknown_subcommand() {
    let csv = tmp("sim-smoke.csv");
    let out = sweep()
        .args(["sim", "smoke", "--csv"])
        .arg(&csv)
        .output()
        .expect("sweep runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown subcommand `sim`"), "{stderr}");
    assert!(stderr.contains("Usage:"), "{stderr}");
    assert!(!csv.exists(), "sweep sim wrote {}", csv.display());
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

/// `sweep diff`'s documented exit-code contract, end to end: 0 for a
/// clean comparison, 1 when a metric regressed beyond tolerance, 2 for
/// usage errors. On a regression it prints the command that regenerates
/// `<before>`, naming the grid when the file's stem is a preset.
#[test]
fn diff_exit_codes_cover_clean_regressed_and_usage() {
    use adagp_sweep::store::{stored_json_string, StoredCell};
    use adagp_sweep::{evaluate_cell, presets};

    let cells: Vec<StoredCell> = presets::smoke()
        .expand()
        .iter()
        .map(|s| StoredCell::from_evaluation(s, &evaluate_cell(s)))
        .collect();
    let dir = tmp("diff");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, cells: &[StoredCell]| {
        let path = dir.join(name);
        std::fs::write(&path, stored_json_string("smoke", cells)).expect("run record written");
        path.to_string_lossy().to_string()
    };
    let before = write("smoke.json", &cells);
    let unnamed = write("before.json", &cells);
    let mut worse = cells.clone();
    worse[0].metrics[0] *= 0.9; // speed-up down 10%: a regression
    let after = write("after.json", &worse);

    let diff = |args: &[&str]| {
        let out = sweep()
            .args(["diff"])
            .args(args)
            .output()
            .expect("sweep diff runs");
        (
            out.status.code().expect("exit code"),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let code = |args: &[&str]| diff(args).0;
    assert_eq!(code(&[&before, &before]), 0, "identical runs are clean");
    let (regressed, stdout) = diff(&[&before, &after]);
    assert_eq!(regressed, 1, "regression exits 1");
    assert!(
        stdout.contains(&format!("run smoke --quiet --json {before}")),
        "the hint names the grid of smoke.json:\n{stdout}"
    );
    let (_, stdout) = diff(&[&unnamed, &after]);
    assert!(
        stdout.contains(&format!("run <preset> --quiet --json {unnamed}")),
        "a stem that is no preset is not named:\n{stdout}"
    );
    assert_eq!(
        code(&[&before, &after, "--tol", "0.5"]),
        0,
        "a loose tolerance absorbs the regression"
    );
    assert_eq!(code(&[&before]), 2, "missing <after> is a usage error");
    assert_eq!(
        code(&[&before, "/nonexistent/run.json"]),
        2,
        "unreadable input is an I/O error"
    );
    std::fs::remove_dir_all(&dir).ok();
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
/// fixed, so `--window` is an unexpected argument, as is `diff --preset`
/// (the regenerate hint reads the grid from `<before>`'s stem); and the
/// roofline study is `sweep run roofline`, not a subcommand of its own.
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
        (
            &["diff", "a.csv", "b.csv", "--preset", "smoke"],
            "unexpected argument `--preset`",
        ),
        (&["roofline", "roofline"], "unknown subcommand `roofline`"),
    ] {
        let out = sweep().args(args).output().expect("sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}
