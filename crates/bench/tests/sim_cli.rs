//! `critpath sim`, driven through the real executable: a zero contention
//! value is a usage error (exit 2, the flag named) — before the shared
//! parser the engine, the batch builder or the tiling model panicked
//! (exit 101) — and one cell prints its utilization report and span
//! table and writes a Chrome trace and an `adagp-critpath-v1` report
//! that validate, also with a 2-port DRAM whose concurrent transfers
//! need a lane per port. `sim` is one cell: `--preset` is an unexpected
//! argument. A stdout closed before the run prints is not an error: the
//! `--json` report is still written and the exit status is 0. `diff`
//! writes both of its reports whatever its verdict.

use std::process::{Command, Output};

const CRITPATH: &str = env!("CARGO_BIN_EXE_critpath");

fn critpath(args: &[&str]) -> Output {
    Command::new(CRITPATH)
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn critpath_sim_rejects_zero_contention_values() {
    for flag in ["--bandwidth", "--buffer-words", "--dram-ports"] {
        let out = critpath(&["sim", flag, "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: must be positive")),
            "{flag} 0: {stderr}"
        );
    }
}

#[test]
fn critpath_sim_has_no_preset_mode() {
    let out = critpath(&["sim", "--preset", "smoke"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unexpected argument `--preset`"),
        "{stderr}"
    );
}

#[test]
fn critpath_sim_survives_a_closed_stdout() {
    let json = std::env::temp_dir().join(format!("adagp-sim-cli-pipe-{}.json", std::process::id()));
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(CRITPATH)
        .args(["sim", "--json", json.to_str().unwrap()])
        .stdout(writer)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let text = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    adagp_obs::validate_critpath(&text).expect("report valid");
}

#[test]
fn critpath_sim_writes_a_valid_trace_and_the_span_table() {
    let dir = std::env::temp_dir().join(format!("adagp-sim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for ports in ["1", "2"] {
        let trace = dir.join(format!("ports{ports}.trace.json"));
        let json = dir.join(format!("ports{ports}.json"));
        let out = critpath(&[
            "sim",
            "--model",
            "ResNet50",
            "--design",
            "low",
            "--phase",
            "bp",
            "--dram-ports",
            ports,
            "--trace",
            trace.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "--dram-ports {ports}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let stats = adagp_obs::validate_chrome_trace(&text)
            .unwrap_or_else(|e| panic!("--dram-ports {ports}: {e}"));
        assert!(stats.spans > 0);
        let text = std::fs::read_to_string(&json).expect("report written");
        let report = adagp_obs::validate_critpath(&text)
            .unwrap_or_else(|e| panic!("--dram-ports {ports}: {e}"));
        assert!(report.chain > 0, "--dram-ports {ports}: no chain segments");
        assert!(
            stdout.contains("phase bp (ADA-GP-LOW): makespan "),
            "{stdout}"
        );
        assert!(
            stdout.contains("  start      end        dur        resource         task"),
            "{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn critpath_diff_writes_both_reports_whatever_its_verdict() {
    let dir = std::env::temp_dir().join(format!("adagp-sim-cli-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (measured, sim) = (dir.join("measured.json"), dir.join("sim.json"));
    let out = critpath(&[
        "diff",
        "--json",
        measured.to_str().unwrap(),
        "--sim-json",
        sim.to_str().unwrap(),
    ]);
    // The verdict compares wall-clock occupancies: 0 (agree) or 1
    // (disagree) are both runs that finished.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 1)), "{stderr}");
    let read = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).expect("report written");
        adagp_obs::validate_critpath(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let (measured, sim) = (read(&measured), read(&sim));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(measured.mode, "measured");
    assert!(measured.lanes > 0, "measured report has no lanes");
    assert_eq!(sim.mode, "sim");
    assert!(sim.chain > 0, "sim report has no chain segments");
}
