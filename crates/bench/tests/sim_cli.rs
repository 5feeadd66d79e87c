//! `critpath sim`, driven through the real executable: a zero contention
//! value is a usage error (exit 2, the flag named) — before the shared
//! parser the engine, the batch builder or the tiling model panicked
//! (exit 101) — and one cell prints its utilization report and span
//! table and writes a Chrome trace that validates, also with a 2-port
//! DRAM whose concurrent transfers need a lane per port. `sim` is one
//! cell: `--preset` is an unexpected argument. A stdout closed before
//! the run prints is not an error: the `--json` report is still written
//! and the exit status is 0.

use std::process::{Command, Output, Stdio};

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
    let mut child = Command::new(CRITPATH)
        .args(["sim", "--json", json.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
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
        let trace = dir.join(format!("ports{ports}.json"));
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
