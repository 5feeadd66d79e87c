//! `critpath sim`, driven through the real executable: a zero contention
//! value is a usage error (exit 2, the flag named) — before the shared
//! parser the engine, the batch builder or the tiling model panicked
//! (exit 101) — and one cell prints its utilization report and span
//! table and writes a Chrome trace that validates, also with a 2-port
//! DRAM whose concurrent transfers need a lane per port. A preset has
//! no one trace to write.

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
fn critpath_sim_trace_is_one_cells() {
    let out = critpath(&["sim", "--preset", "smoke", "--trace", "unused.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("does not combine with --preset"),
        "{stderr}"
    );
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
