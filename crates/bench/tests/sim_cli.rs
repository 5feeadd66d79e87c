//! `sim_timeline` and `critpath sim` reject a zero contention value as a
//! usage error (exit 2, the flag named), driven through the real
//! executables. Before the shared parser, each one panicked (exit 101)
//! inside the engine, the batch builder or the tiling model.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_zero_values_rejected(bin: &str, prefix: &[&str]) {
    for flag in ["--bandwidth", "--buffer-words", "--dram-ports"] {
        let args: Vec<&str> = prefix.iter().copied().chain([flag, "0"]).collect();
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: must be positive")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn sim_timeline_rejects_zero_contention_values() {
    assert_zero_values_rejected(env!("CARGO_BIN_EXE_sim_timeline"), &[]);
}

#[test]
fn critpath_sim_rejects_zero_contention_values() {
    assert_zero_values_rejected(env!("CARGO_BIN_EXE_critpath"), &["sim"]);
}
