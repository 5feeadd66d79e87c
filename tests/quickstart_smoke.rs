//! Smoke test that the documented entry point — `cargo run --release
//! --example quickstart` — builds and runs to completion, so the README's
//! first command can never silently rot. It runs with `ADAGP_TRACE` and
//! `ADAGP_PROFILE` set, so it must also leave a valid, non-empty Chrome
//! trace and a valid, non-empty collapsed-stack profile behind.
//!
//! The test shells out to the same `cargo` that is running the test suite
//! and reuses its target directory, so after a tier-1 `cargo build
//! --release` the example is an incremental rebuild, not a cold one.

use std::process::Command;

#[test]
fn quickstart_example_runs_to_completion() {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let dump = |ext: &str| {
        std::env::temp_dir().join(format!("adagp-quickstart-{}.{ext}", std::process::id()))
    };
    let (trace, profile) = (dump("trace.json"), dump("collapsed"));
    let output = Command::new(cargo)
        .args(["run", "--release", "--example", "quickstart"])
        .env("ADAGP_TRACE", &trace)
        .env("ADAGP_PROFILE", &profile)
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn cargo");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "quickstart exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status
    );
    // The example ends by reporting its phase statistics; their presence
    // means the full warm-up -> BP/GP training loop actually ran.
    assert!(
        stdout.contains("phase counts:"),
        "quickstart did not reach its final report\nstdout:\n{stdout}"
    );

    let read = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        std::fs::remove_file(path).ok();
        text
    };
    let stats = adagp_obs::validate_chrome_trace(&read(&trace)).expect("trace valid");
    assert!(stats.spans > 0, "trace contains no spans");
    let stats = adagp_obs::validate_profile(&read(&profile)).expect("profile valid");
    assert!(stats.nodes > 0, "profile contains no spans");
}
