//! End-to-end checks of the `paper` binary, driven through the real
//! executable (`CARGO_BIN_EXE_paper`):
//!
//! * `paper list` names all 18 artifacts.
//! * The nine analytic artifacts (no training, milliseconds each) print
//!   stdout byte-identical to `testdata/paper/<name>.txt`, captured from
//!   the standalone per-artifact binaries the `paper` table replaced —
//!   and `fig17_ws_speedup`, which runs on the shared pool, does so at
//!   every thread count.
//! * Selection typos are exit 2, never an empty artifact: an unknown or
//!   missing artifact name, and an `ADAGP_MODELS` entry that matches no
//!   model.
//!
//! Regenerate a golden after an intended model change with
//! `cargo run --release -p adagp-bench --bin paper -- <name> >
//! crates/bench/testdata/paper/<name>.txt` and say why in the PR.

use std::process::{Command, Output};

const ARTIFACTS: [&str; 18] = [
    "fig15_predictor_error",
    "fig16_vgg13_characterization",
    "fig17_ws_speedup",
    "fig18_rs_speedup",
    "fig19_is_speedup",
    "fig20_pipeline_speedup",
    "fig21_energy",
    "table1_accuracy",
    "table2_transformer",
    "table3_yolo",
    "table4_fpga",
    "table5_asic",
    "ablation_calibration",
    "ablation_predictor",
    "ablation_schedule",
    "comparison_dni",
    "iso_resource",
    "pipeline_utilization",
];

const ANALYTIC: [&str; 9] = [
    "fig16_vgg13_characterization",
    "fig17_ws_speedup",
    "fig18_rs_speedup",
    "fig19_is_speedup",
    "fig20_pipeline_speedup",
    "fig21_energy",
    "table4_fpga",
    "table5_asic",
    "iso_resource",
];

fn paper(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("paper runs")
}

fn assert_matches_golden(name: &str, env: &[(&str, &str)]) {
    let out = paper(&[name], env);
    assert!(
        out.status.success(),
        "paper {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!("{}/testdata/paper/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(
        out.stdout == golden,
        "paper {name} (env {env:?}) drifted from {path}:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn list_names_all_18_artifacts() {
    let out = paper(&["list"], &[]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    let names: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    assert_eq!(names, ARTIFACTS);
}

#[test]
fn analytic_artifacts_match_the_standalone_binaries_byte_for_byte() {
    for name in ANALYTIC {
        assert_matches_golden(name, &[]);
    }
}

#[test]
fn fig17_is_byte_identical_at_every_thread_count() {
    for threads in ["1", "3"] {
        assert_matches_golden("fig17_ws_speedup", &[("ADAGP_THREADS", threads)]);
    }
}

#[test]
fn unknown_or_missing_artifact_is_exit_2_with_the_list_on_stderr() {
    let listing = String::from_utf8(paper(&["list"], &[]).stdout).expect("utf-8 listing");
    for args in [&[][..], &["fig17"], &["fig17_ws_speedup", "--csv"]] {
        let out = paper(args, &[]);
        assert_eq!(out.status.code(), Some(2), "paper {args:?}");
        assert!(out.stdout.is_empty(), "paper {args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("Exit codes:") && stderr.ends_with(&listing),
            "paper {args:?}: {stderr}"
        );
    }
}

#[test]
fn unknown_adagp_models_name_is_exit_2_with_the_valid_names() {
    let out = paper(&["table1_accuracy"], &[("ADAGP_MODELS", "vgg13,vgg")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "a table was printed for a model set that names nothing"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown model(s) `vgg`") && stderr.contains("VGG13, VGG16, VGG19"),
        "{stderr}"
    );
}
