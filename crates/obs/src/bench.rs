//! The revision label a measurement is stamped with. The benchmark's
//! results files (`benchmark/`, `BENCHMARK.json`) record it in their env
//! block as `git`, and read a `-dirty` suffix as "built from uncommitted
//! changes".

/// Environment variable overriding the git-derived label.
pub const LABEL_ENV: &str = "ADAGP_BENCH_LABEL";

/// Resolves the label: `ADAGP_BENCH_LABEL` wins, then
/// `git describe --tags --always --dirty`, then `"unversioned"`.
pub fn snapshot_label() -> String {
    if let Ok(label) = std::env::var(LABEL_ENV) {
        if !label.is_empty() {
            return label;
        }
    }
    std::process::Command::new("git")
        .args(["describe", "--tags", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unversioned".to_string())
}
