#!/usr/bin/env bash
# The one command: every workload with tracing off, every correctness check,
# every end-to-end metric by name with its unit. Arguments go to `run`
# (`--seed <n>`, `--quick`, `--repeat <k>`, `--out <file>`); use
# `benchmark/run.sh trace ...` for the traced per-layer run and
# `benchmark/run.sh compare <parent.json> <change.json>` to judge two
# results files.
set -euo pipefail
cd "$(dirname "$0")/.."
sub=run
case "${1:-}" in run | trace | compare) sub=$1; shift ;; esac
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$sub" "$@"
