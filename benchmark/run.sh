#!/usr/bin/env bash
# One command for the benchmark.
#
#   benchmark/run.sh [--seed N] [--workload W] [--quick] [--seconds S] [--out FILE]
#       builds release offline, runs every workload untraced and traced, and
#       prints every end-to-end and per-layer metric by name with its unit,
#       plus attempted/failed counts. --quick is a <10 s smoke run whose
#       numbers are NOT comparable with full-scale ones.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run in contract mode (what BENCHMARK.json's command invokes): the
#       last line of standard output is the result object.
#
#   benchmark/run.sh compare A.json B.json | summarize FILE... | reference
#       the reading tools; see README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Quiet on success; a failed build (or a checkout without the workspace
# crates) prints cargo's error and exits non-zero before any result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bins

trace=""
first="${1:-}"
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" ]]; then
        trace="${args[i + 1]:-}"
    fi
done

case "$first" in
compare | summarize | reference | suite)
    exec "$target/release/benchmark" "$@"
    ;;
esac
if [[ "$trace" == "1" ]]; then
    exec "$target/release/benchmark-traced" "$@"
elif [[ -n "$trace" ]]; then
    exec "$target/release/benchmark" "$@"
else
    exec "$target/release/benchmark" suite "$@"
fi
