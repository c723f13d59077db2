#!/usr/bin/env bash
# Builds the shipped `tcm-run` binary and the `tcm-perf` benchmark
# offline, then runs `tcm-perf` with the given arguments from the repo
# root. Without arguments it runs the whole suite once (every workload
# plus the traced per-layer run); see perf/README.md.
#
#   perf/run.sh --workload paper-flat --seed 1000 --seconds 20 --trace 0
#   perf/run.sh suite --runs 10 --out set1.json
#   perf/run.sh compare set1.json set2.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p tcm-serve --bin tcm-run
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
if [[ $# -eq 0 ]]; then
    set -- suite
fi
exec "$CARGO_TARGET_DIR/release/tcm-perf" "$@"
