#!/usr/bin/env bash
# Smoke test of the benchmark for a CI hook: every workload twice at 2% of
# its size, then every workload traced, in well under 30 s once built.
# Nothing it prints is a result (scale != 1); it only has to pass its checks.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/benchmark"
"$bin" run --scale 0.02 --repeats 2 --seconds 1
"$bin" trace --scale 0.02 --seconds 1
