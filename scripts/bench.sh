#!/usr/bin/env bash
# Runs the perf harness (repro --bench) in release mode and leaves
# BENCH_grid.json at the repo root. The full run sweeps mesh sizes
# 33..1025 and the PCG-vs-MGCG iteration comparison — budget a few
# minutes (the Jacobi-PCG solves at 513/1025 dominate). Extra flags pass
# through, e.g.:
#   scripts/bench.sh --bench-quick
#   scripts/bench.sh --bench-out /tmp/bench.json
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release -p np-bench --bin repro -- --bench "$@"
