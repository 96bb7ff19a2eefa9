#!/usr/bin/env bash
# Runs the perf harness (repro --bench) in release mode and leaves
# BENCH_grid.json at the repo root. The full run sweeps mesh sizes
# 33..1025, MGCG shard counts 1/2/4/8, and the PCG-vs-MGCG iteration
# comparison — budget a few minutes (the Jacobi-PCG solves at 513/1025
# dominate). Extra flags pass through, e.g.:
#   scripts/bench.sh --bench-quick
#   scripts/bench.sh --bench-out /tmp/bench.json
set -euo pipefail
cd "$(dirname "$0")/.."
ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "${ncpu}" -le 1 ]; then
    echo "warning: only ${ncpu} cpu online — the MGCG shard sweep will show" \
         "sharding overhead, not speedup (see BENCHMARKS.md)" >&2
fi
exec cargo run --release -p np-bench --bin repro -- --bench "$@"
