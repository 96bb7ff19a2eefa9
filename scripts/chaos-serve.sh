#!/usr/bin/env bash
# CI chaos-serve: drive the nanopowerd daemon through the seeded
# socket-level fault-injection proxy and prove it degrades instead of
# dying.
#
#   1. Run the deterministic chaos integration suite (torn frames,
#      slowloris, garbage floods, kill -9 + spill rehydration, typed
#      overload shedding) against the real binary.
#   2. Start a daemon, put the hidden `chaos-proxy` subcommand in front
#      of it with a FIXED seed, and push the load client through the
#      proxy. Client-side errors are expected weather; the assertions
#      are daemon-side.
#   3. Assert the daemon never panicked, still answers `health` with
#      ready=true, and serves a clean direct load run with zero errors
#      afterwards.
set -euo pipefail
cd "$(dirname "$0")/.."

# Faults are drawn from this seed alone: a failing run replays exactly.
CHAOS_SEED=3735928559

echo "== 1. deterministic chaos integration suite =="
cargo test --release -p np-bench --test chaos

cargo build --release -p np-bench --bin nanopowerd
DAEMON=target/release/nanopowerd
WORK="$(mktemp -d)"
SOCK="$WORK/nanopowerd.sock"
PROXY="$WORK/chaos.sock"
daemon_pid=""
proxy_pid=""
cleanup() {
    [ -n "$proxy_pid" ] && kill "$proxy_pid" 2>/dev/null || true
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== 2. seeded fault-injection proxy in front of the daemon =="
"$DAEMON" serve --socket "$SOCK" --max-inflight 2 --queue-depth 32 \
    2> "$WORK/daemon.err" &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never opened $SOCK"; cat "$WORK/daemon.err"; exit 1; }

"$DAEMON" chaos-proxy --listen "$PROXY" --upstream "$SOCK" \
    --seed "$CHAOS_SEED" 2> "$WORK/proxy.err" &
proxy_pid=$!
for _ in $(seq 1 100); do
    [ -S "$PROXY" ] && break
    sleep 0.1
done
[ -S "$PROXY" ] || { echo "proxy never opened $PROXY"; cat "$WORK/proxy.err"; exit 1; }

# Through the proxy, torn frames and garbage floods make the CLIENT see
# errors — a nonzero exit here is the point of the exercise.
"$DAEMON" load --socket "$PROXY" --quick | tee "$WORK/chaos-load.txt" || true

echo "== 3. daemon survived: no panics, ready, clean service =="
if grep -qi "panic" "$WORK/daemon.err"; then
    echo "daemon panicked under chaos:"; cat "$WORK/daemon.err"; exit 1
fi
kill -0 "$daemon_pid" 2>/dev/null || { echo "daemon died under chaos"; exit 1; }
"$DAEMON" health --socket "$SOCK" | tee "$WORK/health.json"
python3 - "$WORK/health.json" <<'EOF'
import json, sys
health = json.load(open(sys.argv[1]))["health"]
assert health["ready"] is True, health
assert health["inflight"] == 0, health
EOF
"$DAEMON" load --socket "$SOCK" --quick | tee "$WORK/after.txt"
grep -qE ' 0 errors' "$WORK/after.txt" \
    || { echo "daemon degraded after chaos"; exit 1; }
"$DAEMON" shutdown --socket "$SOCK" > /dev/null
wait "$daemon_pid" || { echo "daemon exited nonzero"; exit 1; }
daemon_pid=""

echo "chaos-serve: all checks passed (seed $CHAOS_SEED)"
