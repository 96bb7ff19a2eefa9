#!/usr/bin/env bash
# CI serve-smoke: prove the nanopowerd service end to end through the
# real binaries.
#
#   1. Start the daemon on a temp unix socket and drive it with the
#      bundled load client (default: 4 connections x 25 requests = 100
#      concurrent requests; --quick shrinks it for the bench-smoke
#      ride-along).
#   2. Assert from the load client's summary line that the run
#      completed with zero errors and that repeats hit the
#      cross-request artifact memo.
#   3. Drive the untrusted scenario-spec pipeline over the raw
#      protocol: a valid spec renders under its digest name, the same
#      scenario with reordered keys memo-hits, and out-of-range,
#      unknown-key, over-budget, and typo'd-key requests each draw
#      their typed rejection with the connection surviving.
#   4. Assert the daemon's lifetime counters are consistent (served ==
#      accepted, exactly the typed rejections the spec leg provoked)
#      and that a shutdown request stops the process cleanly within
#      0.5 s while an idle client holds a connection open.
#   5. Crash recovery: run a spill-backed daemon, kill -9 it mid-life,
#      restart on the same (now stale) socket and the same spill file,
#      and assert the memo rehydrates BEFORE any request is served.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK_FLAG=""
if [ "${1:-}" = "--quick" ]; then
    QUICK_FLAG="--quick"
fi

cargo build --release -p np-bench --bin nanopowerd
DAEMON=target/release/nanopowerd
WORK="$(mktemp -d)"
SOCK="$WORK/nanopowerd.sock"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== 1. daemon up, load client through it =="
"$DAEMON" serve --socket "$SOCK" --max-inflight 2 --queue-depth 32 \
    2> "$WORK/daemon.err" &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never opened $SOCK"; cat "$WORK/daemon.err"; exit 1; }

"$DAEMON" load --socket "$SOCK" $QUICK_FLAG | tee "$WORK/load.txt"

echo "== 2. summary and memo checks =="
grep -qE ' 0 errors' "$WORK/load.txt" \
    || { echo "load run saw errors"; exit 1; }
grep -qE ' [1-9][0-9]* memo hits' "$WORK/load.txt" \
    || { echo "repeated requests must hit the artifact memo"; exit 1; }

echo "== 3. scenario specs: render, memoize, reject typed =="
python3 - "$SOCK" <<'EOF'
import json, socket, sys

sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect(sys.argv[1])
rfile = sock.makefile("r")

def send(obj):
    sock.sendall((json.dumps(obj) + "\n").encode())

def recv():
    return json.loads(rfile.readline())

hello = recv()
assert hello["hello"] == "nanopowerd/v1", hello

# A valid spec renders through the builder path under a digest name.
send({"run": {"specs": [{"node": 70, "activity": 0.2, "grid": {"resolution": 9}}]}})
record = recv()["record"]
assert record["status"] == "ok" and record["name"].startswith("spec:"), record
report = recv()["report"]
assert report["ok"] == 1 and report["failures"] == 0, report
first = (record["name"], record["digest"])

# The same scenario with reordered keys and explicit defaults is the
# same canonical spec: memo hit, identical digest, no re-execution.
send({"run": {"specs": [{"grid": {"resolution": 9}, "workload_ratio": 1,
                         "activity": 0.2, "node": 70}]}})
record = recv()["record"]
assert record["memo"] is True, record
assert (record["name"], record["digest"]) == first, (record, first)
recv()

# Out-of-range and unknown-key specs draw typed invalid_spec errors
# naming the field; the connection survives every one.
send({"run": {"specs": [{"node": 70, "activity": 42}]}})
err = recv()["error"]
assert err["kind"] == "invalid_spec" and err["field"] == "activity", err
send({"run": {"specs": [{"node": 70, "nodee": 1}]}})
err = recv()["error"]
assert err["kind"] == "invalid_spec" and err["field"] == "nodee", err

# A spec over the cost budget is refused before any work runs.
send({"run": {"specs": [{"node": 70, "netlist": {"cells": 10000000}}]}})
expensive = recv()["too_expensive"]
assert expensive["estimate"] > expensive["budget"], expensive

# A typo'd run key is a typed protocol error, not a silent default.
send({"run": {"names": ["fig5"], "deadlne_ms": 5}})
err = recv()["error"]
assert err["kind"] == "protocol" and "deadlne_ms" in err["reason"], err

sock.close()
print("spec leg: render + memo + typed rejections OK")
EOF

echo "== 4. counters consistent, shutdown clean =="
"$DAEMON" stats --socket "$SOCK" | tee "$WORK/stats.json"
python3 - "$WORK/stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))["stats"]
assert stats["served"] == stats["accepted"], stats
assert stats["served"] > 0, stats
assert stats["memo_hits"] > 0, stats
# The spec leg deliberately drew exactly one typo'd-key protocol error,
# two invalid specs, and one over-budget refusal -- all typed, none
# fatal, and nothing was quarantined.
assert stats["protocol_errors"] == 1, stats
assert stats["invalid_specs"] == 2, stats
assert stats["too_expensive"] == 1, stats
assert stats["panicked"] == 0 and stats["quarantined"] == 0, stats
EOF
# An idle client is greeted and then holds its connection open: its
# handler sits in a blocking read when the shutdown arrives.
python3 - "$SOCK" > "$WORK/idle.out" <<'EOF' &
import socket, sys
sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect(sys.argv[1])
rfile = sock.makefile("r")
rfile.readline()
print("greeted", flush=True)
rfile.readline()  # EOF once the daemon closes the connection
EOF
idle_pid=$!
for _ in $(seq 1 100); do
    grep -q greeted "$WORK/idle.out" && break
    sleep 0.05
done
grep -q greeted "$WORK/idle.out" || { echo "idle client was never greeted"; exit 1; }
now_us() { local t=$EPOCHREALTIME; echo "${t//[!0-9]/}"; }
"$DAEMON" shutdown --socket "$SOCK" > /dev/null
shutdown_us=$(now_us)
for _ in $(seq 1 1000); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.01
done
exit_ms=$(( ($(now_us) - shutdown_us) / 1000 ))
if kill -0 "$daemon_pid" 2>/dev/null; then
    echo "daemon ignored shutdown"; exit 1
fi
wait "$daemon_pid" || { echo "daemon exited nonzero"; exit 1; }
daemon_pid=""
wait "$idle_pid" || { echo "idle client failed"; exit 1; }
echo "daemon exited ${exit_ms} ms after shutdown, one idle client connected"
[ "$exit_ms" -lt 500 ] || { echo "daemon took ${exit_ms} ms to exit (limit 500)"; exit 1; }

echo "== 5. kill -9 a spill-backed daemon, restart, memo rehydrates =="
SPILL="$WORK/memo.spill"
"$DAEMON" serve --socket "$SOCK" --memo-spill "$SPILL" 2> "$WORK/daemon2.err" &
daemon_pid=$!
for _ in $(seq 1 100); do
    "$DAEMON" health --socket "$SOCK" > /dev/null 2>&1 && break
    sleep 0.1
done
"$DAEMON" load --socket "$SOCK" --quick > /dev/null
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
[ -S "$SOCK" ] || { echo "kill -9 should leave the socket file"; exit 1; }
[ -s "$SPILL" ] || { echo "spill file missing after crash"; exit 1; }

# Restart on the same (stale) socket and spill: the daemon must probe
# and unlink the dead socket, then rehydrate the memo from the spill.
"$DAEMON" serve --socket "$SOCK" --memo-spill "$SPILL" 2> "$WORK/daemon3.err" &
daemon_pid=$!
for _ in $(seq 1 100); do
    "$DAEMON" health --socket "$SOCK" > /dev/null 2>&1 && break
    sleep 0.1
done
"$DAEMON" health --socket "$SOCK" | tee "$WORK/health-restart.json"
python3 - "$WORK/health-restart.json" <<'EOF'
import json, sys
health = json.load(open(sys.argv[1]))["health"]
# No request has been served yet: entries can only come from the spill.
assert health["ready"] is True, health
assert health["spill_active"] is True, health
assert health["memo_entries"] > 0, health
EOF
"$DAEMON" load --socket "$SOCK" --quick | tee "$WORK/load-restart.txt"
grep -qE ' 0 errors' "$WORK/load-restart.txt" \
    || { echo "post-restart load saw errors"; exit 1; }
grep -qE ' [1-9][0-9]* memo hits' "$WORK/load-restart.txt" \
    || { echo "restart must replay from the rehydrated memo"; exit 1; }
"$DAEMON" shutdown --socket "$SOCK" > /dev/null
wait "$daemon_pid" || { echo "restarted daemon exited nonzero"; exit 1; }
daemon_pid=""

echo "serve-smoke: all checks passed"
