#!/usr/bin/env python3
"""Run one nanopower benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/rationale.json for why each exists):

  registry    one fresh `repro --check --json` process per op
  serve-cold  never-repeated cold-compute specs against a fresh `nanopowerd`
  serve-hot   memo hits on a primed `nanopowerd`
  ppa         the parallel co-optimizer at a 1.00x critical-delay clock

The script builds `repro`, `nanopowerd` and the harness package
(perfbench/harness) from source with cargo, offline, into
$CARGO_TARGET_DIR (default .bench_build), then runs the workload in fresh
processes and checks its outputs. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics (from a
separate traced run, whose spans and counts go to .bench_runs/spans/) with
--trace 1. The line before it is a report with every figure of the run,
sample counts and host diagnostics. A failed build or a broken workload
self-check exits non-zero without a result; a wrong output reads
"correct": false.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("registry", "serve-cold", "serve-hot", "ppa")

# Set-ups per serve run; setup_s is their median. The registry gets one
# per pass (at least two passes) and ppa repeats its own in the harness.
SETUP_REPEATS = 3
# Every child process must end within this many seconds.
CHILD_TIMEOUT_S = 150.0
# Artifacts whose per-artifact durations are their own registry metrics.
REGISTRY_HEAVY = ("fig5-mesh", "fig34-mgate")
# Jobs in a registry run: the plan probe reproduces their solver budget.
REGISTRY_JOBS = 19
FIG5_MESH_RESOLUTION = 1025


class BenchError(Exception):
    """A build, self-check or correctness failure: the run has no result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# processes


def vm_hwm_kb(pid):
    """Peak resident set of a live process, KiB (0 once it has exited).

    Read from /proc rather than wait4's ru_maxrss, which on Linux also
    counts the forked copy of this script before exec."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Child:
    """A child process, sampled for its peak resident set while it runs."""

    def __init__(self, argv, cwd, work, stdout=subprocess.PIPE):
        self.argv = [str(a) for a in argv]
        self.started = time.perf_counter()
        self.err_path = work / f"stderr-{time.monotonic_ns()}"
        self.err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            self.argv, cwd=cwd, stdout=stdout, stderr=self.err,
            stdin=subprocess.DEVNULL)
        self.maxrss_kb = 0
        self.wall_s = None
        self._out = []
        self._eof = None
        self._reader = None
        if self.proc.stdout is not None:
            self._reader = threading.Thread(target=self._read, daemon=True)
            self._reader.start()

    def _read(self):
        self._out.append(self.proc.stdout.read())
        # The child closes stdout as it exits: this instant, not the next
        # poll, ends its wall time.
        self._eof = time.perf_counter()

    def sample_rss(self):
        self.maxrss_kb = max(self.maxrss_kb, vm_hwm_kb(self.proc.pid))

    def _reaped(self):
        if self.proc.poll() is None:
            return False
        if self.wall_s is None:
            self.wall_s = time.perf_counter() - self.started
            self.err.close()
        return True

    def wait(self, timeout=CHILD_TIMEOUT_S):
        """Waits for exit, sampling the peak RSS; returns (rc, stdout)."""
        deadline = time.monotonic() + timeout
        while True:
            self.sample_rss()
            if self._reaped():
                break
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError(f"{self.argv[0]} did not exit in {timeout:.0f} s")
            time.sleep(0.005)
        if self._reader is not None:
            self._reader.join()
            self.proc.stdout.close()
            self.wall_s = self._eof - self.started
        return self.proc.returncode, b"".join(self._out).decode()

    def stderr_tail(self):
        try:
            return self.err_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def kill(self):
        if not self._reaped():
            self.proc.kill()
            self.proc.wait()
            self._reaped()
        if self._reader is not None:
            self._reader.join()


def run_json(argv, cwd, timeout=CHILD_TIMEOUT_S):
    """Runs a child that prints one JSON line; returns (json, Child)."""
    child = Child(argv, cwd, cwd)
    try:
        rc, out = child.wait(timeout)
    finally:
        child.kill()
    if rc != 0:
        raise BenchError(f"{' '.join(child.argv[:2])} failed ({rc}): {child.stderr_tail()}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{child.argv[0]} printed nothing")
    return json.loads(lines[-1]), child


# ---------------------------------------------------------------------------
# build


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "np-bench",
         "--bin", "repro", "--bin", "nanopowerd"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(HARNESS / "Cargo.toml")],
    ]
    for argv in steps:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = target / "release"
    bins = {name: release / name for name in ("repro", "nanopowerd", "perfbench-harness")}
    for name, path in bins.items():
        if not path.is_file():
            raise BenchError(f"build produced no {name}")
    return bins


# ---------------------------------------------------------------------------
# host diagnostics


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def refloop_ms(bins, work):
    result, _ = run_json([bins["perfbench-harness"], "refloop"], work)
    return result["refloop_ms"]


# ---------------------------------------------------------------------------
# nanopowerd


def daemon_call(sock, request, timeout=5.0):
    """One request over a fresh connection; returns the first reply line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        # A relative path keeps the address under the 108-byte limit of
        # unix sockets wherever the checkout lives.
        s.connect(os.path.relpath(sock))
        s.sendall((json.dumps(request) + "\n").encode())
        buf = b""
        lines = []
        while len(lines) < 2:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
            *lines, _rest = buf.split(b"\n")
        if len(lines) < 2:
            raise BenchError(f"daemon closed the connection on {request}")
        return json.loads(lines[1])  # lines[0] is the hello


class Daemon:
    """A fresh `nanopowerd serve` with its own socket and memo spill."""

    def __init__(self, bins, work, index):
        name = f"d{index}.sock"
        self.sock_name = name
        self.sock = work / name
        self.child = Child([bins["nanopowerd"], "serve", "--socket", name,
                            "--memo-spill", f"m{index}.spill"],
                           work, work, stdout=subprocess.DEVNULL)
        self.ready_s = self._wait_ready()

    def _wait_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.child.proc.poll() is not None:
                raise BenchError(f"nanopowerd exited: {self.child.stderr_tail()}")
            try:
                reply = daemon_call(self.sock, {"health": {}}, timeout=1.0)
                if reply.get("health", {}).get("ready"):
                    return time.perf_counter() - self.child.started
            except (OSError, ValueError, BenchError):
                pass
            time.sleep(0.002)
        raise BenchError("nanopowerd never reported ready")

    def shutdown(self):
        """Stops the daemon and returns its peak RSS in KiB."""
        self.child.sample_rss()
        if self.child.proc.returncode is None:
            try:
                daemon_call(self.sock, {"shutdown": {}})
                self.child.wait(timeout=30.0)
            except (OSError, ValueError, BenchError):
                pass
            self.child.kill()
        return self.child.maxrss_kb


def harness(bins, work, *args):
    return run_json([bins["perfbench-harness"], *args], work)


# ---------------------------------------------------------------------------
# workloads, untraced


def repro_pass(bins, work, extra=()):
    """One registry pass: returns (wall_s, report, maxrss_kb)."""
    child = Child([bins["repro"], "--check", "--json", *extra], ROOT, work)
    try:
        rc, out = child.wait()
    finally:
        child.kill()
    try:
        report = json.loads(out)
    except ValueError:
        raise BenchError(f"repro printed no run report (rc {rc}): {child.stderr_tail()}")
    return child.wall_s, report, child.maxrss_kb


def registry_counts(report):
    """(failed artifacts, golden-checked, golden-equal) of one pass."""
    statuses = [a["status"] for a in report["artifacts"]]
    checked = sum(s in ("ok", "drift") for s in statuses)
    correct = sum(s == "ok" for s in statuses)
    return len(statuses) - checked, checked, correct


def run_registry(bins, work, seed, seconds):
    del seed  # the registry's inputs are fixed; the seed has nothing to vary
    passes = []
    start = time.monotonic()
    while True:
        passes.append(repro_pass(bins, work))
        elapsed = time.monotonic() - start
        # Another pass if it would end nearer `seconds` than stopping now.
        if len(passes) >= 2 and elapsed + elapsed / len(passes) / 2 > seconds:
            break
    walls = [p[0] for p in passes]
    failed_passes = checked = correct = 0
    for _, report, _ in passes:
        bad, c, ok = registry_counts(report)
        failed_passes += bad > 0
        checked += c
        correct += ok
    setups = [wall - report["total_ms"] / 1e3 for wall, report, _ in passes]
    return {
        "attempted": len(passes),
        "failed": failed_passes,
        "checked": checked,
        "correct": correct,
        "samples": len(passes),
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(walls),
        "rps": len(walls) / sum(walls),
        "p50_ms": statistics.median(walls) * 1e3,
        "p90_ms": statistics.quantiles(walls, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": max(p[2] for p in passes) / 1024,
    }


def run_serve(bins, work, workload, seed, seconds):
    setups = []
    result = rss_kb = None
    for i in range(SETUP_REPEATS):
        daemon = Daemon(bins, work, i)
        try:
            last = i == SETUP_REPEATS - 1
            if last:
                result, _ = harness(bins, work, "serve", "--socket", daemon.sock_name,
                                    "--workload", workload, "--seed", seed,
                                    "--seconds", seconds)
                prime_s = result["prime_s"]
            elif workload == "serve-hot":
                prime_s = harness(bins, work, "prime", "--socket", daemon.sock_name,
                                  "--seed", seed)[0]["prime_s"]
            else:
                prime_s = 0.0
            setups.append(daemon.ready_s + prime_s)
        finally:
            kb = daemon.shutdown()
        if last:
            rss_kb = kb
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checked": result["checked"],
        "correct": result["correct"],
        "samples": result["n"],
        "setup_s": statistics.median(setups),
        "wall_s": result["mean_ms"] / 1e3,
        "rps": result["rps"],
        "p50_ms": result["p50_ms"],
        "p90_ms": result["p90_ms"],
        "peak_rss_mb": rss_kb / 1024,
        "memo_hits": result["memo_hits"],
    }


def run_ppa(bins, work, seed, seconds):
    result, child = harness(bins, work, "ppa", "--seed", seed, "--seconds", seconds)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checked": result["checked"],
        "correct": result["correct"],
        "samples": result["n"],
        "setup_s": result["setup_s"],
        "wall_s": result["mean_ms"] / 1e3,
        "rps": result["rps"],
        "p50_ms": result["p50_ms"],
        "p90_ms": result["p90_ms"],
        "peak_rss_mb": child.maxrss_kb / 1024,
        "power_saving": result["power_saving"],
    }


# ---------------------------------------------------------------------------
# workloads, traced


def outermost(events, prefix, suffix):
    """Complete events named prefix*suffix not nested in another such event
    on the same thread."""
    picked = sorted((e for e in events if e.get("ph") == "X"
                     and e["name"].startswith(prefix) and e["name"].endswith(suffix)),
                    key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    out = []
    for e in picked:
        if out and out[-1]["tid"] == e["tid"] and e["ts"] + e["dur"] <= out[-1]["ts"] + out[-1]["dur"]:
            continue
        out.append(e)
    return out


def trace_registry(bins, work, seed, seconds):
    del seed, seconds  # one untraced and one traced pass, fixed inputs
    trace_file = work / "registry-trace.json"
    plain_wall, plain, _ = repro_pass(bins, work)
    traced_wall, report, _ = repro_pass(bins, work, ("--trace-out", trace_file))
    failed, checked, correct = registry_counts(report)
    failed = (failed > 0) + (registry_counts(plain)[0] > 0)
    durations = {a["artifact"]: a["duration_ms"] for a in report["artifacts"]}
    busy = {}
    for a in report["artifacts"]:
        busy[a["worker"]] = busy.get(a["worker"], 0.0) + a["duration_ms"]
    events = json.loads(trace_file.read_text())["traceEvents"]
    solves = outermost(events, "grid.", ".solve")
    counters = report["telemetry"]["counters"]
    iterations = counters.get("grid.pcg.iterations", 0) + counters.get("grid.mgcg.sweeps_equivalent", 0)
    plan, _ = harness(bins, work, "plan", "--resolution", FIG5_MESH_RESOLUTION,
                      "--jobs", REGISTRY_JOBS)
    layers = {
        "registry.fig5-mesh_ms": durations["fig5-mesh"],
        "registry.fig34-mgate_ms": durations["fig34-mgate"],
        "registry.other_ms": sum(v for k, v in durations.items() if k not in REGISTRY_HEAVY),
        "grid.solve_ms": statistics.mean(e["dur"] for e in solves) / 1e3 if solves else 0.0,
        "grid.iterations": iterations / len(solves) if solves else 0.0,
        "grid.shards": plan["shards"],
        "engine.session_ms": report["total_ms"] - max(busy.values()),
        "telemetry.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    return {"attempted": 2, "failed": failed, "checked": checked, "correct": correct,
            "layers": layers}


def trace_serve(bins, work, workload, seed, seconds):
    daemon = Daemon(bins, work, 0)
    try:
        result, _ = harness(bins, work, "trace-serve", "--socket", daemon.sock_name,
                            "--workload", workload, "--seed", seed, "--seconds", seconds,
                            "--workdir", ".", "--spans", spans_path(workload, seed))
    finally:
        daemon.shutdown()
    return result


def trace_ppa(bins, work, seed, seconds):
    result, _ = harness(bins, work, "trace-ppa", "--seed", seed, "--seconds", seconds,
                        "--spans", spans_path("ppa", seed))
    return result


def spans_path(workload, seed):
    path = RUNS / "spans" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# main


# Units of the report line's figures beyond BENCHMARK.json's metrics.
REPORT_UNITS = {
    "fail_frac": "fraction",
    "peak_rss_mb": "MB",
    "power_saving": "fraction",
    "samples": "count",
    "attempted": "count",
    "failed": "count",
    "correct": "count",
    "memo_hits": "count",
}


def with_units(values, spec):
    units = {**REPORT_UNITS, **{m["name"]: m["unit"] for m in spec}}
    return {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}


def metrics_of(values, spec):
    """Every metric of `spec`; a layer the workload never reached reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2^32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    bins = build()
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        host = {"ncpu": os.cpu_count(), "ncpu_affinity": len(os.sched_getaffinity(0))}
        host["refloop_ms_before"] = refloop_ms(bins, work)
        steal_before = steal_ticks()
        w, seed, seconds = args.workload, args.seed, args.seconds
        if args.trace == 0:
            if w == "registry":
                figures = run_registry(bins, work, seed, seconds)
            elif w == "ppa":
                figures = run_ppa(bins, work, seed, seconds)
            else:
                figures = run_serve(bins, work, w, seed, seconds)
            checked = figures.pop("checked")
            figures["correct_frac"] = figures["correct"] / checked if checked else 0.0
            figures["fail_frac"] = figures["failed"] / figures["attempted"]
            metric_spec = spec["end_to_end"]
        else:
            if w == "registry":
                figures = trace_registry(bins, work, seed, seconds)
            elif w == "ppa":
                figures = trace_ppa(bins, work, seed, seconds)
            else:
                figures = trace_serve(bins, work, w, seed, seconds)
            checked = figures.pop("checked")
            metric_spec = spec["per_layer"]
        host["steal_ticks"] = steal_ticks() - steal_before
        host["refloop_ms_after"] = refloop_ms(bins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    layers = figures.pop("layers", {})
    values = {**figures, **layers}
    correct = checked > 0 and figures["correct"] == checked and figures["failed"] == 0
    unreached = sorted(m["name"] for m in metric_spec if m["name"] not in values)
    print(json.dumps({"perfbench": "report", "workload": w, "seed": seed,
                      "seconds": seconds, "trace": args.trace, "host": host,
                      "checked": checked,
                      "figures": with_units(values, spec["end_to_end"] + spec["per_layer"]),
                      "unreached_layers": unreached if args.trace else []}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(figures["attempted"]),
        "failed": int(figures["failed"]),
        "metrics": metrics_of(values, metric_spec),
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(1)
