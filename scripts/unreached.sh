#!/usr/bin/env bash
# Unreached-code search: library items that only tests reach.
#
# rustc never calls a `pub` item dead, because another crate might use
# it. So on a temporary copy of the workspace this script demotes to
# `pub(crate)` every `pub` fn, const fn, const, static, struct, enum,
# type and trait under crates/*/src (binaries and `macro_rules!` bodies
# excepted). It then checks every non-test target of the workspace
# (`--lib --bins --examples --bench '*'`) and the perfbench harness,
# and restores each declaration a privacy error names, until both
# build. What is still demoted is reached by path from no other crate,
# so a final `cargo check --workspace --lib` reports as `dead_code`
# every item that no artifact, spec, example, bench or perfbench
# workload reaches.
#
# Reach is by path, never by name: an error restores the declaration
# at the definition span it carries (E0603, E0624). Diagnostics without
# one (E0364/E0365 re-exports, "type `m::T` is private") restore by the
# name in the message, only in the crate that the path or file names.
# Doc tests, tests/, crates/*/tests, perfbench/harness/tests and
# `#[cfg(test)]` code never count as reach: `--bench '*'` is used
# instead of `--benches`, which would also build each library's own
# test harness.
#
# Usage: scripts/unreached.sh
# Exits 1 when the search reports an item that ALLOW does not list, or
# when an ALLOW entry is no longer reported. The checkout is never
# edited; each run builds in a fresh target directory, because a reused
# one can replay another copy's warnings for crates whose file mtimes
# look unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."

# Kept on purpose, one `path name (reason)` per line:
#   (a) a read a test uses to compare a fast path with its oracle;
#   (b) safety code: a validator of outside input or a fault counter;
#   (c) the only check of an EXPERIMENTS.md row;
#   (d) an `is_empty` that clippy's `len_without_is_empty` requires
#       beside a reached `len`.
ALLOW='
crates/circuit/src/incremental.rs arrival_of (a) incremental_equivalence.rs compares each incremental arrival with full STA
crates/circuit/src/sta.rs slack_of (a) incremental_equivalence.rs reads the full-STA slack it checks the incremental view against
crates/grid/src/mcml.rs cmos_power (a) the mcml tests check the closed-form crossover_activity against the two power curves
crates/core/src/service.rs spill_errors (b) counts memo-spill write failures, the fault the spill falls back from
crates/roadmap/src/survey.rs dynamic_power_penalty (c) T1 "+78 % dynamic power" (1.2 V vs 0.9 V), a row table1 does not print
crates/grid/src/plan.rs total_routing_fraction (c) F5 "total with 16 % landing pads 17-20 %", a row fig5 does not print
crates/thermal/src/workload.rs effective_worst_case (c) E1 "75 % effective worst case": tests/thermal_closure.rs checks the application trace against it
crates/thermal/src/workload.rs power_virus (c) E1 "power virus on the same package", which the dtm artifact does not simulate
crates/circuit/src/netlist.rs is_empty (d) Netlist::len is reached
crates/core/src/service.rs is_empty (d) ArtifactMemo::len and Quarantine::len are reached
'

work=$(mktemp -d "${TMPDIR:-/tmp}/unreached.XXXXXX")
trap 'rm -rf "$work"' EXIT

cp -r Cargo.toml Cargo.lock crates vendor examples tests "$work/"
mkdir -p "$work/perfbench/harness"
cp -r perfbench/harness/Cargo.toml perfbench/harness/Cargo.lock perfbench/harness/src \
    "$work/perfbench/harness/"

ALLOW="$ALLOW" python3 - "$work" <<'PY'
import json, os, re, subprocess, sys

work = sys.argv[1]
env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(work, "target"))
DECL = re.compile(
    r"^(\s*)pub (?=(?:const fn|fn|const|static|struct|enum|type|trait) ([A-Za-z_][A-Za-z0-9_]*))"
)

allow = {}
for entry in filter(str.strip, os.environ["ALLOW"].splitlines()):
    path, name, reason = (entry.split(maxsplit=3) + ["", ""])[:3]
    if not re.fullmatch(r"\([abcd]\)", reason):
        sys.exit(f"error: ALLOW entry without an (a)-(d) reason: {entry}")
    allow[f"{path} {name}"] = entry

# Library name (`np_circuit`) -> directory under crates/ (`circuit`).
CRATES = {}
for d in os.listdir(os.path.join(work, "crates")):
    with open(os.path.join(work, "crates", d, "Cargo.toml")) as f:
        CRATES[re.search(r'^name = "(.*)"', f.read(), re.M).group(1).replace("-", "_")] = d

def crate_of(path):
    return path.split("/")[1]

def module_path(path):
    # crates/circuit/src/netlist.rs -> ["netlist"]; lib.rs and mod.rs name
    # their directory.
    parts = path.split("/")[3:]
    parts[-1] = parts[-1][:-3]
    if parts[-1] in ("lib", "mod"):
        parts.pop()
    return parts

# Demote. `decls` maps (path, line) to the declared name.
decls, demoted = {}, set()
for root, _, files in os.walk(os.path.join(work, "crates")):
    src_dir = os.path.relpath(root, work) + "/"
    if "/src/" not in src_dir or "/src/bin/" in src_dir:
        continue
    for name in sorted(files):
        if not name.endswith(".rs"):
            continue
        path = src_dir + name
        with open(os.path.join(work, path)) as f:
            lines = f.readlines()
        macro_end = None
        for i, text in enumerate(lines):
            if macro_end is not None:
                if text.startswith(macro_end):
                    macro_end = None
                continue
            m = re.match(r"^(\s*)macro_rules!", text)
            if m:
                macro_end = m.group(1) + "}"
                continue
            m = DECL.match(text)
            if m:
                lines[i] = text[: len(m.group(1))] + "pub(crate) " + text[len(m.group(1)) + 4 :]
                decls[(path, i + 1)] = m.group(2)
                demoted.add((path, i + 1))
        with open(os.path.join(work, path), "w") as f:
            f.writelines(lines)
total = len(demoted)

def restore(key):
    demoted.discard(key)
    path, line = key
    full = os.path.join(work, path)
    with open(full) as f:
        lines = f.readlines()
    lines[line - 1] = lines[line - 1].replace("pub(crate) ", "pub ", 1)
    with open(full, "w") as f:
        f.writelines(lines)

def spans(msg):
    for s in msg.get("spans", []):
        yield s
    for child in msg.get("children", []):
        yield from spans(child)

def by_name(token, crate):
    segs = re.sub(r"<.*", "", token).split("::")
    name, mods = segs[-1], segs[:-1]
    if mods and mods[0] in CRATES:
        crate = CRATES[mods.pop(0)]
    elif mods:
        crate = None
    if crate is None and not mods:
        return []
    return [
        key
        for key in demoted
        if decls[key] == name
        and (crate is None or crate_of(key[0]) == crate)
        and (not mods or module_path(key[0])[-len(mods):] == mods)
    ]

def check(args, cwd, label):
    out = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True)
    errors = []
    for line in out.stdout.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        msg = rec.get("message")
        if rec.get("reason") == "compiler-message" and msg and msg["level"] == "error":
            errors.append(msg)
    if out.returncode != 0 and not errors:
        sys.stderr.write(out.stderr)
        sys.exit(f"error: {label} failed without a compiler error")
    return errors

def rel(file_name, cwd):
    return os.path.relpath(os.path.realpath(os.path.join(cwd, file_name)), work)

rounds = 0
harness = os.path.join(work, "perfbench", "harness")
for args, cwd, label in (
    (["cargo", "check", "--workspace", "--lib", "--bins", "--examples", "--bench", "*"], work, "the workspace"),
    (["cargo", "check"], harness, "the perfbench harness"),
):
    while True:
        errors = check(args + ["--keep-going", "--quiet", "--message-format", "json"], cwd, label)
        if not errors:
            break
        rounds += 1
        fixed = set()
        for msg in errors:
            hit = {(rel(s["file_name"], cwd), s["line_start"]) for s in spans(msg)} & demoted
            code = (msg.get("code") or {}).get("code")
            if not hit and (code in ("E0364", "E0365") or msg["message"].endswith(" is private")):
                primary = next(s for s in msg["spans"] if s["is_primary"])
                file = rel(primary["file_name"], cwd)
                crate = crate_of(file) if file.startswith("crates/") else None
                tokens = re.findall(r"`([^`]+)`", msg["message"])
                hit = {key for token in tokens for key in by_name(token, crate)}
            fixed |= hit
        if not fixed:
            for msg in errors:
                sys.stderr.write(msg.get("rendered") or msg["message"])
            sys.exit(f"error: {label} fails on the demoted copy with errors no demotion explains")
        for key in fixed:
            restore(key)

out = subprocess.run(
    ["cargo", "check", "--workspace", "--lib", "--quiet", "--message-format", "json"],
    cwd=work, env=env, capture_output=True, text=True,
)
if out.returncode != 0:
    sys.stderr.write(out.stderr)
    sys.exit("error: cargo check failed on the demoted copy")
# One warning may name several items ("associated items `a` and `b` are
# never used"), each with its own primary span.
found, warnings = {}, 0
for line in out.stdout.splitlines():
    try:
        rec = json.loads(line)
    except ValueError:
        continue
    msg = rec.get("message") or {}
    if (msg.get("code") or {}).get("code") != "dead_code":
        continue
    warnings += 1
    names = re.findall(r"`([^`]+)`", msg["message"])
    where = [s for s in msg["spans"] if s["is_primary"]]
    for i, name in enumerate(names):
        span = where[min(i, len(where) - 1)]
        found.setdefault(f"{rel(span['file_name'], work)} {name}", []).append(span["line_start"])

print(f"unreached: {warnings} dead_code warnings naming {len(found)} items ({total} demoted,"
      f" {total - len(demoted)} restored over {rounds} rounds, {len(allow)} allowed)")
new = sorted(set(found) - set(allow))
stale = sorted(set(allow) - set(found))
if new:
    print(
        "error: library items that only tests reach (delete them, or allow one with its reason):",
        file=sys.stderr,
    )
    for item in new:
        path, name = item.split()
        lines = ",".join(map(str, sorted(found[item])))
        print(f"  {path}:{lines} {name}", file=sys.stderr)
if stale:
    print("error: ALLOW entries the search no longer reports (remove them):", file=sys.stderr)
    for item in stale:
        print(f"  {item}", file=sys.stderr)
sys.exit(1 if new or stale else 0)
PY
