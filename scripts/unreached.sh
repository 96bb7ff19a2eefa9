#!/usr/bin/env bash
# Unreached-code search: library items that only tests reach.
#
# rustc never calls a `pub` item dead, because another crate might use
# it. So on a temporary copy of the workspace this script demotes to
# `pub(crate)` every `pub fn`, `pub const fn`, `pub const` and
# `pub static` under crates/*/src whose name appears in no non-test
# source file other than its own, then runs `cargo check --lib`. Each
# `dead_code` warning names an item that no artifact, spec, example,
# bench or perfbench workload reaches.
#
# Non-test sources (a name there counts as reach): crates/*/src minus
# in-file `#[cfg(test)]` items and the files a `#[cfg(test)] mod x;`
# declares, crates/*/examples, crates/*/benches, examples/ and
# perfbench/harness/src. crates/*/tests, tests/ and
# perfbench/harness/tests do not count.
#
# Types are never demoted: a crate may use a type without naming it
# (np-opt uses `GateAssignment` that way), so demoting types by name
# breaks the build. Delete a type by hand when its functions go. Names
# too common to be unique in the workspace (`new`, `optimize`) escape
# the search too.
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
#   (c) the only check of an EXPERIMENTS.md row.
ALLOW='
crates/circuit/src/incremental.rs arrival_of (a) incremental_equivalence.rs compares each incremental arrival with full STA
crates/circuit/src/sta.rs slack_of (a) incremental_equivalence.rs reads the full-STA slack it checks the incremental view against
crates/grid/src/mcml.rs cmos_power (a) the mcml tests check the closed-form crossover_activity against the two power curves
crates/core/src/service.rs spill_errors (b) counts memo-spill write failures, the fault the spill falls back from
crates/roadmap/src/survey.rs dynamic_power_penalty (c) T1 "+78 % dynamic power" (1.2 V vs 0.9 V), a row table1 does not print
crates/grid/src/plan.rs total_routing_fraction (c) F5 "total with 16 % landing pads 17-20 %", a row fig5 does not print
crates/thermal/src/workload.rs effective_worst_case (c) E1 "75 % effective worst case": tests/thermal_closure.rs checks the application trace against it
crates/thermal/src/workload.rs power_virus (c) E1 "power virus on the same package", which the dtm artifact does not simulate
'

work=$(mktemp -d "${TMPDIR:-/tmp}/unreached.XXXXXX")
trap 'rm -rf "$work"' EXIT

cp -r Cargo.toml Cargo.lock crates vendor examples tests "$work/"
mkdir -p "$work/corpus"

# The non-test corpus. Library sources keep their line numbers, with
# every `#[cfg(test)]` / `#[cfg(all(test, ..))]` item blanked; the files
# a test-only `mod x;` declares are listed in test-mods.
: > "$work/test-mods"
find crates/*/src -name '*.rs' | sort | while read -r f; do
    mkdir -p "$work/corpus/$(dirname "$f")"
    awk -v file="$f" -v mods="$work/test-mods" '
        function modfile(name,    dir, base) {
            dir = file; sub(/\/[^\/]*$/, "", dir)
            base = file; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
            if (base == "lib" || base == "main" || base == "mod") return dir "/" name ".rs"
            return dir "/" base "/" name ".rs"
        }
        skip {
            print ""
            if (index($0, ind "}") == 1 || index($0, ind ")") == 1) skip = 0
            next
        }
        pending {
            print ""
            if ($0 ~ /^[ \t]*#\[/) next
            pending = 0
            if ($0 ~ /;[ \t]*$/) {
                if (match($0, /mod [A-Za-z_0-9]+;/)) {
                    name = substr($0, RSTART + 4, RLENGTH - 5)
                    print modfile(name) >> mods
                }
                next
            }
            if ($0 ~ /\{.*\}[ \t]*$/) next
            skip = 1
            next
        }
        /^[ \t]*#\[cfg\((all\()?test[,)]/ {
            ind = $0; sub(/#.*/, "", ind)
            pending = 1
            print ""
            next
        }
        { print }
    ' "$f" > "$work/corpus/$f"
done
while read -r f; do
    : > "$work/corpus/$f"
done < "$work/test-mods"
for d in crates/*/examples crates/*/benches examples perfbench/harness/src; do
    [[ -d "$d" ]] || continue
    mkdir -p "$work/corpus/$d"
    cp -r "$d/." "$work/corpus/$d/"
done

# Declarations whose name no other non-test file mentions, as
# `path line name`. Binaries are not library code, so they only count
# as reach.
(cd "$work/corpus" && find crates/*/src -name '*.rs' ! -path '*/src/bin/*' | sort \
    | xargs awk '
        match($0, /^[ \t]*pub (const fn|fn|const|static) [A-Za-z_][A-Za-z0-9_]*/) {
            decl = substr($0, RSTART, RLENGTH)
            sub(/^.* /, "", decl)
            print FILENAME, FNR, decl
        }') > "$work/decls"
(cd "$work/corpus" && find . -type f -name '*.rs' | sed 's|^\./||' | sort \
    | xargs awk -v decls="$work/decls" '
        BEGIN { while ((getline l < decls) > 0) { n++; d[n] = l } }
        {
            line = $0
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            k = split(line, w, " ")
            for (i = 1; i <= k; i++) {
                if (!(w[i] in first)) first[w[i]] = FILENAME
                else if (first[w[i]] != FILENAME) many[w[i]] = 1
            }
        }
        END {
            for (i = 1; i <= n; i++) {
                split(d[i], p, " ")
                if (!(p[3] in many) && first[p[3]] == p[1]) print d[i]
            }
        }') > "$work/lonely"

while read -r path line _; do
    sed -i "${line}s/\bpub /pub(crate) /" "$work/$path"
done < "$work/lonely"

# Each dead_code warning names one or more items (`associated items
# `a`, `b` and `c` are never used`), reported at the first one's line.
if ! (cd "$work" && CARGO_TARGET_DIR="$work/target" \
        cargo check --workspace --lib --message-format short --quiet) \
        > "$work/check.log" 2>&1; then
    cat "$work/check.log" >&2
    echo "error: cargo check failed on the demoted copy" >&2
    exit 2
fi
grep -E '^crates/[^:]+:[0-9]+:[0-9]+: warning: .* never (used|constructed|read)' "$work/check.log" \
    > "$work/warnings" || true
awk '{
        path = $1; sub(/:.*/, "", path)
        msg = $0; sub(/^[^`]*/, "", msg)
        while (match(msg, /`[^`]+`/)) {
            print path, substr(msg, RSTART + 1, RLENGTH - 2)
            msg = substr(msg, RSTART + RLENGTH)
        }
    }' "$work/warnings" | sort -u > "$work/found"

printf '%s\n' "$ALLOW" | awk 'NF' > "$work/allow-lines"
if awk 'NF < 3 || $3 !~ /^\([abc]\)$/ { bad = 1; print "error: ALLOW entry without an (a)/(b)/(c) reason: " $0 > "/dev/stderr" }
        END { exit bad }' "$work/allow-lines"; then :; else exit 1; fi
awk '{ print $1, $2 }' "$work/allow-lines" | sort -u > "$work/allowed"

new=$(comm -23 "$work/found" "$work/allowed")
stale=$(comm -13 "$work/found" "$work/allowed")
echo "unreached: $(wc -l < "$work/warnings") dead_code warnings naming $(wc -l < "$work/found") items" \
    "($(wc -l < "$work/lonely") demoted, $(wc -l < "$work/allowed") allowed)"
status=0
if [[ -n "$new" ]]; then
    echo "error: library items that only tests reach (delete them, or allow one with its reason):" >&2
    sed 's/^/  /' <<< "$new" >&2
    status=1
fi
if [[ -n "$stale" ]]; then
    echo "error: ALLOW entries the search no longer reports (remove them):" >&2
    sed 's/^/  /' <<< "$stale" >&2
    status=1
fi
exit "$status"
