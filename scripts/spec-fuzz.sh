#!/usr/bin/env bash
# CI spec-fuzz: hammer a live release daemon with seeded untrusted
# scenario-spec requests and require a typed response for every case.
#
#   1. Deterministic generator self-checks: the SpecFuzzer (in
#      crates/bench/tests/spec_fuzz.rs) replays byte-identically from
#      its seed and every generated case classifies at the parser
#      exactly as labelled.
#   2. Property layer: parse ∘ to_json is the identity, digests ignore
#      wire key order, distinct scenarios get distinct digests.
#   3. Live fuzz: NP_SPEC_FUZZ_CASES cases (default 1000, the
#      acceptance floor) against a real nanopowerd -- zero panics, zero
#      dropped connections, zero untyped errors, daemon ready after.
#      Runs twice with different seeds for breadth; any failure replays
#      from (seed, case index) alone.
set -euo pipefail
cd "$(dirname "$0")/.."

CASES="${NP_SPEC_FUZZ_CASES:-1000}"

echo "== 1. fuzzer determinism + parser classification =="
cargo test --release -p np-bench --test spec_fuzz -q \
    -- spec_fuzzer_is_deterministic every_fuzz_case_classifies

echo "== 2. spec canonicalization properties =="
cargo test --release -p np-bench --test spec_fuzz -q \
    -- parse_of_canonical_form digest_

echo "== 3. live daemon fuzz: $CASES cases x 2 seeds =="
for seed in 1 20260809; do
    echo "-- seed $seed --"
    NP_SPEC_FUZZ_CASES="$CASES" NP_SPEC_FUZZ_SEED="$seed" \
        cargo test --release -p np-bench --test spec_fuzz \
        seeded_fuzz -- --nocapture
done

echo "spec-fuzz: all checks passed"
