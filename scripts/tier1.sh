#!/usr/bin/env sh
# Tier-1 gate: offline release build, lint gate, and the full workspace
# test suite (which already includes the chaos fault-injection
# experiments under tests/). Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

start=$(date +%s)

cargo build --release --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo test -q --offline --workspace
# Golden-snapshot suite: every exported paper artifact (Tables 4-9,
# Figures 1-5, §5.1 summary) pinned against tests/golden/ fixtures.
# Part of the workspace run above; repeated by name so a fixture drift
# is called out explicitly in the tier-1 log.
cargo test -q --offline --test golden_artifacts
# Gateway robustness suite: the drain invariant (admitted == completed
# + rejected + aborted under mid-stream shutdown), worker-count
# byte-identity, breaker behavior, panic isolation, and the 0%/100%
# fault-plan extremes. Also in the workspace run; repeated by name so
# a gateway regression is called out explicitly.
cargo test -q --offline --test gateway_service
cargo test -q --offline --test chaos_experiments gateway_survives_fault_plan_extremes
# On-disk columnar store suite: roundtrip byte-fidelity, directory
# pruning, and the corruption sweeps (truncation at every offset and
# every single-bit flip must surface as typed errors, never a panic).
# Also in the workspace run; repeated by name so a persistence
# regression is called out explicitly.
cargo test -q --offline --test store_persistence
# Segmented store suite: arbitrary segment splits vs the single-file
# oracle, incremental append vs one-shot build, pruning soundness
# against a brute-force row filter, and the read-counting proof that
# skipped segments are never touched. Also in the workspace run;
# repeated by name so a segmented-store regression is called out
# explicitly.
cargo test -q --offline --test segmented_store
# Middleware-chain suite: chained-gateway byte-identity across worker
# counts, the audit- and survey-as-middleware oracles (held to the
# report digests of the byte-feed tap sweeps they once ran beside),
# the benign-roster zero-false-positive check for the drift
# detector, and empty/observe-chain replay equivalence. Also in the
# workspace run; repeated by name so a hook-dispatch regression is
# called out explicitly.
cargo test -q --offline --test middleware_chain
# Session-path pins: every engine's report and counter digests, and
# the seed-scale capture's, at 0, 50 and 200 per mille uniform faults,
# held to the values of the byte-feed tap path the chain-fed driver
# replaced. Also in the workspace run; repeated by name so a drift in
# what the one session path drives or observes is called out
# explicitly.
cargo test -q --offline --test session_path_pins
# Attacker sharing: at one worker, each active engine run derives
# exactly one attacker per distinct lab seed (audit 3, root probe 3,
# downgrade 2, old-version 2, survey 1, auditor 1), before its
# per-device fan-out, and every lab built from that seed borrows it.
# Also in the workspace run; repeated by name so a derivation that
# slips back into the fan-out (two RSA-512 key generations per lab)
# is called out explicitly.
cargo test -q --offline -p iotls --lib lab::tests::each_engine_derives_one_attacker_per_lab_seed
# Exponentiation kernels: the fixed-width Montgomery multiply and
# squaring kernels against the schoolbook oracle at every limb count
# the dispatch serves (4, 8, 12) and one it does not (6), over edge
# moduli, bases and exponents; the fixed-base DH table against the
# variable-base ladder at every exponent length; and Oakley key pairs,
# one RSA key and one RSA-CRT signature pinned to values captured
# before the kernels changed. Also in the workspace run; repeated by
# name so a kernel drift is called out in milliseconds, before
# session_path_pins catches it indirectly through the engine digests.
cargo test -q --offline -p iotls-crypto --test proptests montgomery
cargo test -q --offline -p iotls-crypto --lib -- mont::tests dh::tests \
    rsa::tests::keygen_is_pinned rsa::tests::crt_signature_is_pinned

# Docs gate: rustdoc warnings (broken intra-doc links, bad code
# fences) fail tier-1, same as clippy warnings do.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Allocation-discipline gate: the source regions bracketed by
# "ALLOC-FREE: begin/end" markers (the tls record write path, the
# middleware hook dispatch, the simnet drive and replay loops, and the
# detection hooks) are the per-session hot path; the sans-IO rework
# made them allocation-free and the counting-allocator tests prove it
# at runtime. Fail fast here if an allocating call is reintroduced
# textually, so the regression is caught before any bench runs.
if ! awk '
    /ALLOC-FREE: begin/ { inside = 1; next }
    /ALLOC-FREE: end/   { inside = 0; next }
    inside && /to_vec\(\)|Vec::new\(\)|\.clone\(\)/ {
        printf "%s:%d: %s\n", FILENAME, FNR, $0; found = 1
    }
    END { exit found }
' crates/tls/src/record.rs crates/tls/src/middleware.rs \
  crates/simnet/src/driver.rs crates/simnet/src/mux.rs crates/core/src/detect.rs; then
    echo "tier1: FAILED (allocating call inside an ALLOC-FREE region)" >&2
    exit 1
fi

# API-surface gate: the per-engine `_with`/`_metered` variant matrix
# was collapsed into ExperimentCtx; fail if a new variant sneaks back
# into the engine crate.
if grep -rnE 'fn [a-z_]+_(with|metered)\(' crates/core/src; then
    echo "tier1: FAILED (_with/_metered engine variant reintroduced in crates/core/src)" >&2
    exit 1
fi

# API-surface gate: a session has one drive function, one replay loop,
# and one observation avenue (the chain fed from the conditioned
# wire). Fail if a driver variant, the chainless `replay_flow`, the
# in-path `process_with`, the buffered `read_tls`/`take_output` shim,
# or the tap's own byte feed comes back.
if grep -rnE 'fn (drive_session_[a-z_]+|replay_flow|process_with|read_tls|take_output|observe_(c2s|s2c))\(' \
    crates/*/src; then
    echo "tier1: FAILED (second session path reintroduced in crates/*/src)" >&2
    exit 1
fi

# Benchmark gate: perfbench/ is a package of its own that calls the
# library's public API (fault draws, tape replay, the worker fan-out,
# SHA-256), so an API change that breaks it fails here rather than in
# the benchmark run. Also runs the harness's unit tests and the
# self-test of its comparison gate.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/check.py --self-test

end=$(date +%s)
echo "tier1: OK ($((end - start))s)"

# Optional perf gate: measure every workload of BENCHMARK.json and
# compare the suite with the committed baseline. Off by default: a
# full run takes a few minutes and its numbers depend on the host.
if [ "${IOTLS_BENCH_CHECK:-0}" = "1" ]; then
    python3 perfbench/run.py --workload all --out perfbench/results/suite.json
    python3 perfbench/check.py perfbench/results/suite.json perfbench/baseline.json
fi
