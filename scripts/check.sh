#!/usr/bin/env bash
# The static-analysis gate: formatting, clippy (deny-by-default workspace
# lints, and a negative gate proving the clippy.toml bans bite), rustdoc
# (warnings denied), the repo-specific xtask analyzer, and the test suite
# — in both the default and the strict-invariants configuration.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (-D warnings) =="
# Broken intra-doc links, and public docs linking to private items, fail
# the gate. The vendored stand-ins (proptest, rand, criterion) are not
# first-party code and carry warnings of their own, so they are excluded.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps \
  --exclude proptest --exclude rand --exclude criterion

echo "== clippy negative gate (seeded violations must be rejected) =="
# The bans clippy carries for the analyzer (clippy.toml, print lints) must
# reject every seeded violation of crates/xtask/tests/fixtures/clippy at
# its line: a mistyped disallowed path would otherwise ban nothing.
scripts/clippy_gate.sh

echo "== xtask check (repo-specific rules) =="
cargo run -q -p xtask -- check

echo "== xtask check --format json (CI schema) =="
# The machine-readable report CI consumes: validate the schema keys with
# plain grep (no jq in the base image) and require a clean verdict.
JSON_OUT="$(cargo run -q -p xtask -- check --format json)"
for key in '"tool": "xtask-check"' '"files_scanned"' '"manifests_scanned"' \
           '"waivers"' '"diagnostics": []' '"ok": true'; do
  printf '%s' "$JSON_OUT" | grep -qF "$key" \
    || { echo "xtask json: missing $key"; printf '%s\n' "$JSON_OUT"; exit 1; }
done

echo "== cargo test =="
cargo test -q --workspace

echo "== osdbench unit tests (benchmark builds against crates/*) =="
# The benchmark is a workspace of its own, so the workspace gates above
# never compile it; this builds it against the current public API of
# crates/* and runs its statistics + BENCHMARK.json catalogue tests.
cargo test -q --offline --manifest-path osdbench/Cargo.toml

echo "== cargo clippy -p osd-core --features strict-invariants (-D warnings) =="
# The audit layer compiles code the default build never sees; lint it too.
cargo clippy -p osd-core --all-targets --features strict-invariants -- -D warnings

echo "== cargo test --features strict-invariants =="
cargo test -q --features strict-invariants
cargo test -q -p osd-core --features strict-invariants
# osd-rtree's own suites (delete_props, delete_bounded_copy) with the
# structure audit running after every insert and removal.
cargo test -q -p osd-rtree --features strict-invariants

echo "== columnar store round-trip (bit-identity) =="
# The SoA InstanceStore must be a bit-for-bit re-encoding of the boxed
# object model, with and without the audit layer.
cargo test -q --test store_roundtrip
cargo test -q --features strict-invariants --test store_roundtrip

echo "== batch executor under strict-invariants =="
# Drives QueryEngine::run_batch with the audit layer on: every dominance
# check in every worker thread re-runs the cover-chain debug_assert!.
cargo test -q --features strict-invariants --test strict_invariants \
  batch_executor_audits_hold_across_threads

echo "== blocked-kernel bit-identity =="
# The blocked hot-path kernels are a pure execution strategy: candidate
# ids, min_dist bits and the frozen cost counters must match the scalar
# reference paths exactly, including an A-N batch through the engine,
# with and without the audit layer.
cargo test -q --test kernel_identity
cargo test -q --features strict-invariants --test kernel_identity

echo "== sharded-index bit-identity (USA surrogate, 8 tiles) =="
# The STR-sharded index is a pure layout change: on a 2000-object USA
# surrogate, whose shard trees have inner nodes, the merged-forest
# traversal must emit the flat index's candidate ids and min_dist bits
# for every operator, with and without the audit layer.
cargo test -q --test pipeline usa_surrogate_sharded_matches_flat
cargo test -q --features strict-invariants --test pipeline usa_surrogate_sharded_matches_flat

echo "== epoch churn under concurrent readers =="
# The epoch-published store under churn: every mutation must publish
# exactly one epoch, pinned reader snapshots must never expose a dead
# candidate, and the standing continuous-NNC handle must stay
# bit-identical to a full re-query on every snapshot, with and without
# the audit layer.
cargo test -q --test mutate_identity
cargo test -q --features strict-invariants --test mutate_identity
# A publish copies only what it writes: local and global trees, store
# chunks, and the derived state each object's local-tree entry holds
# (quantised masses, level snapshots), which a written id rebuilds fresh.
cargo test -q --features strict-invariants --test publish_sharing

echo "== tracer purity =="
# The flight recorder is pure observability: traced and untraced runs of
# the same workload must be bit-identical (ids, min_dist bits, counters),
# every traced query must yield a rooted span tree, and the obs-off build
# must record nothing. Run with obs on, where traces are recorded.
cargo test -q --features obs --test obs_purity
# The timers and the tracer agree: P-SD's level-prune samples and F-SD's
# rtree-descent samples (its local-tree searches included) have spans.
cargo test -q --features obs --test trace_phases

echo "== warm-cache bit-identity, eviction and sharing =="
# The epoch-keyed warm cache is a pure memoisation layer: warm answers
# must be bit-identical to cold (flat, sharded, and at every churn
# epoch), a repeated workload must hit, and epoch invalidation must
# evict touched entries. The roll-forward shares every untouched chunk,
# keeps exact gauges, and never lets an old-epoch fill reach the new
# cache; query tables are admitted on repeat and bounded in number,
# with and without the audit layer (and with obs on, where the warm
# counters are live).
cargo test -q --test warm_identity
cargo test -q --features obs,strict-invariants --test warm_identity
cargo test -q --test warm_reuse
cargo test -q --test warm_sharing
cargo test -q --features obs,strict-invariants --test warm_sharing
cargo test -q --test warm_admission
cargo test -q --features obs,strict-invariants --test warm_admission

echo "== osd query --profile=json smoke (schema) =="
# End-to-end observability check: a real query through the obs-enabled CLI
# must emit a profile document carrying every phase of the taxonomy.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run -q -p osd-cli --bin osd -- gen --out "$SMOKE_DIR/smoke.csv" \
  --dataset indep --n 60 --m 3 --dim 2 --seed 7
cargo run -q -p osd-cli --bin osd -- query --data "$SMOKE_DIR/smoke.csv" \
  --query "5000,5000;5100,5100" --op psd --profile=json > "$SMOKE_DIR/profile.out"
for key in '"enabled": true' '"prepare"' '"rtree-descent"' '"level-prune"' \
           '"validate"' '"refine"' '"rtree_node_visits"' '"heap_high_water"' \
           '"instance_comparisons"'; do
  grep -qF "$key" "$SMOKE_DIR/profile.out" \
    || { echo "profile smoke: missing $key"; exit 1; }
done
# k-NNC runs the same traversal, so it records the same snapshot gauges.
cargo run -q -p osd-cli --bin osd -- query --data "$SMOKE_DIR/smoke.csv" \
  --query "5000,5000;5100,5100" --op psd --k 2 --profile=json > "$SMOKE_DIR/profile-k2.out"
grep -qF '"live_objects": 60' "$SMOKE_DIR/profile-k2.out" \
  || { echo "profile smoke: --k 2 must report \"live_objects\": 60"; exit 1; }

echo "== osd query --profile=json smoke, obs-off build (Stats counters) =="
# With obs compiled out the registry records nothing, but the counters that
# `Stats` holds have no other home: they must still report real values.
cargo run -q -p osd-cli --no-default-features --bin osd -- query --data "$SMOKE_DIR/smoke.csv" \
  --query "5000,5000;5100,5100" --op psd --profile=json > "$SMOKE_DIR/profile-off.out"
grep -qF '"enabled": false' "$SMOKE_DIR/profile-off.out" \
  || { echo "obs-off profile smoke: missing \"enabled\": false"; exit 1; }
for key in '"rtree_node_visits"' '"cache_misses"'; do
  grep -qE "$key: [1-9]" "$SMOKE_DIR/profile-off.out" \
    || { echo "obs-off profile smoke: $key must not be 0"; exit 1; }
done

echo "== osd query --trace=chrome smoke (trace-event schema) =="
# The Chrome trace export must be loadable by chrome://tracing: a JSON
# array of complete/instant events with the trace-event keys, plus the
# span names of the query taxonomy. The same run must append to the
# flight-recorder file and `osd trace` must read it back.
cargo run -q -p osd-cli --bin osd -- query --data "$SMOKE_DIR/smoke.csv" \
  --query "5000,5000;5100,5100" --op psd --trace=chrome \
  --recorder "$SMOKE_DIR/flight.log" > "$SMOKE_DIR/trace.out"
for key in '"traceEvents"' '"ph":"X"' '"ph":"i"' '"ts":' '"dur":' '"pid":0' \
           '"tid":0' '"name":"query"' '"name":"prepare"' '"name":"rtree-descent"'; do
  grep -qF "$key" "$SMOKE_DIR/trace.out" \
    || { echo "trace smoke: missing $key"; exit 1; }
done
cargo run -q -p osd-cli --bin osd -- trace last 1 \
  --recorder "$SMOKE_DIR/flight.log" > "$SMOKE_DIR/trace-read.out"
grep -qF "recorded" "$SMOKE_DIR/trace-read.out" \
  || { echo "trace smoke: osd trace could not read the recorder back"; exit 1; }

echo "check.sh: all gates passed"
