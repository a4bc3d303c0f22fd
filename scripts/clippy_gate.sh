#!/usr/bin/env bash
# Negative gate for the bans clippy carries (clippy.toml and
# [workspace.lints.clippy]): lints the seeded-violation crate under
# crates/xtask/tests/fixtures/clippy with the repository's clippy.toml
# (found by clippy's parent-directory search) and the clippy lint levels
# of the root Cargo.toml, and requires the set of rejected lines to equal
# the fixture's `//~ expect: <lint> @ <line>` annotations exactly. A
# disallowed path that names no real item bans nothing and clippy stays
# silent about it; this gate is what catches that.
# Usage: scripts/clippy_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."
FIXTURE=crates/xtask/tests/fixtures/clippy

# `name = "level"` lines of [workspace.lints.clippy] → -D/-W/-A/-F flags.
LEVELS=()
while read -r name level; do
  case "$level" in
    deny) LEVELS+=(-D "clippy::$name") ;;
    warn) LEVELS+=(-W "clippy::$name") ;;
    allow) LEVELS+=(-A "clippy::$name") ;;
    forbid) LEVELS+=(-F "clippy::$name") ;;
    *) echo "clippy gate: cannot read level \`$level\` of $name"; exit 1 ;;
  esac
done < <(awk '/^\[/ { on = ($0 == "[workspace.lints.clippy]"); next }
              on && match($0, /^[a-z_]+ *= *"[a-z]+"/) {
                split(substr($0, 1, RLENGTH), kv, "=")
                gsub(/[ "]/, "", kv[1]); gsub(/[ "]/, "", kv[2])
                print kv[1], kv[2]
              }' Cargo.toml)
[ "${#LEVELS[@]}" -gt 0 ] || { echo "clippy gate: no [workspace.lints.clippy] levels found"; exit 1; }

EXPECTED="$(cd "$FIXTURE" && grep -rnE '^//~ expect: ' src \
  | sed -E 's#^([^:]+):[0-9]+://~ expect: ([a-z_:]+) @ ([0-9]+)$#\1:\3 \2#' | sort -u)"

# Every error's primary location (its first `-->`) and lint (the docs
# link clippy attaches to each diagnostic). Warnings do not count: the
# gate requires rejection. The lib and lib-test targets report shared
# lines twice, hence `sort -u`.
OUT="$(cargo clippy --manifest-path "$FIXTURE/Cargo.toml" --all-targets --keep-going \
  --offline --color never --target-dir target/clippy-gate -- "${LEVELS[@]}" 2>&1 || true)"
ACTUAL="$(printf '%s\n' "$OUT" | awk '
  /^(error|warning)/ { err = ($0 ~ /^error/); loc = ""; next }
  /^ *--> / && loc == "" { loc = $2; sub(/:[0-9]+$/, "", loc); next }
  err && loc != "" && match($0, /index\.html#[a-z_]+/) {
    print loc, "clippy::" substr($0, RSTART + 11, RLENGTH - 11)
  }' | sort -u)"

if [ "$EXPECTED" != "$ACTUAL" ]; then
  echo "clippy gate: rejected lines differ from the fixture annotations"
  diff <(printf '%s\n' "$EXPECTED") <(printf '%s\n' "$ACTUAL") | sed 's/^</missing:/; s/^>/unexpected:/' || true
  printf '%s\n' "$OUT" | tail -n 40
  exit 1
fi
echo "clippy gate: $(printf '%s\n' "$EXPECTED" | wc -l) seeded violations rejected"
