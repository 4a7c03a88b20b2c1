#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every argument goes to the
# binary:
#
#   benchmark/run.sh [--seed N] [--smoke]        every workload, both passes, all checks
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR (default target/benchmark/build),
# results to target/benchmark/. Nothing outside the checkout is touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark/build}"
# The benchmark is a package of its own, so the repository's release profile
# does not reach it by itself: every `key = value` of the root manifest's
# `[profile.release]` is handed to cargo here, and the benchmark measures
# the code the way the repository ships it.
profile=()
while IFS= read -r setting; do
  profile+=(--config "profile.release.${setting// /}")
done < <(awk '/^\[profile\.release\]$/ {on=1; next} /^\[/ {on=0} on && /^[a-z-]+ *=/' Cargo.toml)
# Cargo's progress goes to stderr, so the last line of stdout stays the
# binary's result. The vendored dependencies need no registry.
cargo build --release --offline --quiet "${profile[@]}" --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
