#!/usr/bin/env bash
# Builds the benchmark from source (release, offline), refuses to run an
# instrumented build, and hands every argument to the binary:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json's contract)
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]              (every workload, rounds interleaved)
#   benchmark/run.sh --compare A.json B.json | --self-test
#
# Works from any directory; paths the binary writes (benchmark/out/) and
# a relative CARGO_TARGET_DIR resolve against the repository root.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
manifest=benchmark/Cargo.toml
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# The numbers must come from a build we would ship: the verification
# shim (instrumented atomics, enabled by depending on spi-verify or
# spi-bench through cargo's feature unification) must not be linked in.
features=$(cargo tree --offline --manifest-path "$manifest" -e features,no-dev --prefix none \
  | grep ' feature "' | sed 's/ (.*//; s/ (\*)$//' | sort -u)
if grep -q 'verify-shim' <<<"$features"; then
  echo "run.sh: refusing to run: verify-shim is in the benchmark's feature tree:" >&2
  grep 'verify-shim' <<<"$features" >&2
  exit 2
fi

# Debug assertions on (a dev build, or a profile override) change what
# the hot paths execute; the binary re-checks cfg!(debug_assertions).
if [[ "${CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS:-false}" == "true" ]]; then
  echo "run.sh: refusing to run: CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS is on" >&2
  exit 2
fi

cargo build --release --offline --quiet --manifest-path "$manifest"

# Provenance the binary cannot see for itself.
SPI_BENCH_RUSTC=$(rustc -V)
SPI_BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
SPI_BENCH_FEATURES=$(tr '\n' ';' <<<"$features" | sed 's/ feature "\([^"]*\)"/\/\1/g; s/;$//')
export SPI_BENCH_RUSTC SPI_BENCH_COMMIT SPI_BENCH_FEATURES

exec "$CARGO_TARGET_DIR/release/spi-benchmark" "$@"
