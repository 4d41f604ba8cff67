#!/usr/bin/env bash
# Runs the transport-layer and fault-injection concurrency tests under
# ThreadSanitizer when a nightly toolchain is available, and falls back
# to a high-volume stress loop otherwise (e.g. offline containers with
# only stable installed).
#
# Coverage spans all three transports: the `-p spi-platform --tests`
# pass includes the pointer-exchange pool tests (slot handoff, lease
# drop as release ack, cross-thread token streaming), and the
# equivalence + fault passes drive TransportKind::Pointer through the
# runner and the FaultyTransport decorator (incl. the pool_leak suite).
# `engine_equivalence` holds the generated-system oracle: random SPI
# systems on the DES, all three transports and the socket endpoints,
# about a third of them supervised under random fault plans
# (`CHAOS_CASES` systems; fewer under TSan).
# The `-p spi-net` pass covers the socket endpoints, whose two sides and
# the net-timer thread share the staging buffer and the flush registry
# (`transport`, `proptest_net`, `wire`; `zero_alloc` brings its own
# allocator and is left to the plain test run).
#
# TSan needs `-Z sanitizer=thread`, which implies nightly plus a
# rebuilt-std (`-Z build-std`) so the standard library is instrumented
# too — without it, races through std primitives go unreported.
#
# Usage: scripts/tsan.sh [extra cargo test args]
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="$(rustc -vV | sed -n 's/^host: //p')"

if rustup toolchain list 2>/dev/null | grep -q nightly && \
   rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
  echo "== ThreadSanitizer: cargo +nightly test (target ${TARGET}) =="
  RUSTFLAGS="-Z sanitizer=thread" \
  RUSTDOCFLAGS="-Z sanitizer=thread" \
  TSAN_OPTIONS="halt_on_error=1" \
  SPI_STRESS_ITERS="${SPI_STRESS_ITERS:-50000}" \
    cargo +nightly test -Z build-std --target "${TARGET}" \
      -p spi-platform --tests "$@" -- --test-threads=1
  RUSTFLAGS="-Z sanitizer=thread" \
  TSAN_OPTIONS="halt_on_error=1" \
  CHAOS_CASES="${CHAOS_CASES:-50}" \
    cargo +nightly test -Z build-std --target "${TARGET}" \
      --test engine_equivalence "$@"
  # FaultyTransport + supervised recovery under TSan: the decorator and
  # the retry/backoff machinery race against PE threads by design (random
  # plans ride along in the engine_equivalence pass above).
  RUSTFLAGS="-Z sanitizer=thread" \
  TSAN_OPTIONS="halt_on_error=1" \
    cargo +nightly test -Z build-std --target "${TARGET}" \
      -p spi-fault --tests "$@" -- --test-threads=1
  # Socket endpoints: PE-driven reads, lazy ack reads, flush-before-block
  # and the one timer thread racing the owners' flushes.
  RUSTFLAGS="-Z sanitizer=thread" \
  TSAN_OPTIONS="halt_on_error=1" \
    cargo +nightly test -Z build-std --target "${TARGET}" \
      -p spi-net --test transport --test proptest_net --test wire "$@"
  # The controlled-execution engine itself (`spi_platform::model`:
  # worker pool, per-thread condvar handshakes, abort broadcast) is
  # concurrent code; run the explorations under TSan too so the
  # verifier is verified.
  RUSTFLAGS="-Z sanitizer=thread" \
  TSAN_OPTIONS="halt_on_error=1" \
    cargo +nightly test -Z build-std --target "${TARGET}" \
      -p spi-verify --tests "$@" -- --test-threads=1
else
  echo "== nightly + rust-src unavailable: falling back to stress loop =="
  echo "   (raising SPI_STRESS_ITERS and repeating to widen interleavings)"
  export SPI_STRESS_ITERS="${SPI_STRESS_ITERS:-100000}"
  for round in 1 2 3; do
    echo "-- stress round ${round}/3 (SPI_STRESS_ITERS=${SPI_STRESS_ITERS})"
    cargo test --release -p spi-platform --test transport_stress "$@"
  done
  cargo test --release --test engine_equivalence "$@"
  echo "-- socket endpoints (flush contract, thread count, credit property), 3 rounds"
  for round in 1 2 3; do
    cargo test --release -p spi-net --test transport --test proptest_net --test wire "$@"
  done
  echo "-- bounded model checking (exhaustive tier-1 + shared consumers)"
  cargo test --release -p spi-verify "$@"
fi
echo "== transport concurrency checks passed =="
