#!/usr/bin/env bash
# Runs the transport and supervision unit tests under Miri, with the
# controlled-execution engine compiled in (`--features verify-shim`:
# `shim` calls `spi_platform::model` instead of its no-op stubs) so the
# interpreter sees exactly the code paths the model checker and the
# simulator instrument.
#
# Miri catches what neither the SC-only model checker nor TSan can:
# undefined behavior, invalid aliasing, and (with its own weak-memory
# emulation) some relaxed-ordering misuse — at ~1000x interpretation
# overhead, which is why the scope is unit tests only. The pool module
# matters here specifically: TokenBuf hands out `&mut [u8]` views into
# a shared slab through raw pointers, exactly the kind of aliasing
# claim only Miri checks.
#
# Degrades gracefully: offline containers without a nightly toolchain
# or the miri component skip with a notice instead of failing, mirroring
# scripts/tsan.sh (the stress fallback there covers the same code).
#
# Usage: scripts/miri.sh [extra cargo test args]
set -euo pipefail
cd "$(dirname "$0")/.."

if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
  echo "== miri: nightly toolchain unavailable — skipping (tsan.sh stress fallback covers this) =="
  exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri (installed)'; then
  if ! rustup component add --toolchain nightly miri 2>/dev/null; then
    echo "== miri: component not installable (offline?) — skipping =="
    exit 0
  fi
fi

echo "== miri: transport + pool + supervision unit tests (verify-shim enabled) =="
# -Zmiri-disable-isolation: the transport park path and the supervision
# retry/backoff machinery read the monotonic clock and env vars.
# SPI_STRESS_ITERS is floored low: interpreted execution is ~1000x
# slower, and Miri's value is per-access UB detection, not volume.
MIRIFLAGS="${MIRIFLAGS:--Zmiri-disable-isolation}" \
SPI_STRESS_ITERS="${SPI_STRESS_ITERS:-50}" \
  cargo +nightly miri test -p spi-platform --lib --features verify-shim "$@" \
    -- transport:: pool:: supervise::
echo "== miri checks passed =="
