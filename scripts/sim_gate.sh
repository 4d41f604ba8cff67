#!/usr/bin/env sh
# The CI `sim` gate: deterministic-simulation checks plus two
# self-tests proving the gate can actually fail.
#
#   1. full spi-sim suite (determinism, replay, flush edges, virtual
#      time, golden snapshots, strict-park shared consumers),
#   2. the golden snapshot tests in a second fresh process — the
#      ISSUE's acceptance gate that the same seed yields a
#      byte-identical event log across consecutive runs,
#   3. a seed sweep widened to SPI_SIM_RUNS seeds,
#   4. deliberate-regression self-test A: the simulator must rediscover
#      the PR 3 lost-wakeup deadlock in a ring whose wait list drains on
#      wake (registry entry mutants/pr3_wake_dequeue_sim.patch, applied
#      to a scratch copy by scripts/mutants.sh: a 200-seed strict-park
#      sweep must print its SPI_SIM_SEED= replay line),
#   5. deliberate-regression self-test B: flip one byte of a committed
#      golden log and require the snapshot test to FAIL, then restore.
#
# Usage: scripts/sim_gate.sh            (defaults: 25-seed sweep)
#        SPI_SIM_RUNS=500 scripts/sim_gate.sh   (nightly width)
set -eu
cd "$(dirname "$0")/.."

RUNS="${SPI_SIM_RUNS:-25}"
GOLDEN=crates/sim/tests/golden/fir_clean.log

echo "== sim gate: full deterministic-simulation suite"
scripts/with_timeout.sh 900 cargo test -p spi-sim -q

echo "== sim gate: golden snapshots, second fresh process (byte-identical across runs)"
scripts/with_timeout.sh 300 cargo test -p spi-sim --test golden -q

echo "== sim gate: ${RUNS}-seed sweep"
SPI_SIM_SWEEP="$RUNS" scripts/with_timeout.sh 1800 cargo test -p spi-sim --test whole_system -q

echo "== sim gate: self-test A — rediscover the PR 3 lost wakeup (registry mutant)"
scripts/with_timeout.sh 600 scripts/mutants.sh pr3_wake_dequeue_sim

echo "== sim gate: self-test B — snapshot harness must detect a corrupted golden log"
cp "$GOLDEN" "$GOLDEN.orig"
restore() { mv -f "$GOLDEN.orig" "$GOLDEN" 2>/dev/null || true; }
trap restore EXIT INT TERM
printf 'X' | dd of="$GOLDEN" bs=1 seek=64 conv=notrunc 2>/dev/null
if cargo test -p spi-sim --test golden -q golden_fir_clean >/dev/null 2>&1; then
  echo "FATAL: snapshot test passed against a corrupted golden log" >&2
  exit 1
fi
restore
trap - EXIT INT TERM
cargo test -p spi-sim --test golden -q golden_fir_clean

echo "sim gate OK (sweep width $RUNS)"
