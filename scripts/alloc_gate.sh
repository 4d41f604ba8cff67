#!/usr/bin/env sh
# The CI allocation and set-up gate: the lowered data plane's, the
# supervised port's and the trace capture's allocation counts must not
# creep back, and neither may the cost of building application 1.
# Runs the benchmark's two application workloads and the supervised and
# traced self-loops with `--trace 1` for two seconds each, reads the JSON
# line the run prints last, and fails if a run reports a failed
# operation or more allocations an iteration than its ceiling.
# `allocs_per_iter` is a count made by the benchmark's own allocator and
# repeats exactly on a given build, so the ceilings sit close to the
# figures (EXPERIMENTS.md, "A firing lends kept buffers", "The
# supervision ledger" and "Owner-claimed trace slots"): des_app1
# 12.27 — one framed message per cross send, three per error PE —
# and app1_lpc 6.134 — those three and the ring's received `Vec` per
# message; the actors write into output slots their firings keep, and
# the actors' own work, the firings' lists and the DES's wake-ups
# allocate nothing after their first use — and 2.0002 for both
# self-loops — the bare loop's count (the payload closure's `Vec` and
# the ring's received `Vec`). The checkpoint log
# copies into a reused buffer and a captured event lands in a
# preallocated slot, so one more allocation a message would read 3.
#
# Then it runs des_app1 with `--trace 0` (the tier that prints
# `setup_s`) and fails if building the four-PE system takes more than
# 1 ms. A timing, so the ceiling is loose: it reads ≈ 0.10 ms with one
# analyzer run per build, ≈ 0.13 ms with the graph-level pre-flight run
# that also ran before (and with the cycle ratio by policy iteration and
# eq. (3) evaluated up to its periodic regime), ≈ 0.3 ms with the
# bisection and the 256-iteration horizon those replaced, and ≈ 16 ms
# with the sweep before that (EXPERIMENTS.md, "Building a system: one
# analysis per build", "... eq. (3) exactly" and "... in one pass").
#
# Usage: scripts/alloc_gate.sh
set -eu
cd "$(dirname "$0")/.."

gate() {
  workload=$1
  ceiling=$2
  line=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)
  failed=$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')
  allocs=$(printf '%s\n' "$line" | sed -n 's/.*"allocs_per_iter": {"value": \([0-9.eE+-]*\).*/\1/p')
  if [ -z "$failed" ] || [ -z "$allocs" ]; then
    echo "alloc gate: $workload printed no failed / allocs_per_iter: $line" >&2
    exit 1
  fi
  echo "== alloc gate: $workload allocs_per_iter=$allocs (ceiling $ceiling) failed=$failed"
  if [ "$failed" -ne 0 ]; then
    echo "alloc gate: $workload reports $failed failed operations" >&2
    exit 1
  fi
  if ! awk -v a="$allocs" -v c="$ceiling" 'BEGIN { exit !(a <= c) }'; then
    echo "alloc gate: $workload allocates $allocs times an iteration, ceiling $ceiling" >&2
    exit 1
  fi
}

setup_gate() {
  workload=$1
  ceiling=$2
  line=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  setup=$(printf '%s\n' "$line" | sed -n 's/.*"setup_s": {"value": \([0-9.eE+-]*\).*/\1/p')
  if [ -z "$setup" ]; then
    echo "setup gate: $workload printed no setup_s: $line" >&2
    exit 1
  fi
  echo "== setup gate: $workload setup_s=$setup (ceiling $ceiling)"
  if ! awk -v s="$setup" -v c="$ceiling" 'BEGIN { exit !(s <= c) }'; then
    echo "setup gate: $workload takes $setup s to build, ceiling $ceiling s" >&2
    exit 1
  fi
}

gate des_app1 12.3
gate app1_lpc 6.2
gate selfloop8_supervised 2.1
gate selfloop8_traced 2.1
setup_gate des_app1 0.001
echo "alloc gate OK"
