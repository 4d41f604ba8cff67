#!/usr/bin/env sh
# The stdout of every `spi-bench` figure, table and ablation binary,
# held byte for byte against the committed goldens in
# crates/bench/golden/ (one `<binary>.txt` each). Every number those
# binaries print is a deterministic function of the program (DES
# cycles, eq. (1)/(2) bounds, area totals), so any difference is a
# behaviour change. `spi-lint` is held the same way on the DIF fixtures
# in crates/bench/lint/: its `--format json` report on each one, with
# and without `--procs 2` (`spi_lint.<fixture>[.procs2].txt`).
#
#   1. build the binaries once (release),
#   2. run each one and compare its stdout with its golden,
#   3. self-test: flip one byte of a copy of a golden and require the
#      comparison against that copy to FAIL.
#
# Usage: scripts/bench_golden.sh           (check, then self-test)
#        scripts/bench_golden.sh --regen   (rewrite the goldens after an
#                                           intentional output change;
#                                           review the diff before
#                                           committing)
set -eu
cd "$(dirname "$0")/.."

GOLDEN=crates/bench/golden
BIN="${CARGO_TARGET_DIR:-target}/release"
MODE="${1:-check}"
case "$MODE" in check | --regen) ;; *) echo "usage: $0 [--regen]" >&2; exit 2 ;; esac

# The figure, table and ablation binaries (spi_lint reads files; it is
# run on the fixtures below).
names() {
  for src in crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    [ "$name" = spi_lint ] || echo "$name"
  done
}

# run OUT: every binary's stdout, and spi-lint's reports, into OUT.
run() {
  for name in $(names); do
    scripts/with_timeout.sh 300 "$BIN/$name" > "$1/$name.txt"
  done
  for dif in crates/bench/lint/*.dif; do
    fixture=$(basename "$dif" .dif)
    for procs in "" 2; do
      # Exit status 1 means error diagnostics, which some fixtures are
      # there to produce; 2 (usage or parse) is a failure.
      status=0
      "$BIN/spi-lint" --format json ${procs:+--procs "$procs"} "$dif" \
        > "$1/spi_lint.$fixture${procs:+.procs$procs}.txt" || status=$?
      if [ "$status" -gt 1 ]; then
        echo "spi-lint failed on $dif (exit $status)" >&2
        exit 1
      fi
    done
  done
}

# compare DIR OUT: every golden in DIR against the same file in OUT.
compare() {
  status=0
  for golden in "$1"/*.txt; do
    name=$(basename "$golden")
    if ! cmp -s "$golden" "$2/$name"; then
      echo "MISMATCH $name:" >&2
      diff "$golden" "$2/$name" >&2 || true
      status=1
    fi
  done
  return "$status"
}

echo "== bench golden: building the spi-bench binaries"
cargo build --release -q -p spi-bench --bins

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT INT TERM
run "$OUT"

if [ "$MODE" = --regen ]; then
  mkdir -p "$GOLDEN"
  rm -f "$GOLDEN"/*.txt
  cp "$OUT"/*.txt "$GOLDEN"/
  git --no-pager diff --stat -- "$GOLDEN" || true
  echo "goldens regenerated; inspect 'git diff $GOLDEN' before committing"
  exit 0
fi

echo "== bench golden: $(ls "$OUT" | wc -l) outputs against $GOLDEN"
[ "$(ls "$GOLDEN" | wc -l)" = "$(ls "$OUT" | wc -l)" ] || {
  echo "MISMATCH: $(ls "$GOLDEN" | wc -l) goldens for $(ls "$OUT" | wc -l) outputs" >&2
  exit 1
}
compare "$GOLDEN" "$OUT"

echo "== bench golden: self-test — a corrupted golden must fail the check"
COPY="$OUT/golden"
mkdir "$COPY"
cp "$GOLDEN"/*.txt "$COPY"/
printf 'X' | dd of="$COPY/fig6_app1_scaling.txt" bs=1 seek=16 conv=notrunc 2>/dev/null
if compare "$COPY" "$OUT" 2>/dev/null; then
  echo "FATAL: the check passed against a corrupted golden" >&2
  exit 1
fi

echo "bench golden OK"
