#!/usr/bin/env sh
# The stdout of every `spi-bench` figure, table and ablation binary,
# held byte for byte against the committed goldens in
# crates/bench/golden/ (one `<binary>.txt` each). Every number those
# binaries print is a deterministic function of the program (DES
# cycles, eq. (1)/(2) bounds, area totals), so any difference is a
# behaviour change.
#
#   1. build the binaries once (release),
#   2. run each one (spi_lint excepted: it reads files and is driven by
#      the trace / net jobs) and compare its stdout with its golden,
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

names() {
  for src in crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    [ "$name" = spi_lint ] || echo "$name"
  done
}

# compare DIR OUT: every binary's stdout in OUT against DIR's golden.
compare() {
  status=0
  for name in $(names); do
    if ! cmp -s "$1/$name.txt" "$2/$name.txt"; then
      echo "MISMATCH $name:" >&2
      diff "$1/$name.txt" "$2/$name.txt" >&2 || true
      status=1
    fi
  done
  return "$status"
}

echo "== bench golden: building the spi-bench binaries"
cargo build --release -q -p spi-bench --bins

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT INT TERM
for name in $(names); do
  scripts/with_timeout.sh 300 "$BIN/$name" > "$OUT/$name.txt"
done

if [ "$MODE" = --regen ]; then
  mkdir -p "$GOLDEN"
  rm -f "$GOLDEN"/*.txt
  cp "$OUT"/*.txt "$GOLDEN"/
  git --no-pager diff --stat -- "$GOLDEN" || true
  echo "goldens regenerated; inspect 'git diff $GOLDEN' before committing"
  exit 0
fi

echo "== bench golden: $(names | wc -l) binaries against $GOLDEN"
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
