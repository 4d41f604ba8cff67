#!/usr/bin/env bash
# Holds the diagnostic codes to DESIGN.md's tables, in both directions:
#
#   * every code the analyzer (crates/analyze/src) or the trace checker
#     (crates/trace/src/check.rs) emits has a live row;
#   * no code a row marks retired is emitted anywhere in the Rust
#     sources (crates/, src/, tests/, examples/).
#
# A row is a Markdown table line whose first cell is the code
# (`| SPI040 | warning | ... |`); it is retired when one of its cells
# starts with `retired`. A code is emitted where it appears as a string
# literal (`"SPI040"`).
#
# Usage: scripts/diag_codes.sh        (exit 0 clean, 1 with the offenders listed)
set -euo pipefail
cd "$(dirname "$0")/.."

rows() {
  grep -E '^\| *SPI[0-9]{3} *\|' DESIGN.md
}
live=$(rows | grep -Ev '\| *retired' | grep -oE '^\| *SPI[0-9]{3}' | grep -oE 'SPI[0-9]{3}' | sort -u)
retired=$(rows | grep -E '\| *retired' | grep -oE '^\| *SPI[0-9]{3}' | grep -oE 'SPI[0-9]{3}' | sort -u)

literals() {
  grep -rhoE --include='*.rs' '"SPI[0-9]{3}"' "$@" | tr -d '"' | sort -u
}
emitted=$(literals crates/analyze/src crates/trace/src/check.rs)

status=0
unlisted=$(comm -23 <(echo "$emitted") <(echo "$live"))
if [ -n "$unlisted" ]; then
  echo "diag_codes: emitted without a live row in DESIGN.md:" $unlisted >&2
  status=1
fi
if [ -n "$retired" ]; then
  for code in $retired; do
    if hits=$(grep -rlF --include='*.rs' "\"$code\"" crates src tests examples); then
      echo "diag_codes: retired $code is emitted in:" $hits >&2
      status=1
    fi
  done
fi
[ "$status" -eq 0 ] && echo "diag_codes: $(echo "$emitted" | wc -l) emitted codes listed, $(echo "$retired" | wc -w) retired codes unused"
exit "$status"
