#!/usr/bin/env bash
# The mutant registry: every checker in this repository shows it can
# fail by killing a mutant, and the mutants live in mutants/ as
# patches, not as hooks compiled into the shipped code.
#
# An entry is mutants/<name>.patch: a `git diff` patch after a header
# of `#` lines (git apply skips text before the first `diff --git`):
#
#   # <what the mutant breaks, free text>
#   # command: <shell command, run at the tree's root, that must fail>
#   # expect: <extended regular expression>      (one line or more)
#
# The entry is killed when the command exits non-zero and every
# `expect:` expression matches some line of its output (stdout and
# stderr together, grep -E).
#
# The script copies the working tree's tracked files once into a
# scratch directory under ${TMPDIR:-/tmp}, outside the repository, and
# builds every entry there against one target directory
# (CARGO_TARGET_DIR if set, else one in the scratch directory). For
# each entry it checks that the patch applies, applies it, runs the
# command under scripts/with_timeout.sh (900 s) and reverts the patch. It
# prints a kill table and exits non-zero if an entry survives (its
# command passes), fails without its expected output, or no longer
# applies, so a refactor cannot retire a mutant silently. The
# repository itself is never written.
#
# Usage: scripts/mutants.sh [ENTRY...]     (default: every entry)
set -euo pipefail

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
registry="$root/mutants"

if [ "$#" -gt 0 ]; then
  entries=("$@")
else
  entries=()
  for p in "$registry"/*.patch; do
    entries+=("$(basename "$p" .patch)")
  done
fi
for e in "${entries[@]}"; do
  [ -f "$registry/$e.patch" ] || { echo "mutants: no entry $registry/$e.patch" >&2; exit 2; }
done

work=$(mktemp -d "${TMPDIR:-/tmp}/spi-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
tree="$work/tree"
mkdir -p "$tree" "$work/logs"
(cd "$root" && git ls-files -z | tar --null --ignore-failed-read -T - -cf -) \
  | tar -xf - -C "$tree"
# A repository of its own, so `git apply` reads patch paths from the
# copy's root wherever the scratch directory lies.
git -C "$tree" init -q
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

rows=()
bad=0
for e in "${entries[@]}"; do
  patch="$registry/$e.patch"
  log="$work/logs/$e.log"
  cmd=$(sed -n 's/^# command: //p' "$patch")
  mapfile -t expects < <(sed -n 's/^# expect: //p' "$patch")
  if [ -z "$cmd" ] || [ "${#expects[@]}" -eq 0 ]; then
    echo "mutants: $e has no '# command:' or no '# expect:' line" >&2
    exit 2
  fi
  start=$(date +%s)
  if ! git -C "$tree" apply --check "$patch" 2>"$log"; then
    verdict=STALE
  else
    git -C "$tree" apply "$patch"
    rc=0
    (cd "$tree" && scripts/with_timeout.sh 900 bash -c "$cmd") \
      >"$log" 2>&1 || rc=$?
    git -C "$tree" apply -R "$patch"
    if [ "$rc" -eq 0 ]; then
      verdict=SURVIVED
    else
      verdict=killed
      for x in "${expects[@]}"; do
        if ! grep -Eq -- "$x" "$log"; then
          verdict=UNEXPECTED
          echo "mutants: $e failed (exit $rc) without a line matching: $x" >>"$log"
        fi
      done
    fi
  fi
  secs=$(($(date +%s) - start))
  rows+=("$(printf '%-28s %-10s %6s  %s' "$e" "$verdict" "$secs" "$cmd")")
  if [ "$verdict" != killed ]; then
    bad=$((bad + 1))
    echo "== $e: $verdict; last lines of its output:" >&2
    tail -n 40 "$log" >&2
  fi
done

printf '%-28s %-10s %6s  %s\n' entry verdict seconds command
printf '%s\n' "${rows[@]}"
echo "${#entries[@]} entries, $((${#entries[@]} - bad)) killed, $bad not killed"
[ "$bad" -eq 0 ]
