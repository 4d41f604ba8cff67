#!/usr/bin/env sh
# Code lines per file and in total, as CHANGES.md counts them: lines
# that are neither blank nor `//` comments (doc comments included),
# above the file's trailing `#[cfg(test)]` + `mod` pair. "Net lines
# removed" in a PR is the difference of two runs of this script.
#
# Usage: scripts/loc.sh FILE...
#        scripts/loc.sh crates/*/src      (directories are searched for *.rs)
set -eu
[ "$#" -gt 0 ] || { echo "usage: $0 FILE..." >&2; exit 2; }

find "$@" -type f -name '*.rs' | sort | xargs awk '
    FNR == 1 { cut = 0; pending = 0 }
    cut { next }
    /^#\[cfg\(test\)\]$/ { pending = 1; next }
    pending && /^mod [a-z_]+( \{|;)$/ { cut = 1; next }
    pending { pending = 0; lines[FILENAME]++; total++ }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[FILENAME]++; total++ }
    END {
        for (f in lines) printf "%7d %s\n", lines[f], f | "sort -k2"
        close("sort -k2")
        printf "%7d total\n", total
    }
'
