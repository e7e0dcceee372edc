#!/usr/bin/env bash
# The number simplicity gates quote: per `.rs` file, the lines before the
# first `#[cfg(test)]`, minus blank lines and `//` comment lines (doc
# comments included), then the sum. Directories are searched recursively.
#
#   scripts/code_lines.sh [path…]        (default: crates)
set -euo pipefail

[ "$#" -gt 0 ] || set -- crates
find "$@" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { lines[FILENAME]++; total++ }
    END {
        for (f in lines) printf "%7d %s\n", lines[f], f | "sort -k2"
        close("sort -k2")
        printf "%7d total\n", total
    }'
