#!/bin/sh
# Non-test lines of the tree, counted one way: per `.rs` file under
# `crates/*/src`, the lines before its first `#[cfg(test)]` (the whole file
# when it has none), summed per crate; and the plain line totals of
# `benchmark/`, `tests/` and `shims/`. Name files after `--` to list them one
# by one instead:   scripts/nontest-lines.sh -- crates/exec/src/groups.rs
set -eu
cd "$(dirname "$0")/.."

nontest() { awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

if [ "${1:-}" = "--" ]; then
    shift
    total=0
    for f in "$@"; do
        n=$(nontest "$f")
        total=$((total + n))
        printf '%7d  %s\n' "$n" "$f"
    done
    printf '%7d  total\n' "$total"
    exit 0
fi

grand=0
for crate in crates/*/; do
    sum=0
    for f in $(find "${crate}src" -name '*.rs' | sort); do
        sum=$((sum + $(nontest "$f")))
    done
    grand=$((grand + sum))
    printf '%7d  %s (non-test)\n' "$sum" "${crate%/}"
done
printf '%7d  crates/*/src (non-test)\n' "$grand"
for dir in benchmark tests shims; do
    n=$(find "$dir" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l)
    printf '%7d  %s (all .rs lines)\n' "$n" "$dir"
done
