#!/usr/bin/env bash
# Code lines of the Rust tree: lines that are not blank and do not start
# (after indentation) with `//`, in the `.rs` files under crates, src,
# tests and examples. Prints one line per crate's `src` directory, then
# the tree total. Informational: it exits 0 whatever the counts are.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 |
        xargs -0 cat |
        grep -cvE '^[[:space:]]*(//|$)' || true
}

for dir in src crates/*/src crates/compat/*/src; do
    if [ -d "$dir" ]; then
        printf '%-28s %6d\n' "$dir" "$(count "$dir")"
    fi
done
printf '%-28s %6d\n' tree "$(count crates src tests examples)"
