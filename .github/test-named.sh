#!/usr/bin/env bash
# Usage: bash .github/test-named.sh <cargo test args> -- <name filter>...
#
# Runs `cargo test <cargo test args> -- <filter>` once per name filter and
# fails when a filter matches no test. libtest passes a filter that matches
# nothing, so a renamed test, or one moved to another crate, would
# otherwise leave a named CI step green while it runs nothing.
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 <cargo test args> -- <name filter>..." >&2
  exit 2
fi
shift

for filter in "$@"; do
  out=$(cargo test "${args[@]}" -- "$filter" 2>&1) || {
    printf '%s\n' "$out"
    exit 1
  }
  printf '%s\n' "$out"
  ran=$(printf '%s\n' "$out" |
    sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' |
    awk '{ n += $1 } END { print n + 0 }')
  if [ "$ran" -eq 0 ]; then
    echo "::error::no test matches '$filter' in: cargo test ${args[*]}"
    exit 1
  fi
done
