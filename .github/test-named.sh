#!/usr/bin/env bash
# Usage: bash .github/test-named.sh <cargo test args> -- [--libtest-flag]... <name filter>...
#
# Runs `cargo test <cargo test args> -- <libtest flags> <filter>` once per
# name filter and fails when a filter matches no test. libtest passes a
# filter that matches nothing, so a renamed test, or one moved to another
# crate, would otherwise leave a named CI step green while it runs
# nothing. Arguments after `--` that start with `--` (such as `--ignored`)
# are libtest flags, forwarded to every invocation, so ignored tests can
# be named too.
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 1 ]; then
  echo "usage: $0 <cargo test args> -- [--libtest-flag]... <name filter>..." >&2
  exit 2
fi
shift

flags=()
filters=()
for arg in "$@"; do
  case "$arg" in
  --*) flags+=("$arg") ;;
  *) filters+=("$arg") ;;
  esac
done
if [ ${#filters[@]} -eq 0 ]; then
  echo "usage: $0 <cargo test args> -- [--libtest-flag]... <name filter>..." >&2
  exit 2
fi

for filter in "${filters[@]}"; do
  out=$(cargo test "${args[@]}" -- "${flags[@]}" "$filter" 2>&1) || {
    printf '%s\n' "$out"
    exit 1
  }
  printf '%s\n' "$out"
  ran=$(printf '%s\n' "$out" |
    sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' |
    awk '{ n += $1 } END { print n + 0 }')
  if [ "$ran" -eq 0 ]; then
    echo "::error::no test matches '$filter' in: cargo test ${args[*]} -- ${flags[*]}"
    exit 1
  fi
done
