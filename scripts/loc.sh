#!/usr/bin/env bash
# Prints the code-line count ROADMAP aim 2 tracks ("should go down"):
# non-blank, non-comment lines before the test module (the first
# `#[cfg(test)]` at column 0) of every file under crates/core/src and
# crates/sched/src, per file and in total.
#
#   scripts/loc.sh            # per-file table + total
#   scripts/loc.sh --total    # just the number
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk '/^#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
       { n++ }
       END { print n + 0 }' "$1"
}

total=0
while IFS= read -r f; do
  n=$(count "$f")
  total=$((total + n))
  [ "${1:-}" = "--total" ] || printf '%6d  %s\n' "$n" "$f"
done < <(find crates/core/src crates/sched/src -name '*.rs' | LC_ALL=C sort)
if [ "${1:-}" = "--total" ]; then
  echo "$total"
else
  printf '%6d  total (crates/core/src + crates/sched/src, code lines before #[cfg(test)])\n' "$total"
fi
