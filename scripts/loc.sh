#!/usr/bin/env bash
# Prints the two sizes ROADMAP aim 2 tracks ("should go down"):
#  * code lines: non-blank, non-comment lines before the test module (the
#    first `#[cfg(test)]` at column 0) of every file under crates/*/src —
#    one subtotal per crate, the core + sched line ROADMAP quotes, and the
#    grand total;
#  * the line count of docs/api_surface.txt (the public API dump that
#    scripts/api_surface.sh writes).
#
#   scripts/loc.sh            # per-crate table, core + sched, total, API lines
#   scripts/loc.sh --total    # just the core + sched number
set -euo pipefail
cd "$(dirname "$0")/.."

crate_lines() {
  find "crates/$1/src" -name '*.rs' -print0 | LC_ALL=C sort -z | xargs -0 awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }'
}

core_sched=$(($(crate_lines core) + $(crate_lines sched)))
if [ "${1:-}" = "--total" ]; then
  echo "$core_sched"
  exit 0
fi

total=0
for dir in crates/*/src; do
  crate=$(basename "$(dirname "$dir")")
  n=$(crate_lines "$crate")
  total=$((total + n))
  printf '%6d  crates/%s/src\n' "$n" "$crate"
done
printf '%6d  core + sched (the number ROADMAP tracks)\n' "$core_sched"
printf '%6d  total (crates/*/src, code lines before #[cfg(test)])\n' "$total"
printf '%6d  docs/api_surface.txt lines\n' "$(wc -l < docs/api_surface.txt)"
