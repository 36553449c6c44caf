#!/usr/bin/env bash
# Checks that `repro` output is unchanged against another revision.
#
# Exports <rev> into a temporary directory (`git archive`, so nothing is
# registered in .git and an interrupted run leaves nothing behind but the
# temporary directory), builds `repro` there and in the working tree, runs
# `repro all --save` and `repro all --quick --save` on both, and diffs the
# saved reports. `tab6` times table lookups on the wall clock, so it is
# left out of the comparison.
#
#   scripts/repro_diff.sh <rev>      # e.g. scripts/repro_diff.sh HEAD~1
#
# Exits 0 when every other report is byte-identical, 1 on any difference
# (the diff is printed), 2 on bad usage.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/repro_diff.sh <rev>" >&2
  exit 2
fi
if ! rev=$(git rev-parse --verify --quiet "$1^{commit}"); then
  echo "repro_diff: unknown revision '$1'" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git archive "$rev" | tar -x -C "$tmp/tree"

# Builds repro from <tree> into <target dir> and saves both scales' reports
# under <out>/full and <out>/quick.
reports() {
  local tree=$1 target=$2 out=$3
  cargo build --release --quiet --manifest-path "$tree/Cargo.toml" --target-dir "$target" \
    -p sushi-core --bin repro
  mkdir -p "$out/full" "$out/quick"
  "$target/release/repro" all --save "$out/full" >/dev/null
  "$target/release/repro" all --quick --save "$out/quick" >/dev/null
}

reports "$tmp/tree" "$tmp/target" "$tmp/base"
reports "$PWD" "${CARGO_TARGET_DIR:-$PWD/target}" "$tmp/head"

if diff -r --exclude=tab6.txt "$tmp/base" "$tmp/head"; then
  echo "repro_diff: repro all and repro all --quick match ${rev:0:12} (tab6 excluded)"
else
  echo "repro_diff: repro output differs from ${rev:0:12}" >&2
  exit 1
fi
