#!/usr/bin/env bash
# Dumps the workspace's public API surface into docs/api_surface.txt.
#
#   scripts/api_surface.sh           # regenerate the committed dump
#   scripts/api_surface.sh --check   # fail if the dump is stale (CI gate)
#
# The dump is a sorted grep of `pub fn|struct|trait|enum|type|const`
# declarations per crate (plus the facade re-exports), so any change to the
# public API shows up as a reviewable diff to docs/api_surface.txt. CI runs
# `--check`: an API break that forgets to regenerate the dump fails the
# build, making API evolution explicit instead of accidental.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=docs/api_surface.txt

dump() {
  echo "# Public API surface — generated by scripts/api_surface.sh (CI diff-gates this file)."
  echo "# Regenerate after any intentional API change: scripts/api_surface.sh"
  for crate in tensor ir wsnet sched accel core; do
    echo
    echo "## sushi-$crate"
    # Source-level grep (not rustdoc) so the dump works offline. Each file
    # is read up to its test module (the first `#[cfg(test)]` at column 0,
    # as scripts/loc.sh counts), so test helpers declared `pub` stay out.
    # `pub use`/`pub mod` are included so re-export (path-level) breaks
    # show up too, not just item deletions.
    find "crates/$crate/src" -name '*.rs' -print0 | xargs -0 awk '
      FNR == 1 { skip = 0 }
      /^#\[cfg\(test\)\]/ { skip = 1 }
      !skip && /^[[:space:]]*pub (fn|struct|trait|enum|type|const|mod|use) /' \
      | sed -E 's/^[[:space:]]+//; s/[[:space:]]*\{[[:space:]]*$//; s/;[[:space:]]*$//; s/[[:space:]]*$//' \
      | LC_ALL=C sort -u
  done
  echo
  echo "## sushi (facade)"
  grep -hE '^pub use' src/lib.rs | LC_ALL=C sort -u
}

if [ "${1:-}" = "--check" ]; then
  if ! dump | diff -u "$OUT" - >/dev/null 2>&1; then
    echo "docs/api_surface.txt is stale. The public API changed; review the diff and" >&2
    echo "regenerate it with scripts/api_surface.sh." >&2
    dump | diff -u "$OUT" - >&2 || true
    exit 1
  fi
  echo "api surface up to date ($OUT)"
else
  dump > "$OUT"
  echo "wrote $OUT"
fi
