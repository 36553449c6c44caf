#!/usr/bin/env bash
# Builds the benchmark, then runs every workload untraced and traced.
#
#   benchmark/run.sh --seed 1                 the full benchmark (~4 min)
#   benchmark/run.sh --seed 1 --smoke         toy zoo, seconds (CI-sized)
#   benchmark/run.sh --seed 1 --seconds 30    longer timed phases
#
# Result sets land in benchmark/out/{run,trace}.txt beside the span files;
# compare two of them with `sushi-benchmark agree A B`. Exits non-zero when
# a check failed, or when the release profiles of the root manifest and of
# this package differ (build settings change speed without changing code).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

release_profile() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 }
         on && !/^[[:space:]]*(#|$)/ { gsub(/[[:space:]]/, ""); print }' "$1"
}
if [ "$(release_profile "$root/Cargo.toml")" != "$(release_profile "$here/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] of Cargo.toml and benchmark/Cargo.toml differ:" >&2
    diff <(release_profile "$root/Cargo.toml") <(release_profile "$here/Cargo.toml") >&2 || true
    exit 1
fi

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/sushi-benchmark"
mkdir -p "$here/out"
"$bin" run "$@" | tee "$here/out/run.txt"
"$bin" trace "$@" | tee "$here/out/trace.txt"
