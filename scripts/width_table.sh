#!/usr/bin/env bash
# Prints the parallel-efficiency table of the host forward: how much of
# each forward and each dense fused conv the kernel worker pool speeds up.
#
# Runs `kernel_bench` twice — once as is, once under `taskset -c 0` so the
# process (and so its pool, sized by `available_parallelism`) sees one CPU
# — and joins the rows. For every forward row (the `fused` column, the
# serving path) and every dense-conv row it prints
#
#   W  the width, `nproc`: the CPUs the unpinned run may use;
#   S  the speed-up, t(1 CPU) / t(W CPUs);
#   s  the serial share Amdahl's law gives, (W/S - 1)/(W - 1): 0 when the
#      row scales perfectly, 1 when the pool buys nothing.
#
# `taskset` sets the CPU affinity of the process it starts and nothing
# else. Timings are best-of-n wall times on a possibly shared host, so
# rows of a few microseconds are noise; read the large ones.
#
#   scripts/width_table.sh            # paper zoo (ResNet50 + MobileNetV3)
#   scripts/width_table.sh --quick    # toy zoo (CI-sized, seconds)
#
# With one CPU there is nothing to compare: it says so and exits 0. Any
# other argument exits 2. A row timed at 0.000 ms prints `-` for S and s.
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
case "${1:-}" in
  "") ;;
  --quick) args=(--quick) ;;
  *)
    echo "usage: scripts/width_table.sh [--quick]" >&2
    exit 2
    ;;
esac
if [ $# -gt 1 ]; then
  echo "usage: scripts/width_table.sh [--quick]" >&2
  exit 2
fi

width=$(nproc)
if [ "$width" -lt 2 ]; then
  echo "width_table: the table needs >= 2 CPUs (nproc = $width); nothing to compare"
  exit 0
fi

cargo build --release --quiet -p sushi-core --bin kernel_bench
bench=target/release/kernel_bench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Reduces kernel_bench output to "<row label>\t<ms>" lines, in print order.
rows() {
  awk '
    / naive .* fused / {
      for (i = 1; i < NF; i++) if ($i == "fused") { printf "forward %s\t%s\n", $1, $(i + 1); break }
      next
    }
    /dense conv layers/ { net = $1; dense = 1; next }
    /^$/ { dense = 0; next }
    dense && $1 ~ /^[0-9]+$/ { printf "conv %s m=%s k=%s n=%s\t%s\n", net, $1, $2, $3, $5 }
  '
}

"$bench" "${args[@]}" --runs 3 | rows > "$tmp/wide"
taskset -c 0 "$bench" "${args[@]}" --runs 3 | rows > "$tmp/one"

if ! diff <(cut -f1 "$tmp/wide") <(cut -f1 "$tmp/one") > /dev/null; then
  echo "width_table: the two kernel_bench runs printed different rows" >&2
  exit 1
fi
if [ ! -s "$tmp/wide" ]; then
  echo "width_table: no forward or dense-conv rows in kernel_bench output" >&2
  exit 1
fi

paste "$tmp/wide" "$tmp/one" | awk -F'\t' -v w="$width" '
  BEGIN {
    printf "W = %d (nproc); S = t(1 CPU) / t(W CPUs); s = (W/S - 1)/(W - 1)\n", w
    printf "%-42s %3s %10s %10s %6s %6s\n", "row", "W", "W CPUs ms", "1 CPU ms", "S", "s"
  }
  $2 == 0 || $4 == 0 { printf "%-42s %3d %10.3f %10.3f %6s %6s\n", $1, w, $2, $4, "-", "-"; next }
  {
    s = $4 / $2
    printf "%-42s %3d %10.3f %10.3f %6.2f %6.2f\n", $1, w, $2, $4, s, (w / s - 1) / (w - 1)
  }
'
