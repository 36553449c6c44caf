#!/usr/bin/env bash
# Gates and regenerates the committed serving baseline:
#
#   BENCH_serve.json    serving-runtime simulated metrics, schema v5
#                       (serve_bench): rows keyed by (scenario, adaptive,
#                       workers, routing, tier, faults) — adaptive + static
#                       rows for every preset, per-tier slices of the
#                       tenant-tiered multi_tenant run, the fault-injected
#                       chaos preset with its unsupervised ablation row,
#                       plus the scale_functional worker-scaling sweep and
#                       its routing ablation (deterministic, near-zero
#                       drift tolerance)
#
#   scripts/bench_baseline.sh            # measure + gate vs the committed baseline
#   scripts/bench_baseline.sh --update   # measure, then rewrite the baseline
#
# Serve numbers are simulated and deterministic, so any drift is a semantic
# change; --update is the explicit acknowledgment that rewrites the baseline
# without re-checking it. Host time is measured by the benchmark package
# (BENCHMARK.json), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BASELINE=BENCH_serve.json

cargo build --release -p sushi-core --bin serve_bench

if [ "${1:-}" = "--update" ]; then
  ./target/release/serve_bench --out "$SERVE_BASELINE"
elif [ -f "$SERVE_BASELINE" ]; then
  ./target/release/serve_bench --check "$SERVE_BASELINE"
else
  echo "no $SERVE_BASELINE yet; run with --update to create it" >&2
  exit 1
fi
