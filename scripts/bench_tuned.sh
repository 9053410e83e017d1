#!/usr/bin/env bash
# Auto-tuning benchmark: default vs best-found configuration on the
# paper workloads (fig2/fig7/fig8) plus the blockwise-FFN demo, searched
# over the simulator's time by deterministic coordinate descent at a
# fixed budget.  One modelled-µs cost per config.  Writes
# BENCH_tuned.json.
#
#   scripts/bench_tuned.sh [extra bench flags...]
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bench/main.exe
dune exec --no-build bench/main.exe -- tuned --json BENCH_tuned.json "$@"

if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool BENCH_tuned.json > /dev/null
  echo "BENCH_tuned.json validates"
fi
