#!/usr/bin/env bash
# VM wall-clock benchmark: the parallel wavefront executor on real
# multicore hardware.  Runs the stacked-LSTM and flash-attention
# workloads — the reference interpreter (Interp) as the baseline, the
# compiled executor (straight-line closures over an arena) in wavefront
# order at 1/2/4 domains — median-of-N, and writes the records (time,
# engine, speedup vs the interpreter, bitwise-equality check in the
# interpreter's view, hardware core count) to BENCH_vm.json.
#
#   scripts/bench_vm.sh [REPEAT] [DOMAINS] [OUT]
#
# Defaults: REPEAT=5, DOMAINS=1,2,4, OUT=BENCH_vm.json.  Speedups above
# 1x require the machine to actually have spare cores — the hw_cores
# field in each record says what was available.
set -euo pipefail
cd "$(dirname "$0")/.."

REPEAT="${1:-5}"
DOMAINS="${2:-1,2,4}"
OUT="${3:-BENCH_vm.json}"

dune build bench/main.exe
dune exec --no-build bench/main.exe -- vm \
  --repeat "$REPEAT" --domains "$DOMAINS" --json "$OUT"
echo "wrote $OUT"
