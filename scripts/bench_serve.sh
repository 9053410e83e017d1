#!/usr/bin/env bash
# Serving benchmark: continuous batching over the compiled wavefront
# engine.  For every builtin workload (stacked RNN/LSTM, attention
# block, selective scan) it measures closed-loop saturation throughput
# batched vs solo (interleaved rounds, median-of-N), runs the bitwise
# batched-vs-solo differential on the final round, and plays an
# open-loop Poisson arrival process through the bounded-queue broker
# to get latency percentiles under backpressure.  Records land in
# BENCH_serve.json; the serve gate (0 mismatches and a finite open-loop
# p99 on every workload, some arrivals shed) prints one ok/FAIL line
# per workload and fails the script on any FAIL.
#
#   scripts/bench_serve.sh [REPEAT] [REQUESTS] [OUT]
#
# Defaults: REPEAT=7, REQUESTS=32, OUT=BENCH_serve.json.  Speedups
# above 1x come from amortizing per-tick and per-cell dispatch over
# the shared batch dimension (row-batched workloads execute the whole
# batch as one tensor), not from extra cores.
set -euo pipefail
cd "$(dirname "$0")/.."

REPEAT="${1:-7}"
REQUESTS="${2:-32}"
OUT="${3:-BENCH_serve.json}"

dune build bench/main.exe
dune exec --no-build bench/main.exe -- serve \
  --repeat "$REPEAT" --requests "$REQUESTS" --json "$OUT"
