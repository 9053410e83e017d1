#!/usr/bin/env bash
# Kernel micro-benchmark: wall-clock GFLOP/s of the native GEMM tier
# (unpacked; gemm-native-packed, native on an aligned copy of b; and
# the aligned copy with a fused bias+tanh epilogue) against the OCaml
# reference loops, at the per-cell shapes the workloads actually run
# (LSTM gate, RNN cell, FFN block, back-to-back GEMM), plus the aligned
# copy vs native unpacked as an ungated ratio.
# Median-of-N with warmup, every pair checked bitwise; records go to
# BENCH_kernels.json.  The kernels gate (every candidate bitwise-equal
# and >= 1.0x its baseline) prints one ok/FAIL line per candidate and
# fails the script on any FAIL.
#
#   scripts/bench_kernels.sh [REPEAT] [OUT]
#
# Defaults: REPEAT=5, OUT=BENCH_kernels.json.
set -euo pipefail
cd "$(dirname "$0")/.."

REPEAT="${1:-5}"
OUT="${2:-BENCH_kernels.json}"

dune build bench/main.exe
dune exec --no-build bench/main.exe -- kernels \
  --repeat "$REPEAT" --json "$OUT"
