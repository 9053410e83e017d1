#!/usr/bin/env bash
# Kernel micro-benchmark: wall-clock GFLOP/s of the native GEMM tier
# (gemm-native, and gemm-bias-tanh with a fused bias+tanh epilogue)
# against the OCaml reference loops, at the per-cell shapes the
# workloads actually run (LSTM gate, RNN cell, FFN block, back-to-back
# GEMM), on tensors born 64-byte aligned; then ns per element of
# the native elementwise kernels (ew-add, ew-mul, ew-tanh, ew-sigmoid,
# ew-exp, ew-bias-tanh) against the Tensor.Reference loops at the
# cell-tail shapes [1,64], [1,128], [16,128] and [32,32].
# Median-of-N with warmup, every pair checked bitwise; records go to
# BENCH_kernels.json.  The kernels gate (every candidate bitwise-equal
# and >= 1.0x its baseline; gemm-bias-tanh >= 0.5x gemm-native
# GFLOP/s on every shape) prints one ok/FAIL line per row and fails
# the script on any FAIL.
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
