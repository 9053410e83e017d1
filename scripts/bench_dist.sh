#!/usr/bin/env bash
# Distributed-execution benchmark: every builtin workload sharded
# across 1/2/4/8 simulated devices.  Each row: the graph
# auto-partitioned, executed functionally on real OCaml domains with
# explicit transfers, bitwise-checked against the 1-device compiled
# engine, and the same event log priced on the NVLink-class
# interconnect model — so the scaling curve and the correctness check
# come from the same execution.  Rows where the exchanges dominate the
# compute report speedup_vs_1dev < 1 (simulated); that is the honest
# answer at that size, not a failure.  wall_ms (measured) is the
# median of 5 warm Dist.run calls, next to the 1-device compiled
# engine on the same graph, timed the same way.  The dist gate (every
# workload's curve covers 1/2/4/8 devices, every row bitwise) prints
# one ok/FAIL line per workload and fails the script on any FAIL, so
# a DEVICES list without 1, 2, 4 and 8 fails it.
#
#   scripts/bench_dist.sh [DEVICES] [OUT]
#
# Defaults: DEVICES=1,2,4,8, OUT=BENCH_dist.json.
set -euo pipefail
cd "$(dirname "$0")/.."

DEVICES="${1:-1,2,4,8}"
OUT="${2:-BENCH_dist.json}"

dune build bench/main.exe
dune exec --no-build bench/main.exe -- dist \
  --devices "$DEVICES" --json "$OUT"
