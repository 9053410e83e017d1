#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Arguments go to `main.exe run`.  The dune cache is disabled so the
# build reads and writes only inside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe run "$@"
