#!/usr/bin/env bash
# Tier-1 verification entry point: full build, the complete test suite,
# and the static linter and memory-effect analyzer over every example
# .ft program.
#
#   scripts/check.sh
#
# Exits non-zero on any build failure, test failure, or lint error.
set -euo pipefail
cd "$(dirname "$0")/.."

# One value engine: library interfaces carry no deprecated shims, only
# the reference interpreter (lib/fractal) evaluates primitives through
# Interp.eval_prim, and the compiled engine is the only thing that runs
# a plan on values — the retired VM execution path stays retired.
echo "guard: no @deprecated in lib/**/*.mli"
if grep -rn --include='*.mli' '@deprecated' lib; then
  echo "check.sh: deprecated shim left in a library interface" >&2
  exit 1
fi
echo "guard: Interp.eval_prim only in lib/fractal/"
stray=$(grep -rn 'Interp.eval_prim' lib --include='*.ml' \
  | grep -v -e '^lib/fractal/' || true)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: a second primitive evaluator outside the interpreter" >&2
  exit 1
fi
echo "guard: no VM execution path in lib/, bin/ or bench/main.ml"
if grep -rnE 'Vm\.run|point_evaluator|Unsupported_graph|vm-fallback|Run_opts\.interpreted' \
  lib bin bench/main.ml; then
  echo "check.sh: a second engine crept back in" >&2
  exit 1
fi
# One bounded cache and one pool registry: a module-level keyed table
# is a hand-rolled cache with no limit, and a pool created outside the
# runtime is a second registry.
echo "guard: keyed caches only through Bounded_cache, pools only through Domain_pool"
stray=$(grep -rnE --include='*.ml' \
  '^\s*let [a-z_]+( *:[^=]*)? *= *Hashtbl\.create [0-9]+\s*$' lib \
  | grep -v '^lib/runtime/bounded_cache\.ml:' || true)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: a module-level Hashtbl outside Bounded_cache" >&2
  exit 1
fi
stray=$(grep -rn 'Domain_pool\.create' lib | grep -v '^lib/runtime/' || true)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: a pool created outside the Domain_pool registry" >&2
  exit 1
fi

dune build
dune runtest

# Differential suite at both ends of the domain-count range: the
# compiled engine in wavefront order must be bitwise-identical to the
# same engine in sequential order whether the pool is trivial or
# genuinely concurrent.
for n in 1 4; do
  echo "vm-diff suite at FT_NUM_DOMAINS=$n"
  FT_NUM_DOMAINS=$n dune exec --no-build test/test_main.exe -- test vm-diff \
    > /dev/null
done

# Conformance sweep: seeded random programs through every oracle
# (interpreter; the compiled engine in sequential order, in wavefront
# order at 1/2/4 domains, under the shadow-memory recorder, without
# the arena, with and without fusion, with tuned configs and across a
# plan-cache roundtrip; sharded over 2 and 4 devices) plus the
# metamorphic access laws.
# The text report includes the per-oracle pass counts.  Then replay
# the minimized-repro corpus — the regression programs the harness
# wrote for previously-found compiler bugs.
echo "conform (seed 42, budget 50, all oracles)"
dune exec --no-build bin/ftc.exe -- conform --seed 42 --budget 50
echo "conform: corpus replay"
dune exec --no-build bin/ftc.exe -- conform --replay test/corpus

# One sweep with the shadow memory armed: every cell access is
# recorded per anti-chain and cross-checked against the static
# memory-effect verdicts after each run — a static "disjoint" that a
# dynamic overlap contradicts fails the sweep.
echo "conform under FT_SHADOW=1 (seed 7, budget 25)"
FT_SHADOW=1 dune exec --no-build bin/ftc.exe -- conform --seed 7 --budget 25

# Sharded differential smoke: the distributed executor across two
# simulated devices must be bitwise-identical to the single-device
# compiled engine.  `ftc shard` already exits non-zero on a value
# mismatch or a statically refuted plan; the grep pins the verdict
# line, so a silent output-format regression also fails.
for w in stacked_rnn flash_attention; do
  echo "shard $w --devices 2"
  out=$(dune exec --no-build bin/ftc.exe -- shard "$w" --devices 2)
  grep "bitwise-identical" <<< "$out" > /dev/null
done

for f in examples/programs/*.ft; do
  echo "lint $f"
  dune exec --no-build bin/ftc.exe -- lint "$f"
done

# Static memory-effect analysis of every example: footprints, wavefront
# race verdicts, liveness and the arena proposal.  The JSON document is
# re-validated with an independent parser, like the profile reports.
for f in examples/programs/*.ft; do
  echo "analyze $f"
  dune exec --no-build bin/ftc.exe -- analyze "$f" --format text > /dev/null
  if command -v python3 > /dev/null 2>&1; then
    dune exec --no-build bin/ftc.exe -- analyze "$f" --format json \
      | python3 -m json.tool > /dev/null
  else
    echo "  (python3 not found; skipping JSON validation)"
  fi
done

# Profile every example program and validate the emitted JSON (both the
# profile document and the Chrome trace) with an independent parser.
# A shared FT_PLAN_CACHE directory makes the second and third profile
# of each file exercise the disk plan cache.
FT_PLAN_CACHE="$(mktemp -d)"
export FT_PLAN_CACHE
trap 'rm -rf "$FT_PLAN_CACHE"' EXIT
for f in examples/programs/*.ft; do
  echo "profile $f"
  dune exec --no-build bin/ftc.exe -- profile "$f" --format text > /dev/null
  if command -v python3 > /dev/null 2>&1; then
    dune exec --no-build bin/ftc.exe -- profile "$f" --format json \
      | python3 -m json.tool > /dev/null
    dune exec --no-build bin/ftc.exe -- profile "$f" --format chrome \
      | python3 -m json.tool > /dev/null
  else
    echo "  (python3 not found; skipping JSON validation)"
  fi
done

# Budgeted smoke tune: search the demo program's knob space with the
# analytical oracle under a tiny fixed budget, validate the JSON
# report, then profile through the same FT_TUNE_DB so the stored
# config is applied without re-searching (the report must name it).
FT_TUNE_DB="$(mktemp -d)"
export FT_TUNE_DB
trap 'rm -rf "$FT_PLAN_CACHE" "$FT_TUNE_DB"' EXIT
tune_target=examples/programs/ffn_block.ft
echo "tune $tune_target (budget 8, grid, sim oracle, seed 2024)"
dune exec --no-build bin/ftc.exe -- tune "$tune_target" \
  --budget 8 --strategy grid --oracle sim --seed 2024 --format text
if command -v python3 > /dev/null 2>&1; then
  dune exec --no-build bin/ftc.exe -- tune "$tune_target" \
    --budget 8 --strategy grid --oracle sim --seed 2024 --format json \
    | python3 -m json.tool > /dev/null
fi
echo "profile $tune_target with the tuned config applied"
dune exec --no-build bin/ftc.exe -- profile "$tune_target" --format text \
  | grep "tuned config:"
dune exec --no-build bin/ftc.exe -- cache stats

# VM benchmark smoke: regenerate BENCH_vm.json and demand the compiled
# wavefront executor at one domain is never slower than the reference
# interpreter (Interp.run_program) and stays bitwise-identical to it in
# the interpreter's view.  The per-point dispatch, stride math and
# storage the interpreter re-derives are all resolved at plan time, so
# a regression here means the compiled path lost its reason to exist.
if command -v python3 > /dev/null 2>&1; then
  echo "bench_vm smoke (repeat 5, domains 1,2,4)"
  scripts/bench_vm.sh 5 1,2,4 BENCH_vm.json > /dev/null
  python3 - <<'EOF'
import json
recs = json.load(open("BENCH_vm.json"))
rows = [r for r in recs if r["order"] == "wavefront" and r["domains"] == 1]
assert rows, "BENCH_vm.json has no wavefront@1-domain records"
bad = [r for r in rows
       if r["speedup_vs_interp"] < 1.0 or not r["bitwise_equal"]]
for r in rows:
    tag = "FAIL" if r in bad else "ok"
    print(f"  {tag} {r['workload']}: {r['engine']} wavefront@1 "
          f"{r['speedup_vs_interp']:.2f}x interp, "
          f"bitwise_equal={r['bitwise_equal']}")
if bad:
    raise SystemExit("bench_vm smoke: compiled wavefront lost to the "
                     "reference interpreter at one domain")

# Fusion gate: on every workload the fused compiled engine must be at
# least as fast as the same engine with fusion off.  A workload with
# no fusible GEMM tails runs near-identical code either way, so the
# ratio sits at 1.0 +/- clock noise — a 10% tolerance absorbs that
# without ever excusing a real regression (fusion wins by ~1.7x where
# it applies).
by_wl = {}
for r in rows:
    by_wl.setdefault(r["workload"], {})[r["engine"]] = r["time_ms"]
for wl, engines in sorted(by_wl.items()):
    nofuse = engines.get("compiled-nofuse")
    fused = engines.get("compiled")
    assert nofuse is not None and fused is not None, \
        f"missing fused/nofuse pair for {wl!r}"
    ratio = nofuse / fused
    tag = "ok" if ratio >= 0.90 else "FAIL"
    print(f"  {tag} {wl}: fused {ratio:.2f}x vs unfused at 1 domain")
    if ratio < 0.90:
        raise SystemExit("bench_vm smoke: kernel fusion made "
                         f"{wl!r} slower")
EOF

  echo "bench_kernels smoke (repeat 5)"
  scripts/bench_kernels.sh 5 BENCH_kernels.json > /dev/null
  python3 - <<'EOF'
import json
recs = json.load(open("BENCH_kernels.json"))
assert recs, "BENCH_kernels.json is empty"
cands = [r for r in recs if r["variant"] == "candidate"]
assert cands, "BENCH_kernels.json has no candidate records"
fail = False
for r in cands:
    ok = r["bitwise_equal"] and r["speedup_vs_baseline"] >= 1.0
    tag = "ok" if ok else "FAIL"
    print(f"  {tag} {r['kernel']} {r['shape']}: "
          f"{r['gflops']:.2f} GFLOP/s, "
          f"{r['speedup_vs_baseline']:.2f}x baseline, "
          f"bitwise_equal={r['bitwise_equal']}")
    fail = fail or not ok
if fail:
    raise SystemExit("bench_kernels smoke: a packed/fused kernel lost "
                     "to its baseline or changed results")
EOF
  # Serving smoke: a short continuous-batching bench.  Hard gates:
  # batched service must be bitwise identical to solo service on every
  # workload, the open-loop p99 must stay finite under deliberate
  # overload, and the bounded queue must actually shed (backpressure
  # engages) on at least one workload.  Speedup vs solo is reported
  # but not gated here — the committed BENCH_serve.json carries the
  # full-length measurement.
  echo "bench_serve smoke (repeat 3, requests 16)"
  scripts/bench_serve.sh 3 16 BENCH_serve_smoke.json > /dev/null
  python3 - <<'EOF'
import json, math, os
doc = json.load(open("BENCH_serve_smoke.json"))
os.remove("BENCH_serve_smoke.json")
wls = doc["workloads"]
assert wls, "BENCH_serve_smoke.json has no workload records"
fail = False
total_shed = 0
for r in wls:
    ol = r["open_loop"]
    p99 = ol["stats"]["latency_ms"]["p99"]
    total_shed += ol["shed"]
    ok = r["bitwise_mismatches"] == 0 and math.isfinite(p99)
    tag = "ok" if ok else "FAIL"
    print(f"  {tag} {r['workload']}: {r['speedup_vs_solo']:.2f}x solo, "
          f"occupancy {r['mean_occupancy']:.1f}/{r['max_batch']}, "
          f"open-loop shed {ol['shed']}/{ol['offered']}, p99 {p99:.2f} ms")
    fail = fail or not ok
if fail:
    raise SystemExit("bench_serve smoke: batched service diverged from "
                     "solo or p99 went non-finite under backpressure")
if total_shed == 0:
    raise SystemExit("bench_serve smoke: overload never engaged the "
                     "bounded queue (no arrivals shed)")
EOF

  # Distributed-execution smoke: regenerate BENCH_dist.json (every
  # workload sharded across 1/2/4/8 simulated devices) and demand that
  # every row was bitwise-checked against the 1-device compiled engine
  # and passed.  Speedups are reported, not gated: at smoke sizes the
  # exchanges legitimately dominate some workloads, and the honest < 1
  # rows are part of the curve.
  echo "bench_dist smoke (devices 1,2,4,8)"
  scripts/bench_dist.sh 1,2,4,8 BENCH_dist.json > /dev/null
  python3 - <<'EOF'
import json
rows = [r for r in json.load(open("BENCH_dist.json"))
        if r["experiment"] == "dist"]
assert rows, "BENCH_dist.json has no dist records"
by_wl = {}
for r in rows:
    by_wl.setdefault(r["workload"], []).append(r)
fail = False
for wl, rs in sorted(by_wl.items()):
    assert {r["devices"] for r in rs} >= {1, 2, 4, 8}, \
        f"{wl!r} is missing device counts in its curve"
    ok = all(r["bitwise_equal"] for r in rs)
    curve = ", ".join(f"{r['devices']}d {r['speedup_vs_1dev']:.2f}x"
                      for r in sorted(rs, key=lambda r: r["devices"]))
    tag = "ok" if ok else "FAIL"
    print(f"  {tag} {wl}: {curve}")
    fail = fail or not ok
if fail:
    raise SystemExit("bench_dist smoke: a sharded run diverged from "
                     "the 1-device compiled engine")
EOF
else
  echo "  (python3 not found; skipping bench_vm/bench_kernels/bench_serve/bench_dist smoke)"
fi

echo "check.sh: all green"
