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
# One disk layer: plans and tuned configs persist through Disk_store,
# and whoever wants a tuned config looks it up and passes it — no
# ambient tune-source hook, no never-applied collapse flag, no
# process-wide table of stateful executables.
echo "guard: no tune-source hook, collapse knob or prepared-executable table"
if grep -rnE 'set_tune_source|tuned_config_for|Tune_db\.install|tr_collapse|c_collapse|prepare_cached' \
  lib bin bench/main.ml; then
  echo "check.sh: a retired tuning or caching path crept back in" >&2
  exit 1
fi
echo "guard: cache files read and written only by Disk_store"
stray=$(grep -rnE 'Marshal\.(to|from)_channel' lib bin \
  | grep -v '^lib/runtime/disk_store\.ml:' || true)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: a second disk layer outside Disk_store" >&2
  exit 1
fi

# The pool's spin bound is a duration fixed in code, not a knob: the
# only setting Domain_pool reads is the ambient pool size.
echo "guard: Domain_pool reads no environment variable but FT_NUM_DOMAINS"
stray=$(grep -nE '\b(getenv|getenv_opt|unsafe_getenv|environment)\b' \
  lib/runtime/domain_pool.ml | grep -v '"FT_NUM_DOMAINS"' || true)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: the worker pool grew an environment knob" >&2
  exit 1
fi

# Native kernels stay under the bitwise contract: every C stub stanza
# is built without multiply-add contraction and without flags that
# tie the binary to the build host or let the compiler reassociate,
# and the reference interpreter (lib/fractal) never calls a
# destination-passing kernel, so it stays on the OCaml GEMM loops.
echo "guard: foreign_stubs keep -ffp-contract=off and no unsafe float flags"
stray=$(find lib -name dune -exec awk '
  /\(foreign_stubs/ { inside = 1; depth = 0; text = ""
                      line = substr($0, index($0, "(foreign_stubs")) }
  !/\(foreign_stubs/ { line = $0 }
  inside {
    text = text " " line
    depth += gsub(/\(/, "(", line) - gsub(/\)/, ")", line)
    if (depth <= 0) {
      if (text !~ /-ffp-contract=off/)
        print FILENAME ": foreign_stubs without -ffp-contract=off"
      if (text ~ /-march=native|-ffast-math|-Ofast|-mfma/)
        print FILENAME ": foreign_stubs with -march=native, -ffast-math, -Ofast or -mfma"
      inside = 0
    }
  }' {} +)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: a C stub may break bitwise equality with the OCaml loops" >&2
  exit 1
fi
echo "guard: lib/fractal calls no *_into kernel and no Kernels function"
if grep -nE '[A-Za-z0-9_]_into\b|\bKernels\.' lib/fractal/*.ml; then
  echo "check.sh: the reference interpreter reaches the native kernels" >&2
  exit 1
fi
# Every Tensor value the interpreter uses (Tensor.add, Tensor.softmax,
# Tensor.row_max, …) is defined in tensor.ml above the first
# `external`, so it computes only in OCaml: Tensor.Reference, not a
# native kernel.  (Its payloads come from the C allocator in
# aligned.ml, which computes no value.)
echo "guard: the Tensor values lib/fractal uses are defined above tensor.ml's first external"
tensor_ml=lib/tensor/tensor.ml
first_external=$( (grep -n '^external' "$tensor_ml" || true) | head -1 | cut -d: -f1)
stray=""
for name in $(grep -ohE 'Tensor\.[a-z_][A-Za-z0-9_]*' lib/fractal/*.ml \
    | cut -d. -f2 | sort -u); do
  line=$( (grep -nE "^let( rec)?(\[@[a-z]+\])? $name\b" "$tensor_ml" || true) \
    | head -1 | cut -d: -f1)
  if [ -z "$line" ]; then
    grep -qE "^type $name\b" "$tensor_ml" \
      || stray="$stray Tensor.$name (no top-level definition found)"
  elif [ -n "$first_external" ] && [ "$line" -gt "$first_external" ]; then
    stray="$stray Tensor.$name (line $line)"
  fi
done
if [ -n "$stray" ]; then
  echo "below line $first_external:$stray"
  echo "check.sh: an interpreter operation may reach native code" >&2
  exit 1
fi

# Alignment comes from allocation: tensors and the arena are born
# 64-byte aligned (lib/tensor/aligned.ml), so nothing keeps an aligned
# copy of an operand on the side, and no cache is keyed by a tensor's
# identity (such a copy is read stale once its source changes in place).
echo "guard: no packed GEMM copies or identity-keyed inputs in lib/ or bin/"
if grep -rnE 'pack_b|packed_b|matmul_packed_into|identity_keyed' lib bin; then
  echo "check.sh: an aligned-copy cache crept back in" >&2
  exit 1
fi

# Tuning is a simulator-only concern: the tuner searches what the device
# model prices (GEMM tile sites) under one analytical cost model, and
# no tuned config reaches the CPU engine.
echo "guard: no CPU tuning knobs or measured tuning oracle in lib/, bin/ or bench/main.ml"
if grep -rnE 'cfg_vm_chunk|cfg_fuse|with_tile|Cost_oracle\.measured|Tuner\.Measure|oracle_kind' \
    lib bin bench/main.ml; then
  echo "check.sh: a tuned knob reaches the CPU engine again" >&2
  exit 1
fi

# The tuner keeps only what can change its answer: one tile choice per
# GEMM site, searched by one deterministic coordinate descent.  The
# elementwise-chunk axis, the untouched default-tiles field and the
# seeded explorers never changed a best cost, so they stay gone
# (lib/dist's shard strategies are a different vocabulary).
echo "guard: no tuning chunk axis, default-tiles field or seeded explorer in lib/ or bin/"
stray=$( { grep -rnE '\bEvolve\b|cfg_elem_chunk|cfg_default|Search\.(strategy|Grid|Greedy)' lib bin
  grep -rn 'strategy_of_name' lib bin \
    | grep -v -e '^lib/dist/shard\.mli\?:' -e 'Shard\.strategy_of_name'; } || true)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: a tuning axis or explorer that never changed an answer crept back in" >&2
  exit 1
fi

# The compiled engine has one point loop, one storage layout (the
# liveness arena) and one output contract (the executable's own cells);
# the round-robin shard strategy and the unused pool reduction are gone
# with their tests.  Shadow memory is a values-free check of the
# schedule (Shadow.check), not a run mode of the engine: no recorder
# argument, per-point layout, shadow policy or recorder mutex, no
# reversed order, and no engine-name accessor that only said "compiled".
# A pooled front runs each claimed chunk as one range call: no
# per-point entry (cb_exec) and no per-index pool body.
echo "guard: one point loop, one storage layout, one output contract in lib/, bin/ or bench/main.ml"
if grep -rnE 'execute_borrowed|copy_outputs|shadow_exec|cb_shadow|compiled-noarena|Shard\.Pipeline|map_reduce|~arena:|FT_SHADOW|Shadow_env|Shadow_on|Shadow_off|~shadow:|\?shadow|shadow_wanted|shadow : shadow|\bcb_(dim|points|reads|writes)\b|let record sh cb|Mutex\.protect t\.m\b|Vm\.Reverse|order = [^=]*\| Reverse|oc_engine|(Executor|Session)\.engine\b|let engine (_ = "compiled"|t ~width)|\bcb_exec\b|parallel_for_workers' \
    lib bin bench/main.ml; then
  echo "check.sh: a second engine path, storage layout, output copy or shadow run mode crept back in" >&2
  exit 1
fi

# No two workers write one cache line of engine state: every array a
# worker writes per point comes from Compiled's one padded helper,
# `lanes`, which pads it past its last line.  A per-worker array made
# any other way lands next to another worker's in one size-class pool,
# and the two domains of a front then false-share it on every point.
echo "guard: per-worker arrays in the compiled engine come from its padded helper"
if grep -v '^  Array.init workers (fun _ -> Array.make (n + line_pad) x)$' \
    lib/codegen/compiled.ml | tr '\n' ' ' | tr -s ' ' \
    | grep -oE 'Array\.(init|make) workers \(( ?fun [a-z_]+ -> )?\(?(Array\.[a-z_]+|Bytes\.[a-z_]+|Tensor\.uninit )'; then
  echo "check.sh: a per-worker array of lib/codegen/compiled.ml bypasses lanes" >&2
  exit 1
fi

# A sharded run forks once per call: each device walks its own phases
# and waits only on the pulls its plan names, so no fork (and no
# barrier) sits between phases, and the per-phase fan-out flag stays
# gone.  Any pool loop in Dist_exec after a loop header in the same
# top-level definition counts as a fork inside the phase iteration.
echo "guard: Dist_exec forks once per call, never per phase"
stray=$(awk '
  /^let / { looped = 0 }
  /(^|[^a-z_])(for [a-z_]+ = |while )|(Array|List)\.(iter|iteri|fold_left|map|mapi) / { looped = 1 }
  /Domain_pool\.(parallel_for|parallel_chunks)/ && looped { print FILENAME ":" FNR ": " $0 }
  /ph_fan_out/ { print FILENAME ":" FNR ": " $0 }
' lib/dist/dist_exec.ml)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: Dist_exec forks per phase again" >&2
  exit 1
fi

# Outputs do not depend on the host's libm: exp, tanh and sigmoid are
# Tensor.Fmath's in OCaml and their transcriptions in the C stubs.
echo "guard: no libm exp or tanh in lib/"
stray=$(grep -rnE --include='*.ml' '\b(Stdlib|Float)\.(exp|tanh)\b' lib || true)
stray="$stray$(grep -rnE --include='*.c' '\b(exp|expm1|tanh)\(' lib || true)"
if [ -n "$stray" ]; then
  echo "$stray"
  echo "check.sh: an output depends on the host's libm" >&2
  exit 1
fi

# Bench gates are OCaml (bench/schema.ml), not Python: no Python
# program inline in scripts/, only the one-line JSON re-validation.
echo "guard: no inline Python in scripts/"
if grep -rnE 'python3 +-(c|$| |<)' scripts; then
  echo "check.sh: gate logic drifted back into Python" >&2
  exit 1
fi

# Serving derives every step program from the program's own fold:
# nothing in lib/serve recognizes a program by its name.
echo "guard: lib/serve compares no program name"
if grep -nE '(\.name|sv_name)\b[^;]*(=|<>|==|!=) *"|"[^"]*" *(=|<>|==|!=) *[A-Za-z_.]*(\.name|sv_name)\b|String\.(equal|compare)\b[^;]*(\.name|sv_name)\b|match [^;]*(\.name|sv_name) +with' \
  lib/serve/*.ml; then
  echo "check.sh: a servable is recognized by its program's name" >&2
  exit 1
fi

# A serving tick moves rows with plain loops into buffers kept per
# width: a bigarray sub-array view per row is a custom block, and those
# pace the major GC so much slower that peak RSS doubled on the served
# stacked RNN.
echo "guard: no Bigarray.Array1.sub in lib/serve/"
if grep -nE 'Array1\.sub\b' lib/serve/*.ml; then
  echo "check.sh: a per-row bigarray view in the serving tick" >&2
  exit 1
fi

dune build
dune runtest

# The C stubs are cloned per ISA and the loader runs only the host's
# clone, so the AVX2 and baseline clones would otherwise never run
# here.  Rebuild a copy of the tree with every stub pinned to AVX2,
# then to no target at all (the baseline), and rerun the suites that
# reach native code, with the files they read (the test-deps alias of
# test/dune).
pinned="$(mktemp -d)"
trap 'rm -rf "$pinned"' EXIT
for target in 'target("avx2")' ''; do
  echo "native stubs pinned to '${target:-baseline}'"
  rm -rf "$pinned/tree"
  mkdir "$pinned/tree"
  tar --exclude=./_build --exclude=./.git -cf - . | tar -xf - -C "$pinned/tree"
  sed -i "s/target_clones(\"avx512f\", \"avx2\", \"default\")/$target/" \
    "$pinned"/tree/lib/tensor/*.c
  if grep -n 'target_clones' "$pinned"/tree/lib/tensor/*.c; then
    echo "check.sh: a stub kept its clones; the pinned build would test the host's" >&2
    exit 1
  fi
  (cd "$pinned/tree" && dune build --root . test/test_main.exe @test/test-deps 2>&1 \
    && cd _build/default/test \
    && ./test_main.exe test 'tensor-native|tensor-aligned|fmath|kernels|compiled' \
      > /dev/null)
done
rm -rf "$pinned"
trap - EXIT

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
# order at 1/2/4 domains, the values-free shadow check of the
# schedule, with and without fusion, with tuned configs and across a
# plan-cache roundtrip; sharded over 2 and 4 devices) plus the
# metamorphic access laws.
# The text report includes the per-oracle pass counts.  Then replay
# the minimized-repro corpus — the regression programs the harness
# wrote for previously-found compiler bugs.
echo "conform (seed 42, budget 50, all oracles)"
dune exec --no-build bin/ftc.exe -- conform --seed 42 --budget 50
echo "conform: corpus replay"
dune exec --no-build bin/ftc.exe -- conform --replay test/corpus

# A second seed: its programs run through every oracle too, the
# `shadow` oracle among them — every cell access of the schedule is
# recorded per anti-chain and cross-checked against the static
# memory-effect verdicts, so a static "disjoint" that a recorded
# overlap contradicts fails the sweep.
echo "conform (seed 7, budget 25, all oracles)"
dune exec --no-build bin/ftc.exe -- conform --seed 7 --budget 25

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

# Serving: every example a step program derives from is served, and
# batched service must be bitwise-identical to solo service and to the
# reference interpreter (`ftc serve` exits 1 otherwise).  The recurrent
# examples and the attention block must be among the served.
served=""
for f in examples/programs/*.ft; do
  status=0
  out=$(dune exec --no-build bin/ftc.exe -- serve "$f" --requests 8 2>&1) || status=$?
  if grep "no step program derives" <<< "$out" > /dev/null; then
    echo "serve $f: not derivable"
    continue
  fi
  echo "serve $f"
  if [ "$status" -ne 0 ]; then
    echo "$out"
    echo "check.sh: serving $f failed" >&2
    exit 1
  fi
  grep "batched bitwise-matches solo" <<< "$out" > /dev/null
  grep "responses bitwise-match the reference interpreter" <<< "$out" > /dev/null
  served="$served $(basename "$f" .ft)"
done
for w in stacked_rnn selective_scan attention_block; do
  if ! grep -w "$w" <<< "$served" > /dev/null; then
    echo "check.sh: $w is no longer served" >&2
    exit 1
  fi
done

# Serving fuzz: generated programs whose step program derives are
# served batched and solo and checked bitwise against the interpreter.
echo "conform --oracles serve (seed 11, budget 300)"
out=$(dune exec --no-build bin/ftc.exe -- conform --seed 11 --budget 300 --oracles serve)
grep -E "^  serve +pass [1-9][0-9]* +fail 0 " <<< "$out"

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
# analytical cost model under a tiny fixed budget, validate the JSON
# report, then profile through the same FT_TUNE_DB so the stored
# config selects the simulated plan without re-searching (the report
# must name it).
FT_TUNE_DB="$(mktemp -d)"
export FT_TUNE_DB
trap 'rm -rf "$FT_PLAN_CACHE" "$FT_TUNE_DB"' EXIT
tune_target=examples/programs/ffn_block.ft
echo "tune $tune_target (budget 8)"
dune exec --no-build bin/ftc.exe -- tune "$tune_target" \
  --budget 8 --format text
if command -v python3 > /dev/null 2>&1; then
  dune exec --no-build bin/ftc.exe -- tune "$tune_target" \
    --budget 8 --format json \
    | python3 -m json.tool > /dev/null
fi
echo "profile $tune_target with the tuned config applied"
dune exec --no-build bin/ftc.exe -- profile "$tune_target" --format text \
  | grep "tuned config:"
dune exec --no-build bin/ftc.exe -- cache stats

# Bench smokes: each script writes its records to a temporary file
# (the committed BENCH files are regenerated deliberately, never by a
# check), and bench/main.exe gates its own records before it exits — one ok/FAIL
# line per row, exit 1 on any FAIL.  The floors live in bench/schema.ml
# and bench/test_schema.ml tests each one at its limit:
#   vm      the compiled wavefront engine at one domain, fused or not,
#           is never slower than the reference interpreter
#           (Interp.run_program) and stays bitwise-identical to it in
#           the interpreter's view; fused is >= 0.90x unfused (clock
#           noise on a workload with no fusible tail)
#   kernels every native GEMM row (gemm-native; gemm-bias-tanh, the
#           same GEMM with a fused epilogue) and every native
#           elementwise row (ew-*) is bitwise-equal to, and at least as
#           fast as, its OCaml reference baseline; gemm-bias-tanh keeps
#           >= 0.5x gemm-native's GFLOP/s on every shape
#   serve   batched service is bitwise-identical to solo service and
#           the open-loop p99 stays finite under deliberate overload
#           on every workload; the bounded queue sheds somewhere
#   dist    every workload is sharded across 1/2/4/8 simulated devices
#           and every row is bitwise-identical to the 1-device engine
# Only the gate lines reach this log.  Each BENCH file is re-validated
# with an independent parser, like the analyze and profile documents.
gate_lines() { grep -E '^  (ok|FAIL) '; }
validate_json() {
  if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$1" > /dev/null
  else
    echo "  (python3 not found; skipping JSON validation of $1)"
  fi
}
smokes="$(mktemp -d)"
trap 'rm -rf "$FT_PLAN_CACHE" "$FT_TUNE_DB" "$smokes"' EXIT
echo "bench_vm smoke (repeat 5, domains 1,2,4)"
scripts/bench_vm.sh 5 1,2,4 "$smokes/vm.json" | gate_lines
validate_json "$smokes/vm.json"
echo "bench_kernels smoke (repeat 5)"
scripts/bench_kernels.sh 5 "$smokes/kernels.json" | gate_lines
validate_json "$smokes/kernels.json"
echo "bench_serve smoke (repeat 3, requests 16)"
scripts/bench_serve.sh 3 16 "$smokes/serve.json" | gate_lines
validate_json "$smokes/serve.json"
echo "bench_dist smoke (devices 1,2,4,8)"
scripts/bench_dist.sh 1,2,4,8 "$smokes/dist.json" | gate_lines
validate_json "$smokes/dist.json"

echo "check.sh: all green"
