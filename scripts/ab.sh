#!/usr/bin/env bash
# A/B comparison of two trees that survives code layout.
#
#   scripts/ab.sh PARENT CHANGE [WORKLOAD]
#
# PARENT and CHANGE are git revisions of this repository or source
# directories (a directory is copied without its _build and .git).
# WORKLOAD is a bench/e2e workload, compile_corpus by default.
#
# Each side is built in K = 3 layout variants, each in its own copy
# under a temporary directory.  Variant 0 is the tree as it is.
# Variant i > 0 adds to lib/codegen one generated module of i*N
# functions (N = 60) that nothing calls, and links lib/codegen whole
# (-linkall) so the module is in the binary.  Variants 1 and 2 differ
# only in the amount of padding; variant 0 also differs from them in
# not linking lib/codegen whole.
#
# Then 3 rounds run `bench/e2e/run.sh --workload WORKLOAD --seconds 8
# --trace 0` once in every one of the 2K copies, alternating parent and
# change within each variant, seeds 1..3 in turn.  Every run must end
# with the benchmark's result line, report `"correct": true` and give
# every end-to-end metric; otherwise the script stops with an error and
# reports nothing, so a failed build, a failed op or a missing metric
# cannot pass for a measurement.
#
# For each end-to-end metric the report gives each side's median over
# all its runs and the range of its per-variant medians, then each
# side's ops attempted and failed.  A change's gain is layout-proof when
# its median lies outside the parent's across-variant range; a miss is
# layout's only when the parent's own range covers it.
#
# Nothing in the repository is edited: the padding goes into the copies
# only.  The copies are removed at exit; set TMPDIR to choose where
# they go.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  sed -n '4p' "$0" | sed 's/^# *//' >&2
  exit 2
fi
parent=$1
change=$2
workload=${3:-compile_corpus}
k=3
rounds=3
seconds=8
per_variant=60
metrics="ops_per_s latency_p50_ms latency_p99_ms setup_s peak_rss_mb"

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

# Copy a revision or a directory into $2.
checkout() {
  mkdir -p "$2"
  if [ -d "$1" ]; then
    tar -C "$1" --exclude=./_build --exclude=./.git -cf - . | tar -x -C "$2"
  else
    git -C "$repo" archive "$1" | tar -x -C "$2"
  fi
}

# Variant $2 > 0 of a copy: a module of $2*N unused functions, and
# lib/codegen linked whole so the module is in every binary.
pad() {
  local dir=$1 n=$(( $2 * per_variant )) i
  [ "$n" -eq 0 ] && return 0
  {
    echo "(* Layout padding for scripts/ab.sh: nothing calls these. *)"
    for ((i = 0; i < n; i++)); do
      echo "let pad_$i x = (x * $((i + 3))) lxor (x lsr $((i % 7 + 1))) + $i"
    done
  } > "$dir/lib/codegen/ab_layout_pad.ml"
  sed -i 's/^ (name ft_codegen)$/ (name ft_codegen)\n (library_flags (:standard -linkall))/' \
    "$dir/lib/codegen/dune"
  grep -q linkall "$dir/lib/codegen/dune" || {
    echo "ab.sh: could not link the padding into $dir/lib/codegen" >&2
    exit 1
  }
}

# The value of field $1 in the result line $2.
field() {
  { printf '%s\n' "$2" | grep -o "\"$1\": *[-0-9.eE+a-z]*" || true; } \
    | head -n 1 | sed 's/^.*: *//'
}

sides="parent change"
for side in $sides; do
  src=$parent
  [ "$side" = change ] && src=$change
  for ((v = 0; v < k; v++)); do
    dir="$work/$side.$v"
    checkout "$src" "$dir"
    pad "$dir" "$v"
    echo "building $side variant $v ($((v * per_variant)) padding functions)" >&2
    (cd "$dir" && DUNE_CACHE=disabled dune build --root . --display quiet \
       ./bench/e2e/main.exe)
  done
done

# One row per run: side variant round attempted failed metric=value...
runs="$work/runs.txt"
: > "$runs"
for ((r = 0; r < rounds; r++)); do
  seed=$(( r % 3 + 1 ))
  for ((v = 0; v < k; v++)); do
    order=$sides
    (( (r + v) % 2 == 1 )) && order="change parent"
    for side in $order; do
      line=$(cd "$work/$side.$v" && bash bench/e2e/run.sh --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 --out "$work/out.json" \
        2> "$work/err.txt" | tail -n 1) || true
      what="$side variant $v round $r (seed $seed)"
      correct=$(field correct "$line")
      attempted=$(field attempted "$line")
      failed=$(field failed "$line")
      if [ -z "$correct" ] || [ -z "$attempted" ] || [ -z "$failed" ]; then
        echo "ab.sh: $what ended without a result line:" >&2
        tail -n 20 "$work/err.txt" >&2
        exit 1
      fi
      if [ "$correct" != true ]; then
        echo "ab.sh: $what is not correct: $failed of $attempted ops failed" >&2
        exit 1
      fi
      row="$side $v $r $attempted $failed"
      for m in $metrics; do
        val=$(printf '%s\n' "$line" \
          | grep -o "\"$m\": *{\"value\": *[-0-9.eE+]*" | grep -o '[-0-9.eE+]*$' || true)
        if [ -z "$val" ]; then
          echo "ab.sh: $what gives no value for $m" >&2
          exit 1
        fi
        row="$row $m=$val"
      done
      echo "$row" | tee -a "$runs" >&2
    done
  done
done

# median of the numbers on stdin
median() {
  sort -g | awk '{ a[NR] = $1 } END {
    if (NR % 2) print a[(NR + 1) / 2]; else print (a[NR / 2] + a[NR / 2 + 1]) / 2 }'
}

# values of metric $2 for side $1 (and variant $3 when given)
values() {
  awk -v s="$1" -v m="$2" -v v="${3:-}" '$1 == s && (v == "" || $2 == v) {
    for (i = 6; i <= NF; i++) { split($i, kv, "="); if (kv[1] == m) print kv[2] } }' "$runs"
}

echo
echo "ab.sh: $workload, parent=$parent change=$change, $k variants x $rounds rounds, ${seconds}s runs"
printf '%-16s %12s %25s %12s %25s %9s\n' metric parent "parent variant range" change \
  "change variant range" delta
for m in $metrics; do
  cells=""
  for side in $sides; do
    med=$(values "$side" "$m" | median)
    per=$(for ((v = 0; v < k; v++)); do values "$side" "$m" "$v" | median; done | sort -g)
    cells="$cells $med $(echo "$per" | head -n 1) $(echo "$per" | tail -n 1)"
  done
  echo "$m $cells" | awk '{
    d = ($2 == 0) ? 0 : 100 * ($5 - $2) / $2
    outside = ($5 < $3 || $5 > $4) ? "" : "  (inside the parent range)"
    printf "%-16s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %+8.1f%%%s\n",
      $1, $2, $3, $4, $5, $6, $7, d, outside }'
done
for side in $sides; do
  awk -v s="$side" '$1 == s { a += $4; f += $5 } END {
    printf "%-7s ops attempted %d, failed %d\n", s, a, f }' "$runs"
done
