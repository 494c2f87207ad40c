#!/usr/bin/env bash
# Allocation-regression smoke: run the allocation-sensitive benchmarks
# once (-benchtime=1x -benchmem) and fail if any reports more
# allocs/op than its pinned budget. ns/op at 1x is meaningless noise —
# only the allocation counts are checked, and those are deterministic,
# so this gate is cheap enough for every CI run.
#
# The budgets below, and why each holds, are documented in DESIGN.md's
# "Pinned allocation budgets" table; TestAllocBudgetsMatchDesign fails
# when the two drift apart.
set -euo pipefail
cd "$(dirname "$0")/.."

budgets="
BenchmarkGateRoute 0
BenchmarkE4M3Quantize 0
BenchmarkServeEngine 6
BenchmarkServeEngineTiered 10
BenchmarkServeEngineTraced 20
BenchmarkServeEngineHazard 8
BenchmarkServeFleet 12
BenchmarkEventQueue/heap/n=100000 0
BenchmarkEventQueue/heap/n=1000000 0
"

pattern="$(awk 'NF && $1 !~ /\// { printf "%s%s", sep, $1; sep = "|" }' <<<"$budgets")"
out="$(go test -run=NONE -bench="^(${pattern})\$" -benchmem -benchtime=1x .
       go test -run=NONE -bench='^BenchmarkEventQueue$' -benchmem -benchtime=1x ./internal/servesim)"
echo "$out"

status=0
while read -r name budget; do
  [ -z "$name" ] && continue
  allocs="$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" {
    for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
  }' <<<"$out")"
  if [ -z "$allocs" ]; then
    echo "FAIL: $name did not run (pattern or -benchmem problem)" >&2
    status=1
    continue
  fi
  if [ "$allocs" -gt "$budget" ]; then
    echo "FAIL: $name reports $allocs allocs/op, budget is $budget" >&2
    status=1
  else
    echo "OK: $name $allocs allocs/op (budget $budget)"
  fi
done <<<"$budgets"

exit "$status"
