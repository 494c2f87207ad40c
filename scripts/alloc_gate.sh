#!/usr/bin/env bash
# Allocation-regression smoke: run the allocation-sensitive benchmarks
# three times each (-benchtime=1x -count=3 -benchmem) and fail if the
# lowest allocs/op a benchmark reports exceeds its pinned budget, or,
# for a row with a third column, the lowest B/op exceeds that byte
# budget. ns/op at 1x is meaningless noise — only the allocation figures
# are checked. Those are a process-wide MemStats delta, so a stray
# allocation from another goroutine (the runtime, the test framework)
# can be charged to one run; it only ever adds, so the minimum never
# reads below the true figure, while a real regression shows in every
# run. The gate is cheap enough for every CI run.
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
BenchmarkServeFleetWide 12
BenchmarkServeFleetCold 3150 7500000
BenchmarkEventQueue/heap/n=100000 0
BenchmarkEventQueue/heap/n=1000000 0
BenchmarkAllToAll128Cold 18500 11000000
"

pattern="$(awk 'NF && $1 !~ /\// { printf "%s%s", sep, $1; sep = "|" }' <<<"$budgets")"
out="$(go test -run=NONE -bench="^(${pattern})\$" -benchmem -benchtime=1x -count=3 .
       go test -run=NONE -bench='^BenchmarkEventQueue$' -benchmem -benchtime=1x -count=3 ./internal/servesim)"
echo "$out"

status=0
# lowest <unit> reading of the named benchmark across its runs
lowest() {
  awk -v n="$1" -v u="$2" '$1 ~ "^"n"(-[0-9]+)?$" {
    for (i = 2; i <= NF; i++) if ($i == u && (min == "" || $(i-1) < min)) min = $(i-1)
  } END { print min }' <<<"$out"
}

while read -r name budget bytes; do
  [ -z "$name" ] && continue
  allocs="$(lowest "$name" allocs/op)"
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
  [ -z "$bytes" ] && continue
  used="$(lowest "$name" B/op)"
  if [ "$used" -gt "$bytes" ]; then
    echo "FAIL: $name reports $used B/op, budget is $bytes" >&2
    status=1
  else
    echo "OK: $name $used B/op (budget $bytes)"
  fi
done <<<"$budgets"

exit "$status"
