#!/usr/bin/env bash
# Allocation-regression smoke: run the allocation-sensitive benchmarks
# once (-benchtime=1x -benchmem) and fail if any reports more
# allocs/op than its pinned budget. ns/op at 1x is meaningless noise —
# only the allocation counts are checked, and those are deterministic,
# so this gate is cheap enough for every CI run.
#
# Budgets (see DESIGN.md "Performance engineering"):
#   BenchmarkGateRoute     0  — MoE routing hot path, fully scratch-backed
#   BenchmarkE4M3Quantize  0  — FP8 quantization kernel, in-place
#   BenchmarkServeEngine   6  — one serving run on a warm engine:
#                               the Report + its Timeline copy + the
#                               workload RNG/stepper closures
#   BenchmarkServeEngineTiered 10 — the same run with KV tiers, sessions
#                               and the prefix cache live; the extra
#                               allocs are the multi-turn generator's
#                               stable sort, not the tier machinery
#   BenchmarkServeEngineTraced 20 — the tiered+faulted run with the trace
#                               recorder and metrics registry attached;
#                               a warm recorder appends into reused
#                               buffers, so the overhead is O(1) per run
#                               (the per-tier metric-name strings), not
#                               per event
#   BenchmarkServeEngineHazard 8 — the run with the cross-layer hazard
#                               stack live (plane derate, SDC +
#                               Freivalds verify, EWMA gray-failure
#                               detection, p95-tracked hedging,
#                               retries); hazard state is engine-owned
#                               and recycled, so the overhead over the
#                               clean engine is the hazard plan's
#                               per-run RNG plus the hedge tracker
#   BenchmarkServeFleet    12 — the 1000-instance run on a warm engine:
#                               the 6 of BenchmarkServeEngine plus the
#                               two power-of-two routers built per run
#                               (each router and its seeded RNG)
#   BenchmarkEventQueue/*  0  — a steady-state hold op (pop + push) on
#                               the event heap touches only retained
#                               heap storage
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
