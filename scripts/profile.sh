#!/usr/bin/env bash
# Profile snapshot: captures CPU and allocation profiles for the
# fleet-scale serving benchmark (BenchmarkServeFleet — the 1000-instance
# run) and prints the top entries of each.
#
# Usage:
#   scripts/profile.sh                       # profile BenchmarkServeFleet
#   scripts/profile.sh -bench BenchmarkServeEngine
#   scripts/profile.sh -dir /tmp/prof        # keep profiles somewhere else
#   COUNT=5 scripts/profile.sh               # more iterations, steadier profile
#
# The profiles land in <dir>/{cpu,mem}.pprof next to the test binary
# (<dir>/bench.test), ready for interactive drill-down:
#   go tool pprof <dir>/bench.test <dir>/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

bench="BenchmarkServeFleet"
dir="profiles"
while [ $# -gt 0 ]; do
  case "$1" in
    -bench) bench="$2"; shift 2 ;;
    -dir) dir="$2"; shift 2 ;;
    *) echo "usage: $0 [-bench name] [-dir path]" >&2; exit 1 ;;
  esac
done
count="${COUNT:-3}"
mkdir -p "$dir"

echo "profiling ${bench} (${count} iterations)..." >&2
go test -run=NONE -bench="^${bench}\$" -benchtime="${count}x" \
  -cpuprofile "$dir/cpu.pprof" -memprofile "$dir/mem.pprof" \
  -o "$dir/bench.test" .

echo
echo "=== CPU (top 15) ==="
go tool pprof -top -nodecount=15 "$dir/bench.test" "$dir/cpu.pprof" | tail -n +8
echo
echo "=== Allocations (top 10, alloc_space) ==="
go tool pprof -top -nodecount=10 -sample_index=alloc_space "$dir/bench.test" "$dir/mem.pprof" | tail -n +8
echo
echo "profiles written to $dir/{cpu,mem}.pprof (binary: $dir/bench.test)" >&2
