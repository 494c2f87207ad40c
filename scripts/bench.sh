#!/usr/bin/env bash
# Benchmark snapshot: runs the microbenchmark suite (-benchmem) and the
# end-to-end dsv3bench wall clock (suite totals plus per-experiment
# wall time of the serial run), and emits BENCH_<date>[_label].json
# so the performance trajectory is trackable across PRs.
#
# Usage:
#   scripts/bench.sh                  # BENCH_<date>.json
#   scripts/bench.sh -label before    # BENCH_<date>_before.json
#   BENCHTIME=1s scripts/bench.sh     # heavier, steadier numbers
set -euo pipefail
cd "$(dirname "$0")/.."

label=""
while [ $# -gt 0 ]; do
  case "$1" in
    -label) label="$2"; shift 2 ;;
    *) echo "usage: $0 [-label name]" >&2; exit 1 ;;
  esac
done

benchtime="${BENCHTIME:-5x}"
date_tag="$(date +%Y-%m-%d)"
out="BENCH_${date_tag}${label:+_$label}.json"

echo "running microbenchmarks (benchtime=$benchtime)..." >&2
bench_raw="$(go test -run=NONE -bench=. -benchmem -benchtime="$benchtime" . ./internal/experiments ./internal/servesim)"

echo "timing dsv3bench suite..." >&2
go build -o /tmp/dsv3bench-snapshot ./cmd/dsv3bench
t0="$(date +%s.%N)"
/tmp/dsv3bench-snapshot >/dev/null 2>&1
t1="$(date +%s.%N)"
suite_parallel="$(echo "$t1 $t0" | awk '{printf "%.3f", $1-$2}')"
t0="$(date +%s.%N)"
serial_err="$(/tmp/dsv3bench-snapshot -parallel=false 2>&1 >/dev/null)"
t1="$(date +%s.%N)"
suite_serial="$(echo "$t1 $t0" | awk '{printf "%.3f", $1-$2}')"
# Per-experiment wall time from the serial run's stderr table
# ("<name> <ms>ms" rows after the "--- wall time" header). One JSON
# object on one line: bench_compare.sh's "name": parser must not see it.
experiment_wall="$(awk '
  /^--- wall time/ { on=1; next }
  on && NF == 2 && $1 != "total" {
    ms=$2; sub(/ms$/, "", ms)
    printf "%s\"%s\": %s", sep, $1, ms; sep=", "
  }' <<<"$serial_err")"

{
  printf '{\n'
  printf '  "label": "%s",\n' "${label:-snapshot}"
  printf '  "date": "%s",\n' "$date_tag"
  printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
  printf '  "cpus": %s,\n' "$(nproc)"
  printf '  "suite_wall_seconds_parallel": %s,\n' "$suite_parallel"
  printf '  "suite_wall_seconds_serial": %s,\n' "$suite_serial"
  printf '  "experiment_wall_ms": {%s},\n' "$experiment_wall"
  printf '  "benchmarks": [\n'
  echo "$bench_raw" | awk '
    /^Benchmark/ {
      name=$1; sub(/-[0-9]+$/, "", name)
      ns=""; bytes=""; allocs=""
      for (i=2; i<=NF; i++) {
        if ($i == "ns/op") ns=$(i-1)
        if ($i == "B/op") bytes=$(i-1)
        if ($i == "allocs/op") allocs=$(i-1)
      }
      if (ns == "") next
      if (n++) printf ",\n"
      printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (bytes==""?"null":bytes), (allocs==""?"null":allocs)
    }
    END { printf "\n" }'
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out" >&2
