#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, GOPATH, telemetry,
# temporaries) and the benchmark's span files stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d testdata/golden ]]; then
  echo "perfbench: run from the repository root (go.mod, internal/ and testdata/golden/ not found)" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
