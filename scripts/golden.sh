#!/usr/bin/env bash
# Golden-corpus management. Two corpora pin the program's output:
#   testdata/golden                 the deterministic quick-mode output
#                                   of every experiment in all three
#                                   emitter formats (json, csv, text);
#   cmd/dsv3serve/testdata/golden   one file per dsv3serve case listed in
#                                   cmd/dsv3serve/testdata/cases.txt:
#                                   exit status, stdout, stderr and the
#                                   sha256 of every file the case writes.
# CI and the in-process golden tests diff freshly generated output
# against them, so any change to the numbers, the emitters or the CLI
# must be accompanied by a regeneration.
#
# Usage:
#   scripts/golden.sh           # regenerate both corpora in place
#   scripts/golden.sh -check    # regenerate into a temp dir and diff;
#                               # non-zero exit + per-file diff on drift
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
bench_golden=testdata/golden
serve_golden=cmd/dsv3serve/testdata/golden
serve_cases=cmd/dsv3serve/testdata/cases.txt
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

generate_bench() {
  local dir="$1" bin="$work/dsv3bench"
  go build -o "$bin" ./cmd/dsv3bench
  for fmt in json csv text; do
    "$bin" -quick -deterministic -format "$fmt" -out "$dir" 2>/dev/null
  done
}

# generate_serve runs every case from cmd/dsv3serve (so relative paths
# such as testdata/trace.csv resolve) in the record format main_test.go
# builds in process.
generate_serve() {
  local dir bin="$work/dsv3serve" name args scratch out="$work/stdout" err="$work/stderr" code
  dir="$(realpath -m "$1")"
  mkdir -p "$dir"
  go build -o "$bin" ./cmd/dsv3serve
  set -f # case arguments are never globs
  while read -r name args; do
    case "$name" in "" | "#"*) continue ;; esac
    scratch="$(mktemp -d -p "$work")"
    code=0
    # shellcheck disable=SC2086 # args split on whitespace by design
    (cd cmd/dsv3serve && "$bin" -deterministic ${args//\{tmp\}/$scratch}) >"$out" 2>"$err" || code=$?
    {
      printf 'exit %d\n--- stdout\n' "$code"
      cat "$out"
      printf -- '--- stderr\n'
      cat "$err"
      printf -- '--- files\n'
      (cd "$scratch" && find . -type f | sed 's|^\./||' | LC_ALL=C sort | while read -r f; do
        printf '%s  %s\n' "$(sha256sum "$f" | cut -d' ' -f1)" "$f"
      done)
    } >"$dir/$name.golden"
    rm -rf "$scratch"
  done <"$serve_cases"
  set +f
}

# check diffs a regenerated corpus against the checked-in one,
# reporting every drifted, missing or untracked file.
check() {
  local golden="$1" fresh="$2" status=0 f b
  for f in "$golden"/*; do
    b="$(basename "$f")"
    if [ ! -f "$fresh/$b" ]; then
      echo "golden: $golden/$b missing from regenerated output" >&2
      status=1
    elif ! diff -u "$f" "$fresh/$b" >&2; then
      echo "golden: $golden/$b drifted (regenerate with scripts/golden.sh)" >&2
      status=1
    fi
  done
  for f in "$fresh"/*; do
    b="$(basename "$f")"
    if [ ! -f "$golden/$b" ]; then
      echo "golden: $golden/$b generated but not checked in (run scripts/golden.sh)" >&2
      status=1
    fi
  done
  if [ "$status" -eq 0 ]; then
    echo "golden corpus $golden clean ($(ls "$golden" | wc -l) files)" >&2
  fi
  return "$status"
}

case "$mode" in
  "")
    rm -rf "$bench_golden" "$serve_golden"
    generate_bench "$bench_golden"
    generate_serve "$serve_golden"
    echo "regenerated $bench_golden ($(ls "$bench_golden" | wc -l) files)" >&2
    echo "regenerated $serve_golden ($(ls "$serve_golden" | wc -l) files)" >&2
    ;;
  -check)
    generate_bench "$work/bench"
    generate_serve "$work/serve"
    status=0
    check "$bench_golden" "$work/bench" || status=1
    check "$serve_golden" "$work/serve" || status=1
    exit "$status"
    ;;
  *)
    echo "usage: $0 [-check]" >&2
    exit 2
    ;;
esac
