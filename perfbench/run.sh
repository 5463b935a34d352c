#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build product (binary, Go build
# cache, temporary files) stays under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
