#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. The Go build cache, the (empty) module cache,
# the linker's temporary files and the binary all stay under .bench_build/ in
# the checkout, so a run writes nothing outside it. `go run ./bench <flags>`
# does the same with the toolchain's usual cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
