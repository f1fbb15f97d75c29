#!/usr/bin/env bash
# What BENCHMARK.json's command runs: build the driver once, then run it.
# `go run ./bench` does the same for a person at a shell; this wrapper keeps
# the build cache, the build's temporary files and the binary inside the
# checkout (.bench_build/, git-ignored), because a benchmark run may read and
# write nowhere else. The first run in a checkout compiles the standard
# library into the fresh cache (about a minute); later runs find everything
# built.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
go build -o "$build/gavel-bench" ./bench
exec "$build/gavel-bench" "$@"
