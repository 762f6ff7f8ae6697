#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/
# (compiler cache and the go command's telemetry counters included, so
# nothing is written outside the checkout) and runs it from bench/,
# passing every argument through.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/hvdb-bench" .
exec "$build/hvdb-bench" "$@"
