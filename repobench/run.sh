#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#   bash repobench/run.sh --workload pb-full --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes (build cache, module cache, config and
# telemetry files) stays inside the checkout, and nothing is fetched.
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/repobench" .)
exec "$build/repobench" --dir "$here" "$@"
