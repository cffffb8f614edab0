#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping the Go build cache,
# the Go tool's own state and the binary under .bench_build/ in the current
# directory, which must be the repository root.
#
#   bash perfbench/run.sh --workload shared-stream --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
