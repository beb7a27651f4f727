#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout; every argument is passed through to the benchmark binary:
#
#   bash benchmark/run.sh --workload serve-steady --seed 1 --seconds 15 --trace 0
#
# All build state (the Go build cache, temporary files, the Go tool's own
# config directory and the binary) stays under .bench_build/ in the checkout,
# and the build never touches the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the root of a repository checkout (go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

(cd "$root/benchmark" && go build -o "$build/soda-benchmark" .)
exec "$build/soda-benchmark" -spec "$root/BENCHMARK.json" "$@"
