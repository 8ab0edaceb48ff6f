#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it.
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every build and run artefact stays under
# the current directory: the Go build cache and module cache live in
# .bench_build/, run scratch in .bench_work/, traces and profiles in
# .bench_out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/main.go" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (need perfbench/ and go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
