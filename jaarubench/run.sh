#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash jaarubench/run.sh --workload insert-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary, span dumps) stays under .bench_build at the repository root, and
# the toolchain is kept offline: the benchmark has no dependencies beyond
# the repository itself and the standard library.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-mod=readonly

(cd "$root/jaarubench" && go build -o "$out/jaarubench" .)
cd "$root"
exec "$out/jaarubench" "$@"
