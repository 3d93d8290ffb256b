#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hpc-ckpt --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go caches stay under .bench_build/ in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/blob ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
