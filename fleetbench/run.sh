#!/usr/bin/env bash
# Builds fleetbench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash fleetbench/run.sh --workload range-mix --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, durable shard data and run records all
# stay under .bench_build/ in the working directory; the build is
# offline and uses the installed Go toolchain.
set -euo pipefail
build="$PWD/.bench_build/fleetbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd fleetbench && go build -o "$build/fleetbench" .)
exec "$build/fleetbench" "$@"
