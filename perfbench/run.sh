#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 28 --trace 0
#
# Run it from the repository root. The Go build cache, the build's
# temporary files and the binary live under .bench_build, so nothing is
# written outside the checkout, and the build needs no network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C perfbench -buildvcs=false -o "$build/perfbench" .

# The collector's settings are part of what is measured: pin them.
exec env -u GOMEMLIMIT -u GODEBUG GOGC=100 "$build/perfbench" "$@"
