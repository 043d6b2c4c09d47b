#!/usr/bin/env bash
# Builds hpcexportd, hpcexportgw and the benchmark from the checkout's
# source, then runs the benchmark with the given arguments. Run it from
# the root of the repository:
#
#   bash perfbench/run.sh --workload get_hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --repeat 10
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hpcexportd" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/hpcexportd here)" >&2
	exit 1
fi
build="$root/.bench_build"
# The go command's caches, and the telemetry counters it keeps under the
# user config directory, all go under .bench_build too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$build/bin"
# go install rewrites a binary only when its sources changed, so a run
# does not start while the kernel writes back freshly linked binaries.
export GOBIN="$build/bin"
go install ./cmd/hpcexportd ./cmd/hpcexportgw
go -C perfbench install .
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
