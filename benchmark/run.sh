#!/bin/sh
# Builds the benchmark from source and runs it, from the root of a
# checkout: sh benchmark/run.sh --workload cad-tick --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build: the binary, the Go build cache, the toolchain's temporary
# and configuration files, the journal segments and the trace files.
set -eu
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here: run from the root of a checkout that holds the pwsr module" >&2
	exit 1
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
# With a fresh configuration directory the go command is in telemetry mode
# "local" and starts a detached child of itself to rotate counter files,
# which can outlive this script. Mode "off" starts no such process, so the
# only processes of a run are go build (which waits for its compilers) and
# then the benchmark binary, which starts none.
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/pwsr-benchmark" ./benchmark
exec "$build/pwsr-benchmark" "$@"
