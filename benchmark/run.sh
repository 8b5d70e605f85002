#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark inside the checkout and runs
# it with the arguments given (--workload W --seed N --seconds S --trace 0|1).
# `go run ./benchmark` does the same for a person at a terminal; this wrapper
# exists because the driver's checkout must be left as the only place written
# to, so the build cache, the temporary files and go's own home go under
# .bench_build/ instead of $HOME and /tmp.
set -euo pipefail
build="$PWD/.bench_build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry" "$build/tmp"
# With a config directory it has not seen before, the go command starts a
# detached copy of itself to sort its telemetry counters, and that copy
# outlives the build (and a build that fails at once, as in a directory
# without go.mod). Mode "off" is the one setting in which it starts nothing.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
