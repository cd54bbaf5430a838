#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into bench/out/.build/ (bench/.gitignore ignores bench/out/; the dot
# keeps the directory out of ./... patterns) and runs it with the
# driver's arguments from the root of a checkout. Everything
# the Go toolchain writes — build cache, temporary files, configuration —
# is kept there too, so nothing is written outside the checkout.
#
# No process outlives this script. The go command's only detached child
# is its telemetry sidecar, which it starts when the telemetry directory
# is new (as it is in a fresh checkout) and does not wait for; the mode
# file written below turns telemetry off, so the sidecar is never
# started. Outside a checkout (no go.mod) the script exits non-zero
# before it starts anything, without printing a result.
set -euo pipefail
if [[ ! -f go.mod || ! -f bench/main.go ]]; then
	echo "bench/run.sh: run from the root of a checkout (no go.mod here)" >&2
	exit 2
fi
build="$PWD/bench/out/.build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/evabench" ./bench
# The benchmark binary starts one child at most (git rev-parse, for the
# run header) and waits for it; exec makes the binary this process.
exec "$build/evabench" "$@"
