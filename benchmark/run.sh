#!/usr/bin/env bash
# Builds the benchmark harness and the three binaries it drives from the
# sources of this checkout, then runs the harness with the arguments
# given (see README.md). Everything the Go tool writes - binaries, build
# cache, its own bookkeeping - lands under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With telemetry in its default mode the go command leaves a child of
# itself behind (the once-a-day report builder) whenever its config
# directory is fresh, as this one is in every new checkout; the child
# outlives the run. Mode "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/" ./benchmark ./cmd/emigre-gen ./cmd/emigre-server ./cmd/emigre-router
exec "$build/bin/benchmark" "$@"
