#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see e2e/main.go). Everything the Go toolchain writes (build
# cache, module cache, temporary files, telemetry counters) is kept under
# .bench_build at the root of the checkout, so a run touches nothing outside
# it and needs no network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# The benchmark is a module of its own that replaces bftfast with the
# checkout around it; in a directory without that checkout this fails.
go build -C "$here" -o "$build/e2e" ./e2e

exec "$build/e2e" "$@"
