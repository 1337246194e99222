#!/usr/bin/env bash
# Entry point for the benchmark driver: build the bench binary from source
# into the checkout's .bench_build, then run it with the driver's flags.
# Nothing is read or written outside the checkout: the Go build and module
# caches are placed there too, and no user-level Go configuration is used.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/eslbench" .)
cd "$root"
exec "$build/eslbench" "$@"
