#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (go build is a no-op when nothing changed) and runs it with the
# caller's arguments. Every file the toolchain writes stays inside the
# checkout: the build cache is redirected there too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/go-cache GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -o "$out/perfscale-benchmark" . >&2
exec "$out/perfscale-benchmark" "$@"
