#!/usr/bin/env bash
# Builds phibench from source into .bench_build/ (run from the repository
# root) and runs it with the given arguments. Every file the toolchain
# writes — build cache, module cache, telemetry — stays inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C bench -o "$build/phibench" ./phibench
exec "$build/phibench" "$@"
