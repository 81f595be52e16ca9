#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from this
# checkout's sources with every build artefact kept inside the checkout
# (.bench_build/), then hands over to it; the harness builds cmd/pipd the
# same way. Fails before printing anything when the repository's sources
# are not around it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/pipbench" .
exec "$build/pipbench" -src "$here" -build "$build" "$@"
