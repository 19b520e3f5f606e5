#!/usr/bin/env bash
# Builds the benchmark from source and runs it. The build cache and the
# binary stay inside the checkout (.bench_build/), so a run reads and
# writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/journeys" .
exec "$build/journeys" "$@"
