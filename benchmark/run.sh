#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/.build/ (nothing is
# written outside the checkout, the Go build cache included) and runs it
# from the root of the checkout with the arguments given. BENCHMARK.json's
# command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/graphct-benchmark" .
cd "$here/.."
exec "$build/graphct-benchmark" "$@"
