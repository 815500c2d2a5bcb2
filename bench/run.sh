#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build (Go build cache and
# temp files included, so nothing is written outside the checkout) and runs
# it from the checkout root. Fails before printing anything when the rest
# of the repository is missing: the benchmark imports ccift/internal/....
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/bin/ccift-bench" .)
cd "$root"
exec "$build/bin/ccift-bench" "$@"
