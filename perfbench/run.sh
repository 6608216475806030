#!/usr/bin/env bash
# Builds covserve and the benchmark from this checkout, then runs one
# benchmark invocation. Run from the checkout root:
#
#   bash perfbench/run.sh --workload probe-read --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off

# The benchmark is its own module (perfbench/go.mod) that builds
# against this checkout's code through a replace directive.
(cd perfbench && go build -o "$out/covserve" coverage/cmd/covserve && go build -o "$out/perfbench" .)

exec "$out/perfbench" --covserve "$out/covserve" --work "$out/work" "$@"
