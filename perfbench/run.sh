#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build): the Go build cache, the binary, scratch files and traces.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" --tracedir "$build/traces" "$@"
