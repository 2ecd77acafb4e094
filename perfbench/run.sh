#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it; all
# arguments pass through (-workload NAME -seed N -seconds S -trace 0|1).
# Everything it writes stays under .bench_build/ in the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
# Keep the go command's scratch space and telemetry counters in the checkout too.
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
