#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload cycle-stale --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout:
# the Go build cache, the binary, the cached archive fixtures and each
# run's scratch stores.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" -work "$build/perfbench" "$@"
