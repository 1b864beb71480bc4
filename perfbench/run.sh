#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wc-sat --seed 1 --seconds 15 --trace 0
#
# Build outputs (binary, Go build cache) go to $CARGO_TARGET_DIR if set,
# else .bench_build, relative to the root; nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# The go command keeps its telemetry counters under the user config dir.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$build/config" go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
