#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload curate --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, Go's own config and temp files, the
# binary, and the run's stores and artifacts.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/gocache"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
