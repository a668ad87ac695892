#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments. Run from anywhere; every build artifact (Go build cache,
# temp dirs, the binary) stays under .bench_build/ at the repository root.
#
#   bash benchmark/run.sh -seed 42                      # all workloads
#   bash benchmark/run.sh --workload kv-read --seed 7 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"

# Offline, hermetic toolchain settings: no module downloads, no toolchain
# switch, no workspace or user config leaking in, no git calls to stamp
# the binary.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/benchmark" && go build -o "$build/pipeline-bench" .)
exec "$build/pipeline-bench" "$@"
