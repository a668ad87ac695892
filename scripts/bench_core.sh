#!/bin/sh
# bench_core.sh runs the hot-path microbenchmarks (simulator feed,
# all-model replay, trace emit and replay, graph build and critical
# path, KV trace production, a fresh simulator's table footprint on a
# KV trace and the four-model walk of one, one Table 1 cell streamed
# from exec into a one-lane simulator, persistcheck and exhaustive
# checking) and
# writes BENCH_core.json with ns/op, B/op, and allocs/op per benchmark.
#
# Usage: scripts/bench_core.sh [benchtime] [count] > BENCH_core.json
# benchtime defaults to 100x; CI uses 1x for a smoke pass. A count > 1
# repeats every benchmark (go test -count), leaving repeated names in
# the JSON — benchdiff groups those into per-iteration samples and can
# then apply its Mann-Whitney noise gate instead of thresholds alone.
#
# Each benchmark's first iteration runs cold (page faults, branch
# predictors, the process's first large allocations) and lands far off
# the steady-state distribution, skewing means and tripping the noise
# gate. One extra warmup iteration per benchmark runs and is
# discarded, so the JSON holds exactly `count` steady-state samples
# per name.
#
# BenchmarkGraphBuildKVWrites/epoch builds a 2048-op write-only KV graph
# of about 189M edges in roughly a second, so at 100x and count 5 the
# graph package alone runs past go test's default 10-minute timeout;
# the timeout is raised to an hour. The packages run one at a time
# (-p 1): side by side, that benchmark once slowed a 1x sample of
# BenchmarkSimFeed/epoch sixfold.
set -e
benchtime="${1:-100x}"
count="${2:-1}"
cd "$(dirname "$0")/.."

go test -p 1 -run '^$' -timeout 60m -benchmem -benchtime "$benchtime" -count $((count + 1)) \
    -bench 'BenchmarkSimFeed|BenchmarkSimulateAll|BenchmarkTraceReplay|BenchmarkTraceEmit|BenchmarkGraphBuild|BenchmarkCriticalPathKV|BenchmarkBuildKV|BenchmarkSimTablesKV|BenchmarkSimulateAllKV|BenchmarkStreamTable1Cell|BenchmarkPersistcheckKV|BenchmarkExhaustiveCheck' \
    ./internal/core ./internal/trace ./internal/graph ./internal/workload ./internal/bench ./internal/persistcheck ./internal/persistcheck/exhaustive |
awk -v benchtime="$benchtime" '
BEGIN {
    printf "{\n  \"suite\": \"core-microbench\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", benchtime
    n = 0
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; next } # discard warmup sample
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { printf "\n  ]\n}\n" }
'
