package persistcheck_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persistcheck"
	"repro/internal/workload"
)

// BenchmarkPersistcheckKV checks the trace BenchmarkGraphBuildKV builds
// (a 1024-op, 0.9-read epoch KV run: 16 shards, 65536 keys, 32 threads,
// Zipf 1.1, seed 42) with its store's annotations. One op is a whole
// Check, graph build included; ns/event is its cost per trace event.
func BenchmarkPersistcheckKV(b *testing.B) {
	run, err := workload.Build(workload.Options{
		Workload: "kv", Policy: core.PolicyEpoch, Model: core.Epoch,
		Threads: 32, Inserts: 1024, Seed: 42,
		Shards: 16, Keys: 65536, ReadFrac: 0.9, ZipfS: 1.1,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{Model: core.Epoch}
	cfg := persistcheck.Config{SiteLabel: run.SiteLabel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The race detector draws its simulator from a sync.Pool, and
		// whether one survives from the previous op depends on GC
		// timing: single samples differed by half their bytes. Two
		// untimed collections empty the pool, so every op starts cold,
		// as a one-shot persistcheck run does.
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		if _, err := persistcheck.Check(run.Trace, p, run.Checks, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(run.Trace.Len()), "ns/event")
}

// BenchmarkPersistcheckKVGraph runs the analyses alone (CheckGraph) on
// the pipeline benchmark's kv-graph shape: a 128-op write-only KV run
// (16 shards, 65536 keys, 32 threads, Zipf 1.1, seed 42) under each
// policy and its target model, the graph built once outside the timer.
// Each shard's journal declares two publications and one order-after
// region, so this is the per-check cost those 48 annotations add to a
// kv-graph job; ns/event is per trace event.
func BenchmarkPersistcheckKVGraph(b *testing.B) {
	for _, pol := range []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand} {
		b.Run(pol.String(), func(b *testing.B) {
			run, err := workload.Build(workload.Options{
				Workload: "kv", Policy: pol, Model: pol.Model(),
				Threads: 32, Inserts: 128, Seed: 42,
				Shards: 16, Keys: 65536, ZipfS: 1.1,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			g, err := graph.Build(run.Trace, core.Params{Model: pol.Model()})
			if err != nil {
				b.Fatal(err)
			}
			// One P, and one untimed check: the epoch-race detector's
			// simulator comes from a sync.Pool, which keeps what an op
			// puts back in that P's private slot.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			cfg := persistcheck.Config{SiteLabel: run.SiteLabel}
			if _, err := persistcheck.CheckGraph(run.Trace, g, run.Checks, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := persistcheck.CheckGraph(run.Trace, g, run.Checks, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(run.Trace.Len()), "ns/event")
		})
	}
}
