package persistcheck_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/persistcheck"
	"repro/internal/queue"
	"repro/internal/workload"
)

// BenchmarkPersistcheckKV checks the trace BenchmarkGraphBuildKV builds
// (a 1024-op, 0.9-read epoch KV run: 16 shards, 65536 keys, 32 threads,
// Zipf 1.1, seed 42) with its store's annotations. One op is a whole
// Check, graph build included; ns/event is its cost per trace event.
func BenchmarkPersistcheckKV(b *testing.B) {
	jp, err := workload.JournalPolicy(queue.PolicyEpoch)
	if err != nil {
		b.Fatal(err)
	}
	run, err := workload.BuildKV(workload.KVOptions{
		Shards: 16, Keys: 65536, Threads: 32, Ops: 1024,
		ReadFrac: 0.9, ZipfS: 1.1, Policy: jp, Seed: 42, PolicyStr: "epoch",
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{Model: workload.ModelForPolicy("kv", queue.PolicyEpoch)}
	cfg := persistcheck.Config{SiteLabel: run.SiteLabel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := persistcheck.Check(run.Trace, p, run.Checks, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(run.Trace.Len()), "ns/event")
}
