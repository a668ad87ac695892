package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// BenchmarkBuildKV traces one kv-read-shaped serving run per iteration:
// 16 shards, 65,536 keys, 32 threads and 4096 ops at 0.9 reads, Zipf
// 1.1, epoch annotations, seed 42. That is exec's scheduler and
// simulated memory driving the kv store, the trace producer the kvbench
// serving path runs before simulation. ns/event and allocs/event are
// per trace event, so they compare with the core and graph benchmarks.
func BenchmarkBuildKV(b *testing.B) {
	o := kvReadShape
	o.Inserts = 4096
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := Build(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += run.Trace.Len()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(events), "allocs/event")
}

// BenchmarkSimTablesKV feeds one kv-read-shaped trace (kvReadShape,
// 16,384 ops) to a fresh epoch simulator per iteration, so B/op is the
// footprint of a new simulator's block and atom tables (plus its small
// per-thread slice) and ns/event the cold-table simulation cost: what
// a pooled simulator holds after its first kv-read job.
func BenchmarkSimTablesKV(b *testing.B) {
	run, err := Build(kvReadShape, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.MustNewSim(core.Params{Model: core.Epoch})
		for e := range run.Trace.All() {
			if err := s.Feed(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run.Trace.Len()), "ns/event")
}
