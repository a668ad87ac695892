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
	o := KVOptions{
		Shards: 16, Keys: 65536, Threads: 32, Ops: 4096,
		ReadFrac: 0.9, ZipfS: 1.1, Policy: core.PolicyEpoch, Seed: 42,
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := BuildKV(o, nil)
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
