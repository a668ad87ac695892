package bench

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/queue"
)

// BenchmarkStreamTable1Cell streams one Table 1 cell (2LC queue, 8
// threads, epoch policy, 500 inserts) from the execution engine into a
// pooled one-lane simulator, as Simulate does on a trace-cache miss,
// and reports ns per trace event: the live one-lane path the Table 1
// benchmark spends its time on, on a real trace. One untimed run first
// warms the simulator pool and its tables.
func BenchmarkStreamTable1Cell(b *testing.B) {
	// One P: sync.Pool keeps what an op puts back in that P's private
	// slot, so an op that resumed on another P would miss the warm
	// simulator and allocate its tables.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := Workload{Design: queue.TwoLock, Policy: core.PolicyEpoch, Threads: 8, Inserts: 500, Seed: 42}
	p := core.Params{Model: core.PolicyEpoch.Model()}
	r, err := Simulate(w, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err = Simulate(w, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*r.Events), "ns/event")
	b.ReportMetric(float64(r.Events), "events/op")
}
