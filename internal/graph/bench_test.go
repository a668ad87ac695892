package graph

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

// benchTrace builds a persist-heavy multi-threaded trace with barriers
// and cross-thread conflicts — the shape graph.Build sees from real
// workloads.
func benchTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(3))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tid := int32(i % 4)
		switch rng.Intn(8) {
		case 0:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		case 1:
			// Conflicting block shared across threads.
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.PersistentBase + memory.Addr(rng.Intn(8)*64), Size: 8, Val: 1})
		default:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.PersistentBase + memory.Addr(rng.Intn(1<<10)*64), Size: 8, Val: 1})
		}
	}
	return tr
}

// BenchmarkGraphBuild measures constraint-DAG construction over the
// slab-allocated node and reused scratch storage, per model, and
// reports the edges per node it emits. An untimed build first warms the
// builder pool, so every op, a 1x run's too, measures a repeated build.
func BenchmarkGraphBuild(b *testing.B) {
	tr := benchTrace(20000)
	for _, m := range []core.Model{core.Strict, core.Epoch} {
		b.Run(m.String(), func(b *testing.B) {
			// One P: sync.Pool keeps what an op puts back in that
			// P's private slot, so an op that resumed on another P
			// would miss the warm builder and read a cold build's B/op.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			if _, err := Build(tr, core.Params{Model: m}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var g *Graph
			for i := 0; i < b.N; i++ {
				var err error
				if g, err = Build(tr, core.Params{Model: m}); err != nil {
					b.Fatal(err)
				}
				if g.Len() == 0 {
					b.Fatal("empty graph")
				}
			}
			b.StopTimer()
			edges := 0
			for _, n := range g.Nodes {
				edges += len(n.In)
			}
			b.ReportMetric(float64(tr.Len()), "events/op")
			b.ReportMetric(float64(edges)/float64(g.Len()), "edges/node")
		})
	}
}
