package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/memory"
	"repro/internal/trace"
)

// synthTrace builds a synthetic mixed trace for simulator throughput
// measurement.
func synthTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(1))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tid := int32(i % 4)
		switch rng.Intn(10) {
		case 0:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		case 1:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: memory.PersistentBase + memory.Addr(rng.Intn(1<<12)*8), Size: 8})
		case 2, 3:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.VolatileBase + memory.Addr(rng.Intn(64)*8), Size: 8, Val: 1})
		default:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.PersistentBase + memory.Addr(rng.Intn(1<<12)*8), Size: 8, Val: 1})
		}
	}
	return tr
}

// BenchmarkSimFeed measures event-processing throughput per model. One
// untimed replay first warms the simulator pool and its block tables,
// so every timed iteration, even at -benchtime 1x, measures the steady
// state and not the set-up allocations.
func BenchmarkSimFeed(b *testing.B) {
	tr := synthTrace(10000)
	for _, m := range Models {
		b.Run(m.String(), func(b *testing.B) {
			// One P: sync.Pool keeps what an op puts back in that
			// P's private slot, so an op that resumed on another P
			// would miss the warm simulator and allocate its tables.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			if _, err := Simulate(tr, Params{Model: m}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(tr, Params{Model: m}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len()), "events/run")
		})
	}
}

// BenchmarkSimulateAll measures replaying one trace under every model
// through the pooled simulator, as SimulateAll does, after one untimed
// warm-up replay (see BenchmarkSimFeed).
func BenchmarkSimulateAll(b *testing.B) {
	tr := synthTrace(10000)
	// One P, as in BenchmarkSimFeed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := SimulateAll(tr, Params{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateAll(tr, Params{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(Models)), "simevents/run")
}

// TestSimulateAllocsPerEvent guards the allocation-lean replay path:
// once the pooled simulator is warm, replaying a trace must not
// allocate per event — only a bounded per-run residue (result bookkeeping,
// pool slot churn) is allowed, for both the strict and epoch hot paths.
func TestSimulateAllocsPerEvent(t *testing.T) {
	tr := synthTrace(10000)
	for _, m := range []Model{Strict, Epoch} {
		// Warm the sim pool and the block tables' pages.
		if _, err := Simulate(tr, Params{Model: m}); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Simulate(tr, Params{Model: m}); err != nil {
				t.Fatal(err)
			}
		})
		perEvent := allocs / float64(tr.Len())
		if perEvent > 0.01 {
			t.Errorf("%v: %.1f allocs per 10k-event replay (%.4f/event), want ~0/event",
				m, allocs, perEvent)
		}
	}
}

// BenchmarkCtxMerge measures the dependence-context lattice.
func BenchmarkCtxMerge(b *testing.B) {
	a := Ctx{Lvl: 10, Src: 3, Lvl2: 7}
	c := Ctx{Lvl: 9, Src: 5, Lvl2: 8}
	for i := 0; i < b.N; i++ {
		a = merge(a, c)
	}
	_ = a
}
