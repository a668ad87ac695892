package graph

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

// TestBuildFarAddresses builds a trace whose threads store, load and
// RMW at both ends of the 1 TiB persistent space and of the volatile
// space, including a store straddling two tracking blocks, and checks
// the graph against the reference builder under every model at word
// and coarse tracking granularity.
func TestBuildFarAddresses(t *testing.T) {
	pTop := memory.PersistentBase + memory.Addr(memory.PersistentSize)
	vTop := memory.VolatileBase + memory.Addr(memory.VolatileSize)
	paddrs := []memory.Addr{memory.PersistentBase, memory.PersistentBase + 8, pTop - 16, pTop - 8}
	vaddrs := []memory.Addr{memory.VolatileBase, vTop - 8}
	tr := &trace.Trace{}
	for i := range 60 {
		tid := int32(i % 3)
		pa, va := paddrs[i%len(paddrs)], vaddrs[i%len(vaddrs)]
		switch i % 6 {
		case 0:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: pa, Size: 8, Val: uint64(i)})
		case 1:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: va, Size: 8})
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: pa, Size: 8})
		case 2:
			tr.Emit(trace.Event{TID: tid, Kind: trace.RMW, Addr: va, Size: 8, Val: uint64(i)})
		case 3:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: pTop - 12, Size: 8, Val: uint64(i)})
		case 4:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: va, Size: 4, Val: uint64(i)})
			tr.Emit(trace.Event{TID: tid, Kind: trace.RMW, Addr: pa, Size: 8, Val: uint64(i)})
		case 5:
			tr.Emit(trace.Event{TID: tid, Kind: trace.NewStrand})
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.PersistentBase + 4, Size: 8, Val: uint64(i)})
		}
	}
	for _, m := range core.Models {
		for _, gran := range []uint64{0, 32} {
			p := core.Params{Model: m, TrackingGranularity: gran}
			ctx := fmt.Sprintf("model %v gran %d", m, gran)
			want, err := refBuild(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, ctx, got, want)
			if got.EdgeCounts()[Atomicity] == 0 {
				t.Fatalf("%s: no atomicity edges between repeated far persists", ctx)
			}
		}
	}
}
