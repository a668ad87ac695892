package persistcheck_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/persistcheck"
	"repro/internal/trace"
)

// twoEpochTrace stores to two persistent words from each of two
// threads, with a barrier between each thread's stores: four persists
// and two annotations.
func twoEpochTrace() *trace.Trace {
	tr := &trace.Trace{}
	for tid := int32(0); tid < 2; tid++ {
		base := pline() + memory.Addr(128*tid)
		store(tr, tid, base, 1)
		barrier(tr, tid)
		store(tr, tid, base+8, 2)
	}
	return tr
}

// TestCheckGraphMatchesCheck pins that CheckGraph on the graph Build
// made from a trace reports exactly what Check does.
func TestCheckGraphMatchesCheck(t *testing.T) {
	tr := twoEpochTrace()
	for _, m := range core.Models {
		p := core.Params{Model: m}
		want, err := persistcheck.Check(tr, p, persistcheck.Annotations{}, persistcheck.Config{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := persistcheck.CheckGraph(tr, g, persistcheck.Annotations{}, persistcheck.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: CheckGraph report %v, Check report %v", m, got, want)
		}
	}
}

// TestCheckGraphRefusesForeignGraphs pins that CheckGraph returns an
// error, not a panic, for a graph that was not built from its trace.
func TestCheckGraphRefusesForeignGraphs(t *testing.T) {
	tr := twoEpochTrace()
	p := core.Params{Model: core.Epoch}
	build := func(tr *trace.Trace) *graph.Graph {
		t.Helper()
		g, err := graph.Build(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	longer := twoEpochTrace()
	store(longer, 0, pline()+256, 3)

	// Same four persists, one barrier fewer: only the annotation count
	// differs.
	oneBarrier := &trace.Trace{}
	for e := range tr.All() {
		if e.Kind != trace.PersistBarrier || e.TID != 1 {
			oneBarrier.Emit(trace.Event{TID: e.TID, Kind: e.Kind, Addr: e.Addr, Size: e.Size, Val: e.Val})
		}
	}

	// Hand-built: four nodes, the last pointing past the trace's end.
	farSeq := &graph.Graph{}
	for _, seq := range []uint64{0, 2, 3, 60} {
		farSeq.AddNode("", trace.Event{Seq: seq, Kind: trace.Store})
	}
	// Hand-built with the trace's own persists but no barrier report.
	noBarriers := &graph.Graph{Params: p}
	for e := range tr.All() {
		if e.IsPersist() {
			noBarriers.AddNode("", e)
		}
	}

	// Built from the trace, then two persists swapped, or one moved onto
	// an annotation.
	swapped := build(tr)
	swapped.Nodes[1], swapped.Nodes[2] = swapped.Nodes[2], swapped.Nodes[1]
	onBarrier := build(tr)
	onBarrier.Nodes[1].Event.Seq = 1

	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"built from a longer trace", build(longer), "graph has 5 persists, trace 4"},
		{"built from a trace with fewer barriers", build(oneBarrier), "graph records 1 annotations, trace has 2"},
		{"hand-built with far seqs", farSeq, "graph node 3 has seq 60 beyond the trace's 6 events"},
		{"hand-built without barriers", noBarriers, "graph records 0 annotations, trace has 2"},
		{"persists out of trace order", swapped, "graph node 2 has seq 2, not after node 1's 3"},
		{"a node on an annotation", onBarrier, "graph node 1 has seq 1, a persist-barrier, not a persist"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := persistcheck.CheckGraph(tr, tc.g, persistcheck.Annotations{}, persistcheck.Config{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckGraph = %v, %v; want error containing %q", rep, err, tc.want)
			}
		})
	}
}
