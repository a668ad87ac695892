package graph

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestGrowAdditiveAllocs pins the fix for Grow discarding live slab
// capacity: a second Grow that fits in the remaining capacity of the
// first must not allocate, and node storage for the whole sequence is
// the two slices of the initial Grow. Before the fix every Grow call
// replaced the node slab unconditionally, so this counted one extra
// allocation per extra Grow.
func TestGrowAdditiveAllocs(t *testing.T) {
	var ev trace.Event
	n := testing.AllocsPerRun(10, func() {
		g := &Graph{}
		g.Grow(8) // one slab + one Nodes allocation
		for i := 0; i < 4; i++ {
			g.AddNode("n", ev)
		}
		g.Grow(4) // spare capacity remains: must be free
		for i := 0; i < 4; i++ {
			g.AddNode("n", ev)
		}
	})
	if n > 2 {
		t.Fatalf("incremental Grow sequence allocated %v times, want ≤ 2", n)
	}

	// Node pointers taken before an additive Grow stay valid after it.
	g := &Graph{}
	g.Grow(4)
	id := g.AddNode("keep", ev)
	p := g.Nodes[id]
	g.Grow(2)
	g.AddNode("more", ev)
	if g.Nodes[id] != p || p.Label != "keep" {
		t.Fatal("additive Grow invalidated an existing node")
	}
	// A Grow exceeding the remaining capacity still works (fresh slab).
	g.Grow(100)
	for i := 0; i < 100; i++ {
		g.AddNode("bulk", ev)
	}
	if g.Len() != 102 {
		t.Fatalf("got %d nodes, want 102", g.Len())
	}
}

// TestGraphBuildAllocs guards the builder's allocation behavior: the
// interval-frontier rewrite dropped BenchmarkGraphBuild from 104815
// (strict) / 121311 (epoch) allocs per 20k-event build to double
// digits / low hundreds. The budgets below sit far under the old
// counts' fifth (≈21k / ≈24k) while leaving headroom over the observed
// 308 / 380 (most of them block-table pages), so a regression
// reintroducing per-event allocation fails loudly.
func TestGraphBuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tr := benchTrace(20000)
	for _, tc := range []struct {
		model  core.Model
		budget float64
	}{
		{core.Strict, 1000},
		{core.Epoch, 4000},
	} {
		p := core.Params{Model: tc.model}
		got := testing.AllocsPerRun(2, func() {
			if _, err := Build(tr, p); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("%v: %v allocs per build, budget %v", tc.model, got, tc.budget)
		}
	}
}
