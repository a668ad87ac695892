package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// refCriticalPath is CriticalPath's oracle for acyclic graphs: it
// relaxes every node's depth to one more than its deepest dependence,
// in id order, until a whole pass changes nothing.
func refCriticalPath(g *Graph) int64 {
	depth := make([]int64, len(g.Nodes))
	for changed := true; changed; {
		changed = false
		for i, n := range g.Nodes {
			d := int64(1)
			for _, e := range n.In {
				d = max(d, depth[e.From]+1)
			}
			if d != depth[i] {
				depth[i], changed = d, true
			}
		}
	}
	var longest int64
	for _, d := range depth {
		longest = max(longest, d)
	}
	return longest
}

// TestCriticalPathMatchesReference checks the one-pass critical path
// against the DFS path and the relaxation oracle on random trace-built
// graphs under every model, whose edges all point backward, and pins
// that it allocates only its depth array there.
func TestCriticalPathMatchesReference(t *testing.T) {
	check := func(ctx string, g *Graph) {
		t.Helper()
		got, dfs, want := g.CriticalPath(), g.criticalPathDFS(make([]int64, g.Len())), refCriticalPath(g)
		if got != want || dfs != want {
			t.Fatalf("%s: critical path %d, DFS %d, reference %d", ctx, got, dfs, want)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 50+rng.Intn(300))
		for _, m := range core.Models {
			g, err := Build(tr, core.Params{Model: m})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("seed %d %v", seed, m), g)
			if seed == 0 {
				if n := testing.AllocsPerRun(5, func() { g.CriticalPath() }); n > 1 {
					t.Fatalf("%v: CriticalPath allocated %v times on a built graph, want 1", m, n)
				}
			}
		}
	}
	// The builder benchmark's trace: barriers and conflicts over many blocks.
	tr := benchTrace(4000)
	for _, m := range core.Models {
		g, err := Build(tr, core.Params{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("benchTrace %v", m), g)
	}
}

// randomDAG hand-builds an acyclic graph of n nodes whose topological
// order is a random permutation of the ids, so many edges point
// forward in id order.
func randomDAG(rng *rand.Rand, n int, density float64) *Graph {
	var g Graph
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprint(i), trace.Event{})
	}
	order := rng.Perm(n)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if rng.Float64() < density {
				g.AddEdge(NodeID(order[i]), NodeID(order[j]), EdgeClass(rng.Intn(3)))
			}
		}
	}
	return &g
}

// TestCriticalPathOutOfOrder checks hand-built acyclic graphs whose
// edges point forward in id order against the relaxation oracle,
// including a chain laid out in reverse id order.
func TestCriticalPathOutOfOrder(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 1+rng.Intn(40), rng.Float64()*0.3)
		if got, want := g.CriticalPath(), refCriticalPath(g); got != want {
			t.Fatalf("seed %d: critical path %d, reference %d", seed, got, want)
		}
	}
	var g Graph
	for i := 0; i < 5; i++ {
		g.AddNode("", trace.Event{})
	}
	for i := 4; i > 0; i-- {
		g.AddEdge(NodeID(i), NodeID(i-1), ProgramOrder) // 4 → 3 → 2 → 1 → 0
	}
	if got := g.CriticalPath(); got != 5 {
		t.Fatalf("reverse chain critical path %d, want 5", got)
	}
	if got := (&Graph{}).CriticalPath(); got != 0 {
		t.Fatalf("empty graph critical path %d, want 0", got)
	}
}

// TestCriticalPathPanicsOnCycle: a cycle panics whether the first
// out-of-order edge closes it (Figure 1), sits after an in-order prefix
// the one-pass loop has already walked, or is a self-loop.
func TestCriticalPathPanicsOnCycle(t *testing.T) {
	fig1 := func(g *Graph) {
		a1 := g.AddNode("T1: persist A", trace.Event{})
		b1 := g.AddNode("T1: persist B", trace.Event{})
		b2 := g.AddNode("T2: persist B", trace.Event{})
		a2 := g.AddNode("T2: persist A", trace.Event{})
		g.AddEdge(a1, b1, ProgramOrder)
		g.AddEdge(b2, a2, ProgramOrder)
		g.AddEdge(b1, b2, Atomicity)
		g.AddEdge(a2, a1, Atomicity)
	}
	prefixed := func(g *Graph) {
		for i := 0; i < 6; i++ {
			g.AddNode("", trace.Event{})
		}
		for i := 1; i < 6; i++ {
			g.AddEdge(NodeID(i-1), NodeID(i), ProgramOrder)
		}
		g.AddEdge(5, 3, Conflict) // 3 → 4 → 5 → 3
	}
	selfLoop := func(g *Graph) {
		g.AddNode("", trace.Event{})
		g.AddEdge(0, 0, ProgramOrder)
	}
	for name, build := range map[string]func(*Graph){"figure 1": fig1, "after an in-order prefix": prefixed, "self-loop": selfLoop} {
		var g Graph
		build(&g)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CriticalPath on a cyclic graph did not panic", name)
				}
			}()
			g.CriticalPath()
		}()
	}
}
