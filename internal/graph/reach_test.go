package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// naiveAncestors returns b's strict ancestors by an unbounded
// recursive walk over In, with no use of id order.
func naiveAncestors(g *Graph, b NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{}
	var visit func(NodeID)
	visit = func(n NodeID) {
		for _, e := range g.Nodes[n].In {
			if !seen[e.From] {
				seen[e.From] = true
				visit(e.From)
			}
		}
	}
	visit(b)
	return seen
}

// naiveDescendants returns a's strict descendants by a DFS over
// successor lists built from In.
func naiveDescendants(g *Graph, succ [][]NodeID, a NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{}
	stack := []NodeID{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succ[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// oldDropCut is the forward propagation DropCut and the exhaustive
// checker's minimizer ran before DropDependents: exclude v, then every
// node with an excluded dependence.
func oldDropCut(g *Graph, c Cut, v NodeID) Cut {
	out := Cut{Included: slices.Clone(c.Included)}
	out.Included[v] = false
	for j := int(v) + 1; j < len(g.Nodes); j++ {
		if !out.Included[j] {
			continue
		}
		for _, e := range g.Nodes[j].In {
			if !out.Included[e.From] {
				out.Included[j] = false
				break
			}
		}
	}
	return out
}

// checkReach compares every reachability primitive with the naive
// oracles above on g, probing up to probes target nodes (all of them
// when the graph is smaller).
func checkReach(t testing.TB, ctx string, g *Graph, rng *rand.Rand, probes int) {
	t.Helper()
	n := g.Len()
	if n == 0 {
		return
	}
	succ := make([][]NodeID, n)
	for i, nd := range g.Nodes {
		for _, e := range nd.In {
			succ[e.From] = append(succ[e.From], NodeID(i))
		}
	}
	targets := make([]NodeID, n)
	for i := range targets {
		targets[i] = NodeID(i)
	}
	if n > probes {
		rng.Shuffle(n, func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		targets = targets[:probes]
	}
	r := NewReach(g)
	desc := g.Descendants(nil)
	// Storage an earlier call left behind, larger than g needs and
	// full of set bits, must be cleared and give the same sets.
	junk := make([]uint64, n*((n+63)/64)+7)
	for i := range junk {
		junk[i] = ^uint64(0)
	}
	if reused := g.Descendants([][]uint64{junk[:1]}); !slices.EqualFunc(desc, reused, slices.Equal) {
		t.Fatalf("%s: Descendants into used storage differs from fresh", ctx)
	} else if &reused[0][0] != &junk[0] {
		t.Fatalf("%s: Descendants did not reuse storage large enough", ctx)
	}
	inDesc := func(a, b NodeID) bool { return desc[a][b>>6]&(1<<(uint(b)&63)) != 0 }
	for _, b := range targets {
		anc := naiveAncestors(g, b)
		// Descendants(a) against a DFS over successors.
		nd := naiveDescendants(g, succ, b)
		for x := 0; x < n; x++ {
			if inDesc(b, NodeID(x)) != nd[NodeID(x)] {
				t.Fatalf("%s: Descendants(%d) has %d = %v, DFS says %v", ctx, b, x, inDesc(b, NodeID(x)), nd[NodeID(x)])
			}
		}
		// HasPath(a, b) ⇔ a == b or b ∈ Descendants(a) ⇔ a is an
		// ancestor of b.
		for a := 0; a < n; a++ {
			want := NodeID(a) == b || anc[NodeID(a)]
			if got := r.HasPath(NodeID(a), b); got != want {
				t.Fatalf("%s: HasPath(%d, %d) = %v, want %v", ctx, a, b, got, want)
			}
			if d := NodeID(a) == b || inDesc(NodeID(a), b); d != want {
				t.Fatalf("%s: %d ∈ Descendants(%d) = %v, want %v", ctx, b, a, d, want)
			}
		}
		// Mark(b, lo) stamps exactly b and its ancestors with id ≥ lo.
		for _, lo := range []NodeID{0, b / 2, b, NodeID(rng.Intn(int(b) + 1))} {
			r.Mark(b, lo)
			for x := 0; x < n; x++ {
				want := NodeID(x) == b || (NodeID(x) >= lo && anc[NodeID(x)])
				if got := r.Marked(NodeID(x)); got != want {
					t.Fatalf("%s: Mark(%d, %d) marks %d = %v, want %v", ctx, b, lo, x, got, want)
				}
			}
		}
		// DownClosure(b) is b plus its ancestors: a valid cut, and the
		// smallest one holding b, since every valid cut holding b holds
		// each of its ancestors. Taking it leaves the marks alone.
		r.Mark(b, 0)
		dc := r.DownClosure(b)
		if !g.Valid(dc) {
			t.Fatalf("%s: DownClosure(%d) is not downward-closed", ctx, b)
		}
		for x := 0; x < n; x++ {
			if want := NodeID(x) == b || anc[NodeID(x)]; dc.Included[x] != want {
				t.Fatalf("%s: DownClosure(%d) has %d = %v, want %v", ctx, b, x, dc.Included[x], want)
			}
			if r.Marked(NodeID(x)) != dc.Included[x] {
				t.Fatalf("%s: DownClosure(%d) disturbed the mark of %d", ctx, b, x)
			}
		}
		// DropDependents matches the old forward propagation, from the
		// full cut (DropCut) and from a sampled one, and removes exactly
		// b's descendants.
		for _, c := range []Cut{g.Full(), g.SampleCut(rng, 0.7)} {
			if !c.Included[b] {
				continue
			}
			want := oldDropCut(g, c, b)
			got := Cut{Included: slices.Clone(c.Included)}
			got.Included[b] = false
			g.DropDependents(got, b)
			for x := 0; x < n; x++ {
				if got.Included[x] != want.Included[x] {
					t.Fatalf("%s: DropDependents(%d) keeps %d = %v, old propagation %v", ctx, b, x, got.Included[x], want.Included[x])
				}
				if drop := NodeID(x) == b || nd[NodeID(x)]; got.Included[x] != (c.Included[x] && !drop) {
					t.Fatalf("%s: DropDependents(%d) keeps %d = %v", ctx, b, x, got.Included[x])
				}
			}
			if !g.Valid(got) {
				t.Fatalf("%s: DropDependents(%d) left an invalid cut", ctx, b)
			}
		}
	}
	// Frontier: included persists with no included dependent.
	for _, c := range []Cut{g.Full(), g.SampleCut(rng, 0.5), g.Empty()} {
		var want []NodeID
		for i := 0; i < n; i++ {
			if !c.Included[i] || !g.Nodes[i].Event.Kind.IsAccess() {
				continue
			}
			if !slices.ContainsFunc(succ[i], func(s NodeID) bool { return c.Included[s] }) {
				want = append(want, NodeID(i))
			}
		}
		if got := g.Frontier(c); !slices.Equal(got, want) {
			t.Fatalf("%s: Frontier = %v, want %v", ctx, got, want)
		}
	}
}

// TestReachOnRandomTraces checks the reachability primitives on the
// reference builder's random traces under every model and at word and
// coarse tracking granularity.
func TestReachOnRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 200)
		for _, m := range core.Models {
			for _, gran := range []uint64{0, 32} {
				g, err := Build(tr, core.Params{Model: m, TrackingGranularity: gran})
				if err != nil {
					t.Fatal(err)
				}
				checkReach(t, fmt.Sprintf("seed %d model %v gran %d", seed, m, gran), g, rng, 64)
			}
		}
	}
}

// TestReachOnPSOTraces repeats the check on machine traces whose store
// visibility the PSO consistency model reordered.
func TestReachOnPSOTraces(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := psoTrace(seed, 30)
		rng := rand.New(rand.NewSource(seed))
		for _, mo := range core.Models {
			g, err := Build(tr, core.Params{Model: mo})
			if err != nil {
				t.Fatal(err)
			}
			checkReach(t, fmt.Sprintf("pso seed %d model %v", seed, mo), g, rng, 64)
		}
	}
}

// TestReachRootsKeepInclusion pins the part of DropDependents the
// single-victim callers never see: roots keep their own inclusion (a
// torn persist stays in the cut), their dependents leave it, and a root
// that depends on another root leaves with the other's dependents.
func TestReachRootsKeepInclusion(t *testing.T) {
	g := chainGraph(4) // 0 → 1 → 2 → 3
	c := g.Full()
	g.DropDependents(c, 1)
	if want := []bool{true, true, false, false}; !slices.Equal(c.Included, want) {
		t.Fatalf("DropDependents(full, 1) = %v, want %v", c.Included, want)
	}
	c = g.Full()
	g.DropDependents(c, 2, 0)
	if want := []bool{true, false, false, false}; !slices.Equal(c.Included, want) {
		t.Fatalf("DropDependents(full, 2, 0) = %v, want %v", c.Included, want)
	}
	c = g.Full()
	g.DropDependents(c)
	if c.Size() != 4 {
		t.Fatalf("DropDependents with no roots changed the cut: %v", c.Included)
	}
}

// TestFrontier checks the frontier of a chain's full, prefix and empty
// cuts.
func TestFrontier(t *testing.T) {
	g := chainGraph(3)
	if got := g.Frontier(g.Full()); len(got) != 1 || got[0] != 2 {
		t.Fatalf("full-cut frontier = %v, want [2]", got)
	}
	if got := g.Frontier(g.PrefixCut(1)); len(got) != 1 || got[0] != 0 {
		t.Fatalf("prefix-cut frontier = %v, want [0]", got)
	}
	if got := g.Frontier(g.Empty()); len(got) != 0 {
		t.Fatalf("empty-cut frontier = %v, want none", got)
	}
}

// TestReachAllocs pins that a Reach reuses its mark array and stack:
// Mark and HasPath allocate nothing once the stack has grown; nor does
// Descendants handed its last result.
func TestReachAllocs(t *testing.T) {
	g := chainGraph(64)
	r := NewReach(g)
	r.Mark(63, 0)
	if a := testing.AllocsPerRun(50, func() {
		r.Mark(63, 10)
		r.HasPath(3, 60)
	}); a != 0 {
		t.Fatalf("Mark+HasPath allocate %.1f times per call, want 0", a)
	}
	desc := g.Descendants(nil)
	if a := testing.AllocsPerRun(50, func() { desc = g.Descendants(desc) }); a != 0 {
		t.Fatalf("Descendants into its last result allocates %.1f times per call, want 0", a)
	}
}
