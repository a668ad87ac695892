package graph

import (
	"math/rand"

	"repro/internal/memory"
)

// A Cut is a downward-closed set of persist nodes: exactly the subsets
// of persists a failure may expose, under the model that produced the
// graph. Included[i] reports whether node i persisted before the crash.
type Cut struct {
	Included []bool
}

// Full returns the cut containing every node (no failure).
func (g *Graph) Full() Cut {
	inc := make([]bool, len(g.Nodes))
	for i := range inc {
		inc[i] = true
	}
	return Cut{Included: inc}
}

// Empty returns the cut containing no nodes (failure before any
// persist).
func (g *Graph) Empty() Cut {
	return Cut{Included: make([]bool, len(g.Nodes))}
}

// Valid reports whether the cut is downward-closed: every dependence of
// an included node is included.
func (g *Graph) Valid(c Cut) bool {
	if len(c.Included) != len(g.Nodes) {
		return false
	}
	for i, n := range g.Nodes {
		if !c.Included[i] {
			continue
		}
		for _, e := range n.In {
			if !c.Included[e.From] {
				return false
			}
		}
	}
	return true
}

// Size returns the number of included nodes.
func (c Cut) Size() int {
	n := 0
	for _, in := range c.Included {
		if in {
			n++
		}
	}
	return n
}

// SampleCut draws a random consistent cut. Nodes are visited in
// topological (trace) order; a node whose dependences are all included
// is included with probability keep. keep near 1 biases toward
// late crashes, keep near 0 toward early ones; the observer sweeps keep
// to cover both regimes. The graph must be acyclic with edges pointing
// to earlier nodes (true for Build output).
func (g *Graph) SampleCut(rng *rand.Rand, keep float64) Cut {
	c := Cut{Included: make([]bool, len(g.Nodes))}
	for i, n := range g.Nodes {
		ok := true
		for _, e := range n.In {
			if !c.Included[e.From] {
				ok = false
				break
			}
		}
		if ok && rng.Float64() < keep {
			c.Included[i] = true
		}
	}
	return c
}

// PrefixCut returns the cut containing the first k nodes in trace
// order — the crash state of a device whose persist queue drains
// in order. It is always downward-closed because trace-built graphs'
// edges point backward.
func (g *Graph) PrefixCut(k int) Cut {
	c := Cut{Included: make([]bool, len(g.Nodes))}
	if k > len(g.Nodes) {
		k = len(g.Nodes)
	}
	for i := 0; i < k; i++ {
		c.Included[i] = true
	}
	return c
}

// DropCut returns the cut containing every node except `victim` and
// its descendants (nodes ordered after it). It is the adversarial
// crash for a single persist: the latest possible failure point at
// which victim still has not persisted.
func (g *Graph) DropCut(victim NodeID) Cut {
	c := g.Full()
	c.Included[victim] = false
	g.DropDependents(c, victim)
	return c
}

// EnumerateCuts visits every consistent cut of a small graph (the count
// is exponential; callers bound graph size). fn returning false stops
// the enumeration early. Enumeration proceeds over nodes in index
// order, choosing include/exclude; excluding a node forces exclusion of
// its dependents, which the downward-closure check handles naturally.
func (g *Graph) EnumerateCuts(fn func(Cut) bool) {
	inc := make([]bool, len(g.Nodes))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(g.Nodes) {
			snapshot := make([]bool, len(inc))
			copy(snapshot, inc)
			return fn(Cut{Included: snapshot})
		}
		// Option 1: exclude node i.
		inc[i] = false
		if !rec(i + 1) {
			return false
		}
		// Option 2: include node i if its dependences are included.
		for _, e := range g.Nodes[i].In {
			if !inc[e.From] {
				return true
			}
		}
		inc[i] = true
		ok := rec(i + 1)
		inc[i] = false
		return ok
	}
	rec(0)
}

// CountCuts returns the number of consistent cuts (for tests; only
// feasible on small graphs).
func (g *Graph) CountCuts() int {
	n := 0
	g.EnumerateCuts(func(Cut) bool { n++; return true })
	return n
}

// Materialize applies the writes of the cut's persists, in trace order,
// to an empty NVRAM image: the state the recovery observer reads after
// the crash. Manual nodes (no event) are skipped.
func (g *Graph) Materialize(c Cut) *memory.Image {
	im := memory.NewImage()
	for i, n := range g.Nodes {
		if !c.Included[i] || !n.Event.Kind.IsAccess() {
			continue
		}
		var b [memory.WordSize]byte
		for j := 0; j < int(n.Event.Size); j++ {
			b[j] = byte(n.Event.Val >> (8 * j))
		}
		im.WriteBytes(n.Event.Addr, b[:n.Event.Size])
	}
	return im
}
