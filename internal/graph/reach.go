package graph

// Reachability over persist-order graphs.
//
// Every crash state the recovery observer can see is a consistent cut
// of the graph (§4), so every checker asks the same questions of it:
// is a ordered before b, what is b's down-closure, which persists a
// failure leaves at the cut's edge, and what remains of a cut once some
// persists and their dependents are gone. This file is the one place
// outside the builder that walks edges to answer them.
//
// All of it relies on the invariant Build establishes: every edge
// points to a lower node id, so id order is topological. A backward
// walk from b can then stop below any bound lo without losing an
// ancestor of id ≥ lo (every node on a path into b from such an
// ancestor has a still higher id), and a forward sweep in id order
// sees each node's dependences before the node.

import "slices"

// Reach answers backward ordering queries over one graph. It owns a
// generation-stamped mark array and a walk stack, both reused across
// calls, so a query allocates nothing. A Reach is not safe for
// concurrent use.
type Reach struct {
	g     *Graph
	mark  []uint32
	gen   uint32
	stack []NodeID
}

// NewReach returns a Reach over g, which must have every edge pointing
// to a lower id (true of every graph Build makes).
func NewReach(g *Graph) *Reach {
	return &Reach{g: g, mark: make([]uint32, g.Len())}
}

// Mark stamps b and every ancestor of b with id ≥ lo, replacing the
// previous Mark's (or HasPath's) stamps; Marked answers membership.
// Bounding the walk at lo is exact for every node of id ≥ lo.
func (r *Reach) Mark(b, lo NodeID) {
	r.walk(b, lo, -1)
}

// Marked reports whether n was stamped by the latest Mark.
func (r *Reach) Marked(n NodeID) bool { return r.mark[n] == r.gen }

// HasPath reports whether the graph orders a before b: a path a→…→b
// exists, or a == b. It is Mark(b, a) stopping as soon as it reaches
// a, and it replaces the stamps of the latest Mark.
func (r *Reach) HasPath(a, b NodeID) bool {
	if a == b {
		return true
	}
	if a > b {
		return false
	}
	return r.walk(b, a, a)
}

// walk stamps b's ancestors of id ≥ lo with a fresh generation,
// returning true as soon as it reaches stop (-1 never stops).
func (r *Reach) walk(b, lo, stop NodeID) bool {
	if r.gen++; r.gen == 0 {
		clear(r.mark)
		r.gen = 1
	}
	r.mark[b] = r.gen
	r.stack = append(r.stack[:0], b)
	for len(r.stack) > 0 {
		n := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, e := range r.g.Nodes[n].In {
			if e.From == stop {
				return true
			}
			if e.From >= lo && r.mark[e.From] != r.gen {
				r.mark[e.From] = r.gen
				r.stack = append(r.stack, e.From)
			}
		}
	}
	return false
}

// DownClosure returns the smallest consistent cut containing b: b and
// all its ancestors, the earliest crash state that exposes b. It
// leaves the latest Mark's stamps intact, so a caller may take closures
// while still reading Marked.
func (r *Reach) DownClosure(b NodeID) Cut {
	inc := make([]bool, r.g.Len())
	inc[b] = true
	r.stack = append(r.stack[:0], b)
	for len(r.stack) > 0 {
		n := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, e := range r.g.Nodes[n].In {
			if !inc[e.From] {
				inc[e.From] = true
				r.stack = append(r.stack, e.From)
			}
		}
	}
	return Cut{Included: inc}
}

// DropDependents removes from c, in place, every included node that
// depends on a root: a node with a dependence on a root or on a node
// removed before it. The roots themselves keep their inclusion, so a
// caller that wants them gone excludes them first. One forward sweep
// from the lowest root does it.
func (g *Graph) DropDependents(c Cut, roots ...NodeID) {
	if len(roots) == 0 {
		return
	}
	gone := make([]bool, len(g.Nodes))
	lo := roots[0]
	for _, v := range roots {
		gone[v] = true
		lo = min(lo, v)
	}
	for i := int(lo) + 1; i < len(g.Nodes); i++ {
		if !c.Included[i] {
			continue
		}
		for _, e := range g.Nodes[i].In {
			if gone[e.From] {
				c.Included[i] = false
				gone[i] = true
				break
			}
		}
	}
}

// Descendants returns each node's transitive descendant set as a
// bitset over node ids (bit j of word j/64): every node ordered after
// it. One sweep in descending id order folds each node's set into its
// dependences'. The sets are written into dst's storage when it is
// large enough: pass nil, or the result of an earlier call on any
// graph, whose rows share one backing array that row 0 spans (so an
// append to a row overwrites the next).
func (g *Graph) Descendants(dst [][]uint64) [][]uint64 {
	n := len(g.Nodes)
	words := (n + 63) / 64
	var flat []uint64
	if len(dst) > 0 {
		flat = dst[0][:cap(dst[0])]
	}
	if cap(flat) < n*words {
		flat = make([]uint64, n*words)
	} else {
		flat = flat[:n*words]
		clear(flat)
	}
	desc := slices.Grow(dst[:0], n)[:n]
	for i := range desc {
		desc[i] = flat[i*words : (i+1)*words]
	}
	for i := n - 1; i >= 0; i-- {
		for _, e := range g.Nodes[i].In {
			d := desc[e.From]
			d[i>>6] |= 1 << (uint(i) & 63)
			for w := range desc[i] {
				d[w] |= desc[i][w]
			}
		}
	}
	return desc
}

// Frontier returns the cut's frontier: included persists with no
// included dependents. These are the writes that may still have been
// in flight at the moment of failure, so a torn or dropped persist is
// only legal there. Manual nodes (no event) are never on it.
func (g *Graph) Frontier(c Cut) []NodeID {
	hasDep := make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if !c.Included[i] {
			continue
		}
		for _, e := range n.In {
			hasDep[e.From] = true
		}
	}
	var out []NodeID
	for i, n := range g.Nodes {
		if c.Included[i] && n.Event.Kind.IsAccess() && !hasDep[i] {
			out = append(out, NodeID(i))
		}
	}
	return out
}
