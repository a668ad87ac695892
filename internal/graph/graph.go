// Package graph materializes persist-order constraint graphs.
//
// Where internal/core summarizes persist ordering as scalar critical-path
// levels (fast, streaming, used for the throughput experiments), package
// graph builds the explicit DAG of persists and labeled ordering edges
// for moderate-sized traces. The explicit form supports:
//
//   - classifying constraints (program-order/barrier, strong persist
//     atomicity, cross-thread conflict) to reproduce the structure of the
//     paper's Figure 2;
//   - enumerating and sampling *consistent cuts* — downward-closed sets
//     of persists — which are exactly the NVRAM states a failure may
//     expose to the recovery observer (used by internal/observer);
//   - cycle detection over manually constructed graphs, reproducing the
//     paper's Figure 1 impossibility argument.
//
// The graph deliberately ignores persist coalescing: coalescing merges
// NVRAM writes but never adds ordering, so the un-coalesced DAG admits a
// superset of the recovery states — the conservative direction for
// verifying recovery correctness.
package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// EdgeClass labels why a persist-order constraint exists.
type EdgeClass uint8

const (
	// ProgramOrder edges come from the issuing thread's own order:
	// every preceding persist under strict persistency, epoch
	// boundaries under epoch/strand persistency.
	ProgramOrder EdgeClass = iota
	// Atomicity edges come from strong persist atomicity: persists to
	// the same (tracking-granularity) address serialize (§4.3).
	Atomicity
	// Conflict edges propagate across threads through conflicting
	// accesses (the recovery observer's happens-before, §4).
	Conflict
)

// String names the edge class.
func (c EdgeClass) String() string {
	switch c {
	case ProgramOrder:
		return "program-order"
	case Atomicity:
		return "atomicity"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// NodeID indexes a persist node within its graph. Ids are 32 bits, so
// an Edge is 8 bytes and a frontier set holds 4-byte ids; Build
// rejects traces with more persists than ids.
type NodeID int32

// Edge is a directed constraint: the owning node persists only after
// node From.
type Edge struct {
	From  NodeID
	Class EdgeClass
}

// Node is one persist (one store/RMW event targeting NVRAM), or a
// manually declared persist in a hand-built graph.
type Node struct {
	ID NodeID
	// Event is the originating trace event (zero for manual nodes).
	Event trace.Event
	// Label names manual nodes (Figure 1 style examples).
	Label string
	// In holds incoming constraint edges (dependences), deduplicated.
	// Build omits the transitively redundant sources its cover labels
	// recognize (labels.go), so a built node's In is a
	// reachability-preserving reduction of its dependences.
	In []Edge
}

// Graph is a persist-order constraint graph. Nodes added by Build are
// topologically ordered by construction (every edge points backward);
// manually built graphs may contain cycles, which FindCycle exposes.
type Graph struct {
	Nodes []*Node
	// Params are the model parameters Build was called with (zero for
	// hand-built graphs).
	Params core.Params
	// Barriers holds, for a built graph, each annotation's effect in
	// trace order (see BarrierInfo); nil for hand-built graphs.
	Barriers []BarrierInfo
	// slab is preallocated node storage (see Grow): AddNode takes slots
	// from it while capacity lasts, so a trace build with a known persist
	// count performs one node allocation instead of one per persist.
	slab []Node
	// classes counts the dependences per edge class: see EdgeCounts.
	classes [numClasses]int
}

// numClasses is the number of edge classes.
const numClasses = int(Conflict) + 1

// Grow preallocates storage for n additional nodes. Nodes already added
// are unaffected. Grow is additive: a second call only replaces the
// node slab (or re-sizes Nodes) when the remaining capacity from the
// first call cannot hold n more nodes, so incremental builds that grow
// in steps don't pay a fresh allocation-and-copy per call.
func (g *Graph) Grow(n int) {
	if n <= 0 {
		return
	}
	if cap(g.slab)-len(g.slab) < n {
		g.slab = make([]Node, 0, n)
	}
	if cap(g.Nodes)-len(g.Nodes) < n {
		ns := make([]*Node, len(g.Nodes), len(g.Nodes)+n)
		copy(ns, g.Nodes)
		g.Nodes = ns
	}
}

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(label string, ev trace.Event) NodeID {
	id := NodeID(len(g.Nodes))
	var n *Node
	if len(g.slab) < cap(g.slab) {
		// The slab never grows (only Grow replaces it), so taken
		// pointers stay valid, and a slot is still zero: writing only
		// the fields a node sets spares the collector's write barrier
		// a copy of the whole node.
		g.slab = g.slab[:len(g.slab)+1]
		n = &g.slab[len(g.slab)-1]
		n.ID, n.Event = id, ev
		if label != "" {
			n.Label = label
		}
	} else {
		n = &Node{ID: id, Label: label, Event: ev}
	}
	g.Nodes = append(g.Nodes, n)
	return id
}

// AddEdge adds a constraint: to persists only after from. Duplicate
// (from, class) pairs on one node are ignored. The scan is linear;
// the trace builder uses its own O(1) dedup and only calls this on
// fresh pairs.
func (g *Graph) AddEdge(from, to NodeID, class EdgeClass) {
	n := g.Nodes[to]
	for _, e := range n.In {
		if e.From == from && e.Class == class {
			return
		}
	}
	n.In = append(n.In, Edge{From: from, Class: class})
	if int(class) < numClasses {
		g.classes[class]++
	}
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.Nodes) }

// EdgeCounts tallies constraint edges by class — the quantitative view
// of Figure 2: relaxing the model removes classes of edges. It counts
// every node's distinct dependences in the class Build gave each, as
// Build marked them, plus every edge AddEdge added. Build prunes the
// transitively redundant dependences from In (labels.go), so a built
// graph's counts exceed its In edges.
func (g *Graph) EdgeCounts() map[EdgeClass]int {
	out := make(map[EdgeClass]int)
	for c, n := range g.classes {
		if n > 0 {
			out[EdgeClass(c)] = n
		}
	}
	return out
}

// CriticalPath returns the longest dependence chain length (number of
// nodes on it). It must agree with core.Sim's level computation when
// coalescing is disabled; tests cross-validate the two.
//
// Every edge of a graph Build makes points backward, so node id order
// is topological and one loop over the nodes computes every depth. The
// loop checks each edge as it goes and allocates only the depth array;
// a hand-built graph with an edge out of id order (Figure 1 style)
// takes criticalPathDFS instead. Panics on cyclic graphs.
func (g *Graph) CriticalPath() int64 {
	depth := make([]int64, len(g.Nodes))
	var longest int64
	for i, n := range g.Nodes {
		d := int64(1)
		for _, e := range n.In {
			if int(e.From) >= i {
				return g.criticalPathDFS(depth)
			}
			d = max(d, depth[e.From]+1)
		}
		depth[i] = d
		longest = max(longest, d)
	}
	return longest
}

// criticalPathDFS is CriticalPath for graphs with edges out of id
// order: it rejects cycles with FindCycle, then memoizes each node's
// depth in a DFS over its dependences, reusing depth as the memo.
func (g *Graph) criticalPathDFS(depth []int64) int64 {
	if g.FindCycle() != nil {
		panic("graph: CriticalPath on cyclic graph")
	}
	clear(depth)
	var visit func(NodeID) int64
	visit = func(id NodeID) int64 {
		if depth[id] > 0 {
			return depth[id]
		}
		d := int64(1)
		for _, e := range g.Nodes[id].In {
			d = max(d, visit(e.From)+1)
		}
		depth[id] = d
		return d
	}
	var longest int64
	for i := range g.Nodes {
		longest = max(longest, visit(NodeID(i)))
	}
	return longest
}

// FindCycle returns the node ids of one directed cycle, or nil if the
// graph is acyclic. Edges are interpreted as From → node.
func (g *Graph) FindCycle() []NodeID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.Nodes))
	parent := make([]NodeID, len(g.Nodes))
	// succ lists for forward traversal.
	succ := make([][]NodeID, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, e := range n.In {
			succ[e.From] = append(succ[e.From], n.ID)
		}
	}
	var cycle []NodeID
	var dfs func(NodeID) bool
	dfs = func(u NodeID) bool {
		color[u] = gray
		for _, v := range succ[u] {
			if color[v] == gray {
				// Found a back edge v ... u -> v: reconstruct.
				cycle = []NodeID{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse into forward order v -> ... -> u.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := range g.Nodes {
		if color[i] == white && dfs(NodeID(i)) {
			return cycle
		}
	}
	return nil
}

// DOT renders the constraint graph in Graphviz format: persists as
// nodes (labeled with thread and address, or the manual label), edges
// colored by class (program-order black, atomicity red, conflict
// blue). Intended for small graphs — a few dozen inserts already make
// a poster.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", name)
	for _, n := range g.Nodes {
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("#%d t%d\\n%#x", n.Event.Seq, n.Event.TID, uint64(n.Event.Addr))
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n.ID, label)
	}
	color := map[EdgeClass]string{
		ProgramOrder: "black",
		Atomicity:    "red",
		Conflict:     "blue",
	}
	for _, n := range g.Nodes {
		for _, e := range n.In {
			fmt.Fprintf(&b, "  n%d -> n%d [color=%s];\n", e.From, n.ID, color[e.Class])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Build constructs the persist-order DAG of a trace under a persistency
// model. Parameters follow core.Params (granularities; coalescing is
// intentionally not modeled — see the package comment). The ordering
// rules are core.Kernel's, the ones core.Sim runs, in one lane, applied to
// dependence *frontiers* (sets of node ids) instead of scalar levels
// (see frontier.go). The graph records p and each annotation's effect
// (Barriers), so every checker of this (trace, model) pair can share it.
//
// The builder's working state comes from a pool (see builderPool), so a
// repeated Build allocates little beyond the graph it returns.
func Build(tr *trace.Trace, p core.Params) (*Graph, error) {
	b := builderPool.Get().(*builder)
	defer builderPool.Put(b)
	return b.build(tr, p)
}

// build is Build on b, which may hold state from earlier builds. It
// returns with b holding no reference to the graph.
func (b *builder) build(tr *trace.Trace, p core.Params) (*Graph, error) {
	// Pre-pass: one graph node per persist event and one BarrierInfo
	// per annotation, so both are sized exactly before building
	// (planes-only walks).
	n := tr.CountPersists()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d persists exceed the %d node ids", n, math.MaxInt32)
	}
	g := &Graph{Params: p}
	b.g = g
	defer b.drop()
	if err := b.k.Reset(&p, b, vset{}); err != nil {
		return nil, err
	}
	a := tr.CountAnnotations()
	b.reset(tr.Len(), n)
	b.lab.reset(tr.Len(), n, b.ver, b.k.Spec().Strands)
	g.Grow(n)
	if a > 0 {
		g.Barriers = make([]BarrierInfo, 0, a)
	}
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			e := c.Event(i)
			info := e.Kind.IsAnnotation()
			redundant := info && b.annotationRedundant(e)
			if err := b.k.Feed(e); err != nil {
				return nil, err
			}
			if info {
				t := b.k.Thread(e.TID)
				g.Barriers = append(g.Barriers, BarrierInfo{
					Seq:       e.Seq,
					TID:       e.TID,
					Kind:      e.Kind,
					Epoch:     t.Epoch + t.Strand,
					Redundant: redundant,
				})
			}
		}
		if len(b.lab.slab) > maxClaims {
			return nil, fmt.Errorf("graph: cover labels exceed %d claims", maxClaims)
		}
	}
	return g, nil
}

// builderPool recycles builders across Build calls, the way core's
// simulator pool recycles Sims: the kernel's block and thread tables,
// the subset-fact table, the mark array and the singleton and scratch
// buffers survive from one build to the next. Nothing a build returns
// lives in that state: the graph's node slab, edge slab and Barriers
// are its own, and the builder drops every reference to them before it
// goes back to the pool.
//
// Left-over state is harmless without clearing. Block-table slots carry
// their table's generation and take fresh values on first touch; versions
// keep counting across builds, so an old subset fact or published copy
// never matches a new set; stamps keep counting too, so an old mark
// never matches a new persist (reset clears the marks before the stamp
// could wrap). A pooled builder may pin the sets an earlier trace left
// in its block table until the pool drops it, which sync.Pool does
// after two garbage collections.
var builderPool = sync.Pool{New: func() any { return new(builder) }}

// reset readies a pooled builder for a trace of events events and
// persists persists.
func (b *builder) reset(events, persists int) {
	b.facts.reset(events)
	if uint64(b.stamp)+uint64(persists) > math.MaxUint32 {
		clear(b.mark)
		b.stamp = 0
	}
	if c := min(persists, idChunk); cap(b.idSlab) < c {
		b.idSlab = make([]NodeID, 0, c)
	} else {
		b.idSlab = b.idSlab[:0]
	}
	b.lastPub = vset{}
}

// drop lets go of the graph b built and of the edge slab its nodes
// point into.
func (b *builder) drop() { b.g, b.edgeSlab = nil, nil }

// builder supplies core.Kernel's rules over frontier sets. A thread's
// three frontiers are id sets (frontier.go) owned by the thread and
// updated in place; they are never stored in a block frontier
// (publishing one copies it, see publish), so in-place updates cannot
// leak. Only Active and Pending are versioned: EpochMax is never an
// operand of a versioned union or subset test, so its version stays 0
// whatever ids it holds.
type builder struct {
	k core.Kernel[vset, *builder]
	g *Graph
	// mark dedups a persist's edge sources: node n is already a source
	// of the current persist iff mark[n] == stamp. Each persist takes a
	// fresh stamp, so the array is never cleared between persists.
	mark  []uint32
	stamp uint32
	// ver is the last version drawn (see fresh); facts holds proven
	// subset relations between versions.
	ver   uint64
	facts subsetFacts
	// lastPub is the latest copy publish made of a thread-owned set.
	lastPub vset
	// Scratch and slabs, reused across events.
	tmp      []NodeID
	idSlab   []NodeID
	edgeSlab []Edge
	// lab holds the build's cover labels (labels.go).
	lab labels
}

// Import, Export and Join are the set unions of frontier.go.
func (b *builder) Import(dst *vset, src vset) { b.absorb(dst, src) }
func (b *builder) Export(v, t vset) vset      { return b.publish(v, t) }
func (b *builder) Join(a, c vset) vset        { return b.union(a, c) }

// Bind closes the thread's epoch.
func (b *builder) Bind(t *core.Thread[vset]) {
	// Every persist of the closing epoch carries edges from the old
	// active set, so when the epoch persisted anything the old set is
	// dominated and can be dropped — the frontier pruning that keeps
	// dependence sets bounded.
	switch {
	case len(t.EpochMax.ids) == 0:
		b.absorb(&t.Active, t.Pending)
	case len(t.Pending.ids) == 0:
		// The new set is the epoch's persists, copied as they are
		// (sparse) into the old set's storage.
		t.Active = b.fresh(append(t.Active.ids[:0], t.EpochMax.ids...), b.epochLabel(t.EpochMax.ids))
	default:
		// The new set is built in the old one's storage.
		n := t.Pending.ids.size() + missing(t.Pending.ids, t.EpochMax.ids)
		lab := b.lab.lazy(b.labelOf(t.Pending), b.epochLabel(t.EpochMax.ids))
		t.Active = b.fresh(unionInto(t.Active.ids, t.Pending.ids, t.EpochMax.ids, n), lab)
	}
	// Keep pending's and epochMax's storage too: the next epoch refills
	// them.
	t.Pending = vset{ids: t.Pending.ids[:0]}
	t.EpochMax = vset{ids: t.EpochMax.ids[:0]}
}

// Clear empties the thread's frontiers, keeping their storage.
func (b *builder) Clear(t *core.Thread[vset]) {
	t.Active = vset{ids: t.Active.ids[:0]}
	t.Pending = vset{ids: t.Pending.ids[:0]}
	t.EpochMax = vset{ids: t.EpochMax.ids[:0]}
}

// The graph has no use for work marks.
func (*builder) WorkMark(trace.Event) {}

// settle adds persist id to its thread's EpochMax. Ids grow with the
// trace, so appending keeps EpochMax sorted. Everything the persist
// depends on is now dominated by it; its sources (see sourced) are
// scrubbed from pending rather than the block contexts added (they
// would only produce redundant edges). A scrub that removed something
// changes the set, so it takes a fresh version; it keeps its label
// (labels.go).
func (b *builder) settle(t *core.Thread[vset], id NodeID, act nodeVec) {
	t.EpochMax.ids = append(t.EpochMax.ids, id)
	p, before := t.Pending.ids, t.Pending.ids.size()
	if p.dense() {
		p = b.scrub(p, act)
	} else {
		p = slices.DeleteFunc(p, func(from NodeID) bool { return b.sourced(from, act) })
	}
	if p.size() < before {
		t.Pending = b.fresh(p, b.labelOf(t.Pending))
	}
}

// sourced reports whether id is a source of the current persist: it
// carries the persist's stamp, or it is a member of act, the persist's
// unmarked dense active set (nil: none).
func (b *builder) sourced(id NodeID, act nodeVec) bool {
	return b.mark[id] == b.stamp || act != nil && act.has(id)
}

// nextStamp starts a fresh dedup generation, first sizing the mark
// array to cover every node added so far. Build pre-grows the graph to
// its persist count, so the array grows at most once per build, and a
// pooled builder keeps it. Stamps count persists across builds; reset
// clears the array and restarts them before a build could wrap them.
func (b *builder) nextStamp() {
	if n := b.g.Len(); len(b.mark) < n {
		b.mark = append(b.mark, make([]uint32, max(n, cap(b.g.Nodes))-len(b.mark))...)
	}
	b.stamp++
}
