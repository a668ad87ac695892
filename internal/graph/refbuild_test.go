package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

// This file retains an earlier per-block builder as a test-only
// reference implementation. The production builder keeps its
// dependence frontiers in paged block tables (frontier.go); the
// reference keeps a map[BlockID]*refBlock with nodeSet frontiers, the
// way the builder worked before, and walks each set in ascending order.
// The differential tests below assert the two produce the same graphs
// (requireSameGraph: the same transitive closure and Fig 2 class
// counts, and a subsequence of the reference's edges, since Build
// prunes the redundant ones),
// critical paths and cut spaces across the full model matrix, random
// traces, PSO machine traces, and coarse tracking granularities;
// kv_test.go adds KV serving traces.

// nodeSet is the reference builder's frontier: a plain set of node ids.
type nodeSet map[NodeID]struct{}

func (s nodeSet) add(ids ...NodeID) nodeSet {
	if s == nil {
		s = make(nodeSet)
	}
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

func (s nodeSet) union(o nodeSet) nodeSet {
	if len(o) == 0 {
		return s
	}
	if s == nil {
		s = make(nodeSet)
	}
	for id := range o {
		s[id] = struct{}{}
	}
	return s
}

func (s nodeSet) clone() nodeSet {
	c := make(nodeSet, len(s))
	for id := range s {
		c[id] = struct{}{}
	}
	return c
}

type refThread struct {
	active   nodeSet
	pending  nodeSet
	epochMax nodeSet
}

type refBlock struct {
	writer nodeSet
	reader nodeSet
	lastP  NodeID // -1 when none
}

type refBuilder struct {
	g        *Graph
	p        core.Params
	strict   bool
	barriers bool
	strands  bool
	lbs      bool
	volc     bool
	threads  map[int32]*refThread
	blocks   map[memory.BlockID]*refBlock
	seen     []NodeID
	touched  []*refBlock
}

func newRefBuilder(p core.Params) (*refBuilder, error) {
	if p.TrackingGranularity == 0 {
		p.TrackingGranularity = memory.WordSize
	}
	if !memory.IsPowerOfTwo(p.TrackingGranularity) {
		return nil, fmt.Errorf("graph: bad tracking granularity %d", p.TrackingGranularity)
	}
	b := &refBuilder{
		g:       &Graph{},
		p:       p,
		threads: make(map[int32]*refThread),
		blocks:  make(map[memory.BlockID]*refBlock),
	}
	switch p.Model {
	case core.Strict:
		b.strict, b.lbs, b.volc = true, true, true
	case core.Epoch:
		b.barriers, b.lbs, b.volc = true, true, true
	case core.EpochTSO:
		b.barriers = true
	case core.Strand:
		b.barriers, b.strands, b.lbs, b.volc = true, true, true, true
	default:
		return nil, fmt.Errorf("graph: unknown model %v", p.Model)
	}
	return b, nil
}

func refBuild(tr *trace.Trace, p core.Params) (*Graph, error) {
	b, err := newRefBuilder(p)
	if err != nil {
		return nil, err
	}
	b.g.Grow(tr.CountPersists())
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			if err := b.feed(c.Event(i)); err != nil {
				return nil, err
			}
		}
	}
	return b.g, nil
}

// sorted returns the set's ids in ascending order. The reference walks
// its sets in this order, so it emits every node's edges in the order
// the production builder does and the two can be compared edge for
// edge, not only as sets.
func (s nodeSet) sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (b *refBuilder) thread(tid int32) *refThread {
	t, ok := b.threads[tid]
	if !ok {
		t = &refThread{}
		b.threads[tid] = t
	}
	return t
}

func (b *refBuilder) block(id memory.BlockID) *refBlock {
	bs, ok := b.blocks[id]
	if !ok {
		bs = &refBlock{lastP: -1}
		b.blocks[id] = bs
	}
	return bs
}

func (b *refBuilder) eachBlock(e trace.Event, fn func(*refBlock)) {
	first, last := memory.BlockSpan(e.Addr, int(e.Size), b.p.TrackingGranularity)
	for blk := first; blk <= last; blk++ {
		fn(b.block(blk))
	}
}

func (b *refBuilder) feed(e trace.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	switch e.Kind {
	case trace.Load:
		if !b.volc && !memory.IsPersistent(e.Addr) {
			return nil
		}
		t := b.thread(e.TID)
		b.eachBlock(e, func(bs *refBlock) {
			if b.strict {
				t.active = t.active.union(bs.writer)
			} else {
				t.pending = t.pending.union(bs.writer)
			}
			if b.lbs {
				bs.reader = bs.reader.union(t.active)
			}
		})
	case trace.Store, trace.RMW:
		if memory.IsPersistent(e.Addr) {
			b.persist(e)
		} else if b.volc {
			t := b.thread(e.TID)
			b.eachBlock(e, func(bs *refBlock) {
				inherit := bs.writer.clone().union(bs.reader)
				if b.strict {
					t.active = t.active.union(inherit)
				} else {
					t.pending = t.pending.union(inherit)
				}
				bs.writer = bs.writer.union(bs.reader).union(t.active)
				bs.reader = nil
			})
		}
	case trace.PersistBarrier:
		if b.barriers {
			b.bindEpoch(b.thread(e.TID))
		}
	case trace.NewStrand:
		if b.strands {
			t := b.thread(e.TID)
			t.active, t.pending, t.epochMax = nil, nil, nil
		}
	case trace.PersistSync:
		b.bindEpoch(b.thread(e.TID))
	case trace.Malloc, trace.Free, trace.BeginWork, trace.EndWork:
	}
	return nil
}

func (b *refBuilder) bindEpoch(t *refThread) {
	if len(t.epochMax) > 0 {
		t.active = t.pending.clone().union(t.epochMax)
	} else {
		t.active = t.active.union(t.pending)
	}
	t.pending = nil
	t.epochMax = nil
}

func (b *refBuilder) persist(e trace.Event) {
	t := b.thread(e.TID)
	id := b.g.AddNode("", e)

	b.seen = b.seen[:0]
	addEdge := func(from NodeID, class EdgeClass) {
		for _, s := range b.seen {
			if s == from {
				return
			}
		}
		b.seen = append(b.seen, from)
		n := b.g.Nodes[id]
		n.In = append(n.In, Edge{From: from, Class: class})
		b.g.classes[class]++
	}

	b.touched = b.touched[:0]
	b.eachBlock(e, func(bs *refBlock) {
		if bs.lastP >= 0 {
			addEdge(bs.lastP, Atomicity)
		}
		b.touched = append(b.touched, bs)
	})
	for _, bs := range b.touched {
		for _, from := range bs.writer.sorted() {
			addEdge(from, Conflict)
		}
		for _, from := range bs.reader.sorted() {
			addEdge(from, Conflict)
		}
	}
	for _, from := range t.active.sorted() {
		addEdge(from, ProgramOrder)
	}

	if b.strict {
		t.active = nodeSet{}.add(id)
	} else {
		t.epochMax = t.epochMax.add(id)
		for _, from := range b.seen {
			delete(t.pending, from)
		}
	}
	for _, bs := range b.touched {
		bs.writer = nodeSet{}.add(id)
		bs.reader = nil
		bs.lastP = id
	}
}

// requireSameGraph asserts that Build's graph got matches the
// reference builder's want: node-for-node equal events, equal Fig 2
// class counts, and, since Build drops the sources its cover labels
// prove redundant, each node's edges a subsequence of the reference's
// (same sources, classes and order, some left out) and every node with
// the same ancestors.
func requireSameGraph(t testing.TB, ctx string, got, want *Graph) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d nodes, reference has %d", ctx, got.Len(), want.Len())
	}
	for i, wn := range want.Nodes {
		gn := got.Nodes[i]
		if gn.Event != wn.Event {
			t.Fatalf("%s: node %d event %+v, reference %+v", ctx, i, gn.Event, wn.Event)
		}
		if !isSubsequence(gn.In, wn.In) {
			t.Fatalf("%s: node %d edges are not a subsequence of the reference's\n got: %v\nwant: %v", ctx, i, gn.In, wn.In)
		}
	}
	if gc, wc := got.EdgeCounts(), want.EdgeCounts(); !maps.Equal(gc, wc) {
		t.Fatalf("%s: class counts %v, reference %v", ctx, gc, wc)
	}
	ga, wa := ancestors(got), ancestors(want)
	for i := range wa {
		if !slices.Equal(ga[i], wa[i]) {
			t.Fatalf("%s: node %d has other ancestors than in the reference", ctx, i)
		}
	}
}

// isSubsequence reports whether sub is want with some edges left out.
func isSubsequence(sub, want []Edge) bool {
	j := 0
	for _, e := range want {
		if j < len(sub) && sub[j] == e {
			j++
		}
	}
	return j == len(sub)
}

// ancestors returns each node's transitive closure as a bitset over
// node ids (bit j of word j/64), computed from the In edges of a graph
// whose edges all point backward.
func ancestors(g *Graph) [][]uint64 {
	words := (g.Len() + 63) / 64
	anc := make([][]uint64, g.Len())
	for i, n := range g.Nodes {
		a := make([]uint64, words)
		for _, e := range n.In {
			a[e.From>>6] |= 1 << (uint(e.From) & 63)
			for w, x := range anc[e.From] {
				a[w] |= x
			}
		}
		anc[i] = a
	}
	return anc
}

// TestIntervalBuilderMatchesReference is the main differential test:
// on random traces across every model and at both word and coarse
// tracking granularity, the frontier-set builder and the retained
// per-block reference builder must produce the same graphs (see
// requireSameGraph), critical paths, and sampled cuts.
func TestIntervalBuilderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 200)
		for _, m := range core.Models {
			for _, gran := range []uint64{0, 32} {
				p := core.Params{Model: m, TrackingGranularity: gran}
				ctx := fmt.Sprintf("seed %d model %v gran %d", seed, m, gran)
				want, err := refBuild(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Build(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGraph(t, ctx, got, want)
				if gc, wc := got.CriticalPath(), want.CriticalPath(); gc != wc {
					t.Fatalf("%s: critical path %d, reference %d", ctx, gc, wc)
				}
				// Equal closures imply equal cut spaces; sample both
				// with one seed as a belt-and-suspenders check (SampleCut
				// depends only on the closure).
				r1 := rand.New(rand.NewSource(seed))
				r2 := rand.New(rand.NewSource(seed))
				for _, keep := range []float64{0.2, 0.8} {
					c1, c2 := got.SampleCut(r1, keep), want.SampleCut(r2, keep)
					for i := range c1.Included {
						if c1.Included[i] != c2.Included[i] {
							t.Fatalf("%s keep=%v: cut diverges at node %d", ctx, keep, i)
						}
					}
					if !want.Valid(c1) || !got.Valid(c2) {
						t.Fatalf("%s keep=%v: cut invalid under the other builder", ctx, keep)
					}
				}
			}
		}
	}
}

// TestIntervalBuilderMatchesReferenceOnPSO repeats the differential
// check on machine-generated traces whose store visibility was
// reordered by the PSO consistency model, including multi-word stores
// crossing block boundaries at coarse granularity.
func TestIntervalBuilderMatchesReferenceOnPSO(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := psoTrace(seed, 30)
		for _, mo := range core.Models {
			for _, gran := range []uint64{0, 32} {
				p := core.Params{Model: mo, TrackingGranularity: gran}
				ctx := fmt.Sprintf("pso seed %d model %v gran %d", seed, mo, gran)
				want, err := refBuild(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Build(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGraph(t, ctx, got, want)
				if gc, wc := got.CriticalPath(), want.CriticalPath(); gc != wc {
					t.Fatalf("%s: critical path %d, reference %d", ctx, gc, wc)
				}
			}
		}
	}
}

// TestIntervalBuilderCutSpace exhaustively enumerates the consistent
// cuts of both builders' graphs on small traces and asserts the cut
// spaces are identical (count and membership).
func TestIntervalBuilderCutSpace(t *testing.T) {
	for seed := int64(50); seed < 58; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 40)
		for _, m := range core.Models {
			p := core.Params{Model: m}
			want, err := refBuild(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() > 18 {
				continue // keep enumeration tractable
			}
			key := func(c Cut) string {
				b := make([]byte, len(c.Included))
				for i, in := range c.Included {
					if in {
						b[i] = '1'
					} else {
						b[i] = '0'
					}
				}
				return string(b)
			}
			wcuts := map[string]bool{}
			want.EnumerateCuts(func(c Cut) bool { wcuts[key(c)] = true; return true })
			n := 0
			got.EnumerateCuts(func(c Cut) bool {
				n++
				if !wcuts[key(c)] {
					t.Fatalf("seed %d model %v: cut %s not in reference space", seed, m, key(c))
				}
				return true
			})
			if n != len(wcuts) {
				t.Fatalf("seed %d model %v: %d cuts, reference %d", seed, m, n, len(wcuts))
			}
		}
	}
}
