package graph

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

func paddr(i uint64) memory.Addr { return memory.PersistentBase + memory.Addr(i*64) }
func vaddr(i uint64) memory.Addr { return memory.VolatileBase + memory.Addr(i*64) }

type tb struct{ tr trace.Trace }

func (b *tb) store(tid int32, a memory.Addr, v uint64) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: a, Size: 8, Val: v})
}
func (b *tb) load(tid int32, a memory.Addr) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: a, Size: 8})
}
func (b *tb) barrier(tid int32)   { b.tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier}) }
func (b *tb) newStrand(tid int32) { b.tr.Emit(trace.Event{TID: tid, Kind: trace.NewStrand}) }

func mustBuild(t *testing.T, tr *trace.Trace, p core.Params) *Graph {
	t.Helper()
	g, err := Build(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildStrictChain(t *testing.T) {
	var b tb
	b.store(0, paddr(0), 1)
	b.store(0, paddr(1), 2)
	b.store(0, paddr(2), 3)
	g := mustBuild(t, &b.tr, core.Params{Model: core.Strict})
	if g.Len() != 3 {
		t.Fatalf("nodes = %d", g.Len())
	}
	if g.CriticalPath() != 3 {
		t.Fatalf("critical path = %d", g.CriticalPath())
	}
	counts := g.EdgeCounts()
	if counts[ProgramOrder] != 2 {
		t.Fatalf("program-order edges = %d, want 2", counts[ProgramOrder])
	}
	if g.FindCycle() != nil {
		t.Fatal("trace-built graph must be acyclic")
	}
}

func TestBuildEpochConcurrent(t *testing.T) {
	var b tb
	b.store(0, paddr(0), 1)
	b.store(0, paddr(1), 2)
	b.barrier(0)
	b.store(0, paddr(2), 3)
	g := mustBuild(t, &b.tr, core.Params{Model: core.Epoch})
	if g.CriticalPath() != 2 {
		t.Fatalf("critical path = %d", g.CriticalPath())
	}
	// Node 2 depends on both epoch-0 persists via program order.
	if len(g.Nodes[2].In) != 2 {
		t.Fatalf("node 2 in-edges = %v", g.Nodes[2].In)
	}
}

func TestBuildAtomicityEdges(t *testing.T) {
	var b tb
	b.store(0, paddr(0), 1)
	b.store(1, paddr(0), 2) // same address, other thread, no sync
	g := mustBuild(t, &b.tr, core.Params{Model: core.Epoch})
	counts := g.EdgeCounts()
	if counts[Atomicity] != 1 {
		t.Fatalf("atomicity edges = %d, want 1", counts[Atomicity])
	}
	if g.CriticalPath() != 2 {
		t.Fatalf("critical path = %d", g.CriticalPath())
	}
}

func TestBuildConflictEdges(t *testing.T) {
	var b tb
	b.store(0, paddr(0), 1)
	b.barrier(0)
	b.store(0, vaddr(0), 1) // flag
	b.load(1, vaddr(0))
	b.barrier(1)
	b.store(1, paddr(1), 2)
	g := mustBuild(t, &b.tr, core.Params{Model: core.Epoch})
	counts := g.EdgeCounts()
	if counts[ProgramOrder] != 1 {
		// The persist on T1 is ordered after T0's persist, observed via
		// the conflict on the flag; the dependence binds at T1's barrier
		// so it arrives as a ProgramOrder (post-barrier) edge.
		t.Fatalf("edges: %v", counts)
	}
	if g.CriticalPath() != 2 {
		t.Fatalf("critical path = %d", g.CriticalPath())
	}
}

// TestGraphMatchesSimWithoutCoalescing cross-validates the DAG builder
// against the streaming simulator: with coalescing disabled they must
// compute identical critical paths on the same trace, for every model.
func TestGraphMatchesSimWithoutCoalescing(t *testing.T) {
	var b tb
	// A gnarly two-thread workload with barriers, strands, same-address
	// persists, volatile flags, and reads.
	for i := uint64(0); i < 12; i++ {
		tid := int32(i % 2)
		b.barrier(tid)
		b.store(tid, paddr(5+i), i)
		b.store(tid, paddr(5+i), i+1) // same-address re-persist
		b.load(tid, paddr(0))
		b.barrier(tid)
		b.store(tid, paddr(0), i) // shared head
		if i%3 == 0 {
			b.newStrand(tid)
		}
		b.store(tid, vaddr(0), i)
		b.load(int32((i+1)%2), vaddr(0))
	}
	for _, m := range core.Models {
		p := core.Params{Model: m, NoCoalescing: true}
		r, err := core.Simulate(&b.tr, p)
		if err != nil {
			t.Fatal(err)
		}
		g := mustBuild(t, &b.tr, core.Params{Model: m})
		if got, want := g.CriticalPath(), r.CriticalPath; got != want {
			t.Errorf("%v: graph critical path %d != sim %d", m, got, want)
		}
	}
}

func TestFigure1Cycle(t *testing.T) {
	// The paper's Figure 1: thread 1 persists A then B (persist barrier
	// between), thread 2 persists B then A (barrier between). Thread 1's
	// store *visibility* reorders, so coherence serializes B as
	// (T1's B) -> (T2's B) and A as (T2's A) -> (T1's A). Persist
	// barriers plus strong persist atomicity then form a cycle,
	// demonstrating that store visibility cannot reorder across persist
	// barriers while keeping strong persist atomicity.
	var g Graph
	t1A := g.AddNode("T1: persist A", trace.Event{})
	t1B := g.AddNode("T1: persist B", trace.Event{})
	t2B := g.AddNode("T2: persist B", trace.Event{})
	t2A := g.AddNode("T2: persist A", trace.Event{})
	g.AddEdge(t1A, t1B, ProgramOrder) // T1 barrier
	g.AddEdge(t2B, t2A, ProgramOrder) // T2 barrier
	g.AddEdge(t1B, t2B, Atomicity)    // B coherence order
	g.AddEdge(t2A, t1A, Atomicity)    // A coherence order
	cyc := g.FindCycle()
	if cyc == nil {
		t.Fatal("Figure 1 constraints must form a cycle")
	}
	if len(cyc) != 4 {
		t.Fatalf("cycle length = %d, want 4", len(cyc))
	}
	// Resolution 1 (paper): couple persist and store barriers — the
	// visibility order then matches program order, flipping the B edge.
	var g2 Graph
	a1 := g2.AddNode("T1: persist A", trace.Event{})
	b1 := g2.AddNode("T1: persist B", trace.Event{})
	b2 := g2.AddNode("T2: persist B", trace.Event{})
	a2 := g2.AddNode("T2: persist A", trace.Event{})
	g2.AddEdge(a1, b1, ProgramOrder)
	g2.AddEdge(b2, a2, ProgramOrder)
	g2.AddEdge(b2, b1, Atomicity) // T2's B first now
	g2.AddEdge(a2, a1, Atomicity)
	if g2.FindCycle() != nil {
		t.Fatal("coupled barriers must resolve the cycle")
	}
	// Resolution 2 (paper): relax strong persist atomicity — drop the
	// atomicity edges.
	var g3 Graph
	x1 := g3.AddNode("T1: persist A", trace.Event{})
	y1 := g3.AddNode("T1: persist B", trace.Event{})
	y2 := g3.AddNode("T2: persist B", trace.Event{})
	x2 := g3.AddNode("T2: persist A", trace.Event{})
	g3.AddEdge(x1, y1, ProgramOrder)
	g3.AddEdge(y2, x2, ProgramOrder)
	if g3.FindCycle() != nil {
		t.Fatal("dropping atomicity must resolve the cycle")
	}
}

func TestEdgeClassStrings(t *testing.T) {
	if ProgramOrder.String() == "" || Atomicity.String() == "" || Conflict.String() == "" {
		t.Fatal("edge class names empty")
	}
	if EdgeClass(9).String() != "class(9)" {
		t.Fatal("unknown class string")
	}
}

func TestDOT(t *testing.T) {
	var b tb
	b.store(0, paddr(0), 1)
	b.store(0, paddr(0), 2)
	g := mustBuild(t, &b.tr, core.Params{Model: core.Epoch})
	dot := g.DOT("example")
	for _, want := range []string{"digraph", "n0", "n1", "color=red", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Manual labels render.
	var m Graph
	m.AddNode("T1: persist A", trace.Event{})
	if !strings.Contains(m.DOT("fig1"), "T1: persist A") {
		t.Fatal("manual label missing")
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	var g Graph
	a := g.AddNode("a", trace.Event{})
	b := g.AddNode("b", trace.Event{})
	g.AddEdge(a, b, ProgramOrder)
	g.AddEdge(a, b, ProgramOrder)
	g.AddEdge(a, b, Atomicity) // different class: kept
	if len(g.Nodes[b].In) != 2 {
		t.Fatalf("in edges = %v", g.Nodes[b].In)
	}
}

// TestBuildErrors pins Build's error paths: an invalid event aborts it,
// without a panic, with the error trace.Event.Validate reports for it,
// and an unknown model is refused.
func TestBuildErrors(t *testing.T) {
	var b tb
	b.store(0, paddr(0), 1)
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: paddr(0) + 8, Size: 0, Val: 1}) // bad size
	var verr error
	for e := range b.tr.All() {
		if err := e.Validate(); err != nil {
			verr = err
		}
	}
	if verr == nil {
		t.Fatal("fixture has no invalid event")
	}
	for _, m := range core.Models {
		p := core.Params{Model: m}
		if _, err := Build(&b.tr, p); err == nil || err.Error() != verr.Error() {
			t.Errorf("%v: Build error %v, want %v", m, err, verr)
		}
	}
	var ok tb
	ok.store(0, paddr(0), 1)
	if _, err := Build(&ok.tr, core.Params{Model: core.Model(99)}); err == nil {
		t.Error("Build accepted unknown model")
	}
}

// epochProbe collects the epoch of every persist record.
type epochProbe struct{ epochs []int64 }

func (p *epochProbe) PersistPlaced(r core.PersistRecord) { p.epochs = append(p.epochs, r.Epoch) }
func (*epochProbe) EpochMark(int32, int64, int64, bool)  {}
func (*epochProbe) StrandMark(int32, int64, int64)       {}
func (*epochProbe) WorkMark(int32, int64, uint64, bool)  {}

// TestBarrierInfoEpochCountsStrands pins what BarrierInfo.Epoch counts:
// every annotation, strands included, where a persist record's Epoch
// counts barriers and syncs only.
func TestBarrierInfoEpochCountsStrands(t *testing.T) {
	var b tb
	b.newStrand(0)
	b.store(0, paddr(0), 1)
	b.barrier(0)
	b.store(0, paddr(1), 2)
	p := core.Params{Model: core.Strand}
	g, err := Build(&b.tr, p)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, in := range g.Barriers {
		got = append(got, in.Epoch)
	}
	if !slices.Equal(got, []int64{1, 2}) {
		t.Errorf("BarrierInfo epochs = %v, want [1 2]", got)
	}
	s := core.MustNewSim(p)
	var probe epochProbe
	s.SetProbe(&probe)
	for e := range b.tr.All() {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(probe.epochs, []int64{0, 1}) {
		t.Errorf("persist record epochs = %v, want [0 1]", probe.epochs)
	}
}
