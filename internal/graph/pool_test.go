package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/trace"
)

// graphDiff describes the first difference between two graphs (params,
// nodes with their edges in order, class counts, barrier report), or
// returns "".
func graphDiff(got, want *Graph) string {
	if got.Params != want.Params {
		return fmt.Sprintf("params %+v, want %+v", got.Params, want.Params)
	}
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d nodes, want %d", got.Len(), want.Len())
	}
	for i, wn := range want.Nodes {
		gn := got.Nodes[i]
		if gn.ID != wn.ID || gn.Event != wn.Event || gn.Label != wn.Label || !slices.Equal(gn.In, wn.In) {
			return fmt.Sprintf("node %d: %+v, want %+v", i, *gn, *wn)
		}
	}
	if got.classes != want.classes {
		return fmt.Sprintf("class counts %v, want %v", got.classes, want.classes)
	}
	if !slices.Equal(got.Barriers, want.Barriers) {
		return fmt.Sprintf("barriers %v, want %v", got.Barriers, want.Barriers)
	}
	return ""
}

// cloneGraph copies g's nodes, edges and barrier report into storage
// of its own.
func cloneGraph(g *Graph) *Graph {
	c := &Graph{Params: g.Params, Barriers: slices.Clone(g.Barriers), classes: g.classes}
	for _, n := range g.Nodes {
		cn := *n
		cn.In = slices.Clone(n.In)
		c.Nodes = append(c.Nodes, &cn)
	}
	return c
}

func mustBuildWith(t *testing.T, b *builder, tr *trace.Trace, p core.Params) *Graph {
	t.Helper()
	g, err := b.build(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.g != nil || b.edgeSlab != nil {
		t.Fatal("builder kept a reference to the graph it returned")
	}
	return g
}

// TestBuilderReuseLeaksNothing builds trace A, then a larger trace B
// under another model and tracking granularity, then A again, all on
// one builder: the two graphs of A must be equal, edges and barrier
// report included, the first must be untouched by the later builds,
// and B's graph must equal a fresh builder's.
func TestBuilderReuseLeaksNothing(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ta, tb := randomTrace(rng, 200), randomTrace(rng, 2000)
		ma, mb := core.Models[int(seed)%len(core.Models)], core.Models[int(seed+1)%len(core.Models)]
		pa := core.Params{Model: ma}
		pb := core.Params{Model: mb, TrackingGranularity: 64}
		ctx := fmt.Sprintf("seed %d: A %v, B %v", seed, ma, mb)

		b := new(builder)
		a1 := mustBuildWith(t, b, ta, pa)
		snap := cloneGraph(a1)
		gb := mustBuildWith(t, b, tb, pb)
		a2 := mustBuildWith(t, b, ta, pa)
		if d := graphDiff(a2, a1); d != "" {
			t.Fatalf("%s: A rebuilt after B differs: %s", ctx, d)
		}
		if d := graphDiff(a1, snap); d != "" {
			t.Fatalf("%s: A's first graph changed under later builds: %s", ctx, d)
		}
		if d := graphDiff(gb, mustBuildWith(t, new(builder), tb, pb)); d != "" {
			t.Fatalf("%s: B on a used builder differs from a fresh build: %s", ctx, d)
		}
		ref, err := refBuild(ta, pa)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, ctx+" A vs reference", a2, ref)
	}
}

// TestBuilderStampRestart pins the reset before the dedup stamp could
// wrap: a build that starts near the top of the stamp range clears the
// marks, restarts the stamps and builds the same graph.
func TestBuilderStampRestart(t *testing.T) {
	tr := benchTrace(2000)
	p := core.Params{Model: core.Epoch}
	b := new(builder)
	want := mustBuildWith(t, b, tr, p)
	b.stamp = math.MaxUint32 - 10
	got := mustBuildWith(t, b, tr, p)
	if d := graphDiff(got, want); d != "" {
		t.Fatalf("build after a stamp restart differs: %s", d)
	}
	if n := uint32(want.Len()); b.stamp != n {
		t.Fatalf("stamp %d after the restarted build, want %d (one per persist)", b.stamp, n)
	}
}

// TestConcurrentBuildsMatchSequential runs pooled builds of different
// traces on several goroutines at once (run it under -race): each must
// equal its trace's sequential build.
func TestConcurrentBuildsMatchSequential(t *testing.T) {
	type job struct {
		tr   *trace.Trace
		p    core.Params
		want *Graph
	}
	var jobs []job
	rng := rand.New(rand.NewSource(7))
	for i := range 8 {
		tr := randomTrace(rng, 100+300*i)
		p := core.Params{Model: core.Models[i%len(core.Models)], TrackingGranularity: uint64(8 << (i % 3))}
		jobs = append(jobs, job{tr: tr, p: p, want: cloneGraph(mustBuild(t, tr, p))})
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 * len(jobs) {
				j := jobs[(w+r)%len(jobs)]
				g, err := Build(j.tr, j.p)
				if err != nil {
					t.Error(err)
					return
				}
				if d := graphDiff(g, j.want); d != "" {
					t.Errorf("worker %d, job %d: %s", w, (w+r)%len(jobs), d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// graphBytes is the storage a built graph owns: the Graph, its node
// pointers, node slab, barrier report and edges.
func graphBytes(g *Graph) uint64 {
	n := unsafe.Sizeof(Graph{}) + uintptr(cap(g.Nodes))*unsafe.Sizeof((*Node)(nil)) +
		uintptr(cap(g.slab))*unsafe.Sizeof(Node{}) + uintptr(cap(g.Barriers))*unsafe.Sizeof(BarrierInfo{})
	for _, nd := range g.Nodes {
		n += uintptr(len(nd.In)) * unsafe.Sizeof(Edge{})
	}
	return uint64(n)
}

// TestWarmBuildAllocatesOnlyItsGraph guards the builder's reuse: on a
// write-only trace (whose builds publish no union, so the builder's
// own allocations are all working state), a build on a used builder
// allocates its graph's storage plus at most warmSlack bytes: the
// unused tail of edge slab chunks and a few small objects.
func TestWarmBuildAllocatesOnlyItsGraph(t *testing.T) {
	const warmSlack = 64 << 10
	tr := benchTrace(20000)
	for _, m := range []core.Model{core.Strict, core.Epoch} {
		p := core.Params{Model: m}
		b := new(builder)
		mustBuildWith(t, b, tr, p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := mustBuildWith(t, b, tr, p)
		runtime.ReadMemStats(&after)
		got, own := after.TotalAlloc-before.TotalAlloc, graphBytes(g)
		if got > own+warmSlack {
			t.Errorf("%v: warm build allocated %d bytes, its graph holds %d (slack %d)", m, got, own, warmSlack)
		}
		t.Logf("%v: warm build allocated %d bytes, graph %d", m, got, own)
	}
}
