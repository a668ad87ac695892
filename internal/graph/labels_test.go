package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/trace"
)

// psoTrace runs three machine threads under the PSO consistency model:
// each stores n words to its own persistent region, with a barrier
// every fifth store and a fenced increment of a shared volatile flag
// every seventh, so store visibility is reordered and threads conflict.
func psoTrace(seed int64, n uint64) *trace.Trace {
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 3, Seed: seed, Sink: tr, Consistency: exec.PSO})
	s := m.SetupThread()
	base := s.MallocPersistent(1024, 64)
	flag := s.MallocVolatile(8, 8)
	m.Run(func(th *exec.Thread) {
		for i := uint64(0); i < n; i++ {
			th.Store8(base+memory.Addr(th.TID()*256)+memory.Addr((i%4)*8), i)
			if i%5 == 0 {
				th.PersistBarrier()
			}
			if i%7 == 0 {
				th.Fence()
				th.Add8(flag, 1)
			}
		}
	})
	return tr
}

// checkLabels builds tr under the epoch model p on a fresh builder and
// checks every claim of every node's cover label against the graph's
// transitive closure: a claim (u, f) must have every persist of thread
// u in u's epochs up to f as a proper ancestor of the node. It returns
// the number of claims checked.
func checkLabels(t testing.TB, ctx string, tr *trace.Trace, p core.Params) int {
	t.Helper()
	b := new(builder)
	g, err := b.build(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	l := &b.lab
	if !l.on {
		t.Fatalf("%s: build is not labeled", ctx)
	}
	// Each thread's persists, in id order (so in epoch order).
	byThread := make([][]NodeID, l.stride)
	for id := range g.Nodes {
		u := l.key[id].th
		byThread[u] = append(byThread[u], NodeID(id))
	}
	anc := ancestors(g)
	claims := 0
	for id := range g.Nodes {
		for u, f := range l.label(l.nodeLab[id]) {
			for _, x := range byThread[u] {
				if f < 0 || l.key[x].ep > f {
					break
				}
				claims++
				if x == NodeID(id) || anc[id][x>>6]&(1<<(uint(x)&63)) == 0 {
					t.Fatalf("%s: node %d claims thread %d's epochs ≤ %d, but persist %d (epoch %d) is not a proper ancestor",
						ctx, id, l.tids[u], f, x, l.key[x].ep)
				}
			}
		}
	}
	return claims
}

// TestCoverLabelsSound checks every cover label claim on random traces
// (word and coarse tracking) and PSO machine traces under both epoch
// models.
func TestCoverLabelsSound(t *testing.T) {
	claims := 0
	for seed := int64(0); seed < 20; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)), 300)
		for _, m := range []core.Model{core.Epoch, core.EpochTSO} {
			for _, gran := range []uint64{0, 32} {
				if tr.CountPersists() == 0 {
					continue
				}
				claims += checkLabels(t, fmt.Sprintf("seed %d model %v gran %d", seed, m, gran), tr, core.Params{Model: m, TrackingGranularity: gran})
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, m := range []core.Model{core.Epoch, core.EpochTSO} {
			claims += checkLabels(t, fmt.Sprintf("pso seed %d model %v", seed, m), psoTrace(seed, 30), core.Params{Model: m})
		}
	}
	if claims == 0 {
		t.Fatal("no label claims; the check shows nothing")
	}
}

// TestWideTracesBuildUnlabeled pins the label width bound: a trace with
// more persisting threads than maxCoverThreads builds without labels,
// so its epoch graph keeps every source, edge for edge the reference's.
func TestWideTracesBuildUnlabeled(t *testing.T) {
	tr := &trace.Trace{}
	for round := 0; round < 3; round++ {
		for tid := int32(0); tid <= maxCoverThreads; tid++ {
			a := memory.PersistentBase + memory.Addr(tid%8)*memory.WordSize
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: a, Size: 8, Val: uint64(round)})
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		}
	}
	p := core.Params{Model: core.Epoch}
	b := new(builder)
	got, err := b.build(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.lab.on || got.counted {
		t.Fatalf("%d persisting threads built labeled", maxCoverThreads+1)
	}
	want, err := refBuild(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, wn := range want.Nodes {
		if !slices.Equal(got.Nodes[i].In, wn.In) {
			t.Fatalf("node %d edges %v, reference %v", i, got.Nodes[i].In, wn.In)
		}
	}
}
