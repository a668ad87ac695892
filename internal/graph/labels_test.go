package graph

import (
	"fmt"
	"math/rand"
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

// checkLabels builds tr under p on a fresh builder and checks every
// claim of every node's cover label against the graph's transitive
// closure: a claim (c, k), stored or implied by the label's watermark,
// and the implicit claim on the node's own chain below its epoch, must
// have every persist of chain c below position k as a proper ancestor
// of the node. It returns the
// number of claims checked.
func checkLabels(t testing.TB, ctx string, tr *trace.Trace, p core.Params) int {
	t.Helper()
	b := new(builder)
	g, err := b.build(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	l := &b.lab
	// Each chain's persists, in id order (so in epoch order).
	byChain := make([][]NodeID, len(l.open))
	for id := range g.Nodes {
		c := l.key[id].ch
		byChain[c] = append(byChain[c], NodeID(id))
	}
	anc := ancestors(g)
	claims := 0
	for id := range g.Nodes {
		own := l.key[id]
		for c := range byChain {
			n := l.claimOf(l.nodeLab[id], int32(c))
			if int32(c) == own.ch {
				n = max(n, l.epochStart[own.ep])
			}
			for _, x := range byChain[c] {
				if l.key[x].pos >= n {
					break
				}
				claims++
				if x == NodeID(id) || anc[id][x>>6]&(1<<(uint(x)&63)) == 0 {
					t.Fatalf("%s: node %d claims chain %d below position %d, but persist %d (position %d) is not a proper ancestor",
						ctx, id, c, n, x, l.key[x].pos)
				}
			}
		}
	}
	return claims
}

// TestCoverLabelsSound checks every cover label claim on random traces
// (word and coarse tracking) and PSO machine traces under every model.
func TestCoverLabelsSound(t *testing.T) {
	claims := 0
	for seed := int64(0); seed < 20; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)), 300)
		for _, m := range core.Models {
			for _, gran := range []uint64{0, 32} {
				if tr.CountPersists() == 0 {
					continue
				}
				claims += checkLabels(t, fmt.Sprintf("seed %d model %v gran %d", seed, m, gran), tr, core.Params{Model: m, TrackingGranularity: gran})
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, m := range core.Models {
			claims += checkLabels(t, fmt.Sprintf("pso seed %d model %v", seed, m), psoTrace(seed, 30), core.Params{Model: m})
		}
	}
	if claims == 0 {
		t.Fatal("no label claims; the check shows nothing")
	}
}

// TestWideTracesBuildLabeled pins that labels need no width bound: a
// trace with 257 persisting threads, each of which reads a block
// another thread wrote, builds labeled under every model and matches
// the reference, and it prunes: under strict persistency every
// persist's edges are its transitive reduction's.
func TestWideTracesBuildLabeled(t *testing.T) {
	const threads = 257
	tr := &trace.Trace{}
	for round := 0; round < 3; round++ {
		for tid := int32(0); tid < threads; tid++ {
			a := memory.PersistentBase + memory.Addr(tid%8)*memory.WordSize
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: a, Size: 8})
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: a, Size: 8, Val: uint64(round)})
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		}
	}
	for _, m := range core.Models {
		p := core.Params{Model: m}
		ctx := fmt.Sprintf("model %v", m)
		b := new(builder)
		got, err := b.build(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.lab.open) != threads {
			t.Fatalf("%s: %d chains for %d persisting threads", ctx, len(b.lab.open), threads)
		}
		want, err := refBuild(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, ctx, got, want)
		if m == core.Strict {
			if kept, red := countEdges(got), reductionEdges(got); kept != red {
				t.Fatalf("%s: %d edges kept, transitive reduction has %d", ctx, kept, red)
			}
		}
		checkLabels(t, ctx, tr, p)
	}
}

// countEdges returns g's edge count.
func countEdges(g *Graph) int {
	n := 0
	for _, nd := range g.Nodes {
		n += len(nd.In)
	}
	return n
}

// reductionEdges returns the edge count of g's transitive reduction:
// the edges from sources that are no other source's ancestor.
func reductionEdges(g *Graph) int {
	anc := ancestors(g)
	n := 0
	for _, nd := range g.Nodes {
		for _, e := range nd.In {
			redundant := false
			for _, o := range nd.In {
				if o.From != e.From && anc[o.From][e.From>>6]&(1<<(uint(e.From)&63)) != 0 {
					redundant = true
					break
				}
			}
			if !redundant {
				n++
			}
		}
	}
	return n
}
