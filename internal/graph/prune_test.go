package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nvram"
	"repro/internal/trace"
)

// prunedFixtures returns the traces the pruned-graph tests run on:
// random traces, PSO machine traces and KV serving traces (write-only
// and read-heavy).
func prunedFixtures(tb testing.TB) map[string]*trace.Trace {
	fx := map[string]*trace.Trace{}
	for seed := int64(0); seed < 6; seed++ {
		fx[fmt.Sprintf("random seed %d", seed)] = graph.RandomTrace(rand.New(rand.NewSource(seed)), 300)
	}
	for seed := int64(0); seed < 2; seed++ {
		fx[fmt.Sprintf("pso seed %d", seed)] = graph.PSOTrace(seed, 30)
	}
	for _, readFrac := range []float64{0, 0.9} {
		tr, _ := kvTrace(tb, "epoch", 128, readFrac, 42)
		fx[fmt.Sprintf("kv read=%v", readFrac)] = tr
	}
	return fx
}

// TestCoverLabelsSoundOnKV checks every cover label claim on KV serving
// traces under each policy's target model: labels over 32 threads, and
// under strand persistency over a chain per strand.
func TestCoverLabelsSoundOnKV(t *testing.T) {
	for _, policy := range []string{"strict", "epoch", "strand"} {
		for _, readFrac := range []float64{0, 0.9} {
			tr, model := kvTrace(t, policy, 128, readFrac, 42)
			ctx := fmt.Sprintf("kv %s read=%v", policy, readFrac)
			if graph.CheckLabels(t, ctx, tr, core.Params{Model: model}) == 0 {
				t.Fatalf("%s: no label claims", ctx)
			}
		}
	}
}

// TestStrictAndStrandGraphsNearReduction pins how close the cover
// labels keep strict and strand graphs to their transitive reduction on
// a K16-shaped KV trace (2048 ops, 0.9 reads, where the reduction keeps
// 1.07 and 3.28 edges per node): at most 1.2 times its edges.
func TestStrictAndStrandGraphsNearReduction(t *testing.T) {
	for _, policy := range []string{"strict", "strand"} {
		tr, model := kvTrace(t, policy, 2048, 0.9, 42)
		g, err := graph.Build(tr, core.Params{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		kept, red := countEdges(g), graph.ReductionEdges(g)
		if float64(kept) > 1.2*float64(red) {
			t.Errorf("%s: %.2f edges per node kept, transitive reduction %.2f", policy, float64(kept)/float64(g.Len()), float64(red)/float64(g.Len()))
		}
	}
}

// TestPrunedGraphQueriesMatchReference checks that a graph without its
// transitively redundant edges answers every query the checkers ask as
// the reference builder's unpruned graph does, under every model:
// sampled cuts, single-victim drop cuts, cut frontiers, the critical
// path and the NVRAM device schedule.
func TestPrunedGraphQueriesMatchReference(t *testing.T) {
	dev := nvram.Config{Latency: 100 * time.Nanosecond, Banks: 4, Channels: 2, MLCSlowFraction: 0.3}
	for name, tr := range prunedFixtures(t) {
		for _, m := range core.Models {
			ctx := fmt.Sprintf("%s model %v", name, m)
			p := core.Params{Model: m}
			got, err := graph.Build(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := graph.RefBuild(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			if gc, wc := got.CriticalPath(), want.CriticalPath(); gc != wc {
				t.Fatalf("%s: critical path %d, reference %d", ctx, gc, wc)
			}
			r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			for _, keep := range []float64{0.1, 0.5, 0.9} {
				c1, c2 := got.SampleCut(r1, keep), want.SampleCut(r2, keep)
				if !slices.Equal(c1.Included, c2.Included) {
					t.Fatalf("%s keep=%v: sampled cuts differ", ctx, keep)
				}
				if f1, f2 := got.Frontier(c1), want.Frontier(c2); !slices.Equal(f1, f2) {
					t.Fatalf("%s keep=%v: frontier %v, reference %v", ctx, keep, f1, f2)
				}
			}
			for v := 0; v < got.Len(); v += 1 + got.Len()/64 {
				c1, c2 := got.DropCut(graph.NodeID(v)), want.DropCut(graph.NodeID(v))
				if !slices.Equal(c1.Included, c2.Included) {
					t.Fatalf("%s: drop cut of %d differs", ctx, v)
				}
				if f1, f2 := got.Frontier(c1), want.Frontier(c2); !slices.Equal(f1, f2) {
					t.Fatalf("%s: frontier of drop cut %d is %v, reference %v", ctx, v, f1, f2)
				}
			}
			s1, err := nvram.Schedule(got, dev)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := nvram.Schedule(want, dev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s1, s2) {
				t.Fatalf("%s: device schedule %+v, reference %+v", ctx, s1, s2)
			}
		}
	}
}

// TestEpochGraphsArePruned pins how much the cover labels prune on the
// pipeline benchmark's kv-graph trace shape (write-only 128-op KV,
// seed 42's first trace): at most 10 edges per node, where the
// unpruned sources that EdgeCounts still reports are over 50.
func TestEpochGraphsArePruned(t *testing.T) {
	tr, model := kvTrace(t, "epoch", 128, 0, 42*48)
	g, err := graph.Build(tr, core.Params{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	all := 0
	for _, c := range g.EdgeCounts() {
		all += c
	}
	kept, unpruned := float64(countEdges(g))/float64(g.Len()), float64(all)/float64(g.Len())
	if kept > 10 || unpruned < 50 {
		t.Fatalf("%.2f edges per node kept of %.2f unpruned", kept, unpruned)
	}
}
