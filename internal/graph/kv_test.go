package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trace"
	"repro/internal/workload"
)

// kvTrace traces a sharded-KV serving run shaped like the kvbench grid
// (16 shards, 65536 keys, 32 threads, Zipf 1.1) and returns it with the
// persistency model its policy targets.
func kvTrace(tb testing.TB, policy string, ops int, readFrac float64, seed int64) (*trace.Trace, core.Model) {
	tb.Helper()
	qp, err := workload.ParsePolicy(policy)
	if err != nil {
		tb.Fatal(err)
	}
	run, err := workload.BuildKV(workload.KVOptions{
		Shards: 16, Keys: 65536, Threads: 32, Ops: ops,
		ReadFrac: readFrac, ZipfS: 1.1, Policy: qp, Seed: seed, PolicyStr: policy,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return run.Trace, qp.Model()
}

// TestBuildMatchesReferenceOnKV checks the production builder against
// the per-block reference builder edge for edge, in emission order, on
// real KV serving traces: wide per-thread frontiers and read-heavy
// import patterns that the synthetic random traces never reach.
func TestBuildMatchesReferenceOnKV(t *testing.T) {
	for _, policy := range []string{"strict", "epoch", "strand"} {
		for _, readFrac := range []float64{0, 0.9} {
			for _, seed := range []int64{1, 2} {
				tr, model := kvTrace(t, policy, 128, readFrac, seed)
				ctx := fmt.Sprintf("%s read=%v seed=%d", policy, readFrac, seed)
				p := core.Params{Model: model}
				want, err := graph.RefBuild(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := graph.Build(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				graph.RequireSameGraph(t, ctx, got, want)
				if countEdges(got) == 0 {
					t.Fatalf("%s: no edges; the trace does not exercise the builder", ctx)
				}
			}
		}
	}
}

// TestReachOnKV runs the reachability property check on KV serving
// graphs, whose nodes carry about a hundred dependences each.
func TestReachOnKV(t *testing.T) {
	for _, policy := range []string{"strict", "epoch", "strand"} {
		for _, readFrac := range []float64{0, 0.9} {
			tr, model := kvTrace(t, policy, 128, readFrac, 1)
			g, err := graph.Build(tr, core.Params{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("kv %s read=%v", policy, readFrac)
			graph.CheckReach(t, ctx, g, rand.New(rand.NewSource(1)), 24)
		}
	}
}

func countEdges(g *graph.Graph) int {
	n := 0
	for _, nd := range g.Nodes {
		n += len(nd.In)
	}
	return n
}

// TestBuildWithBarriersMatchesBuild pins that BuildWithBarriers returns
// Build's graph, BuildStats included, alongside its annotation report.
func TestBuildWithBarriersMatchesBuild(t *testing.T) {
	for _, policy := range []string{"strict", "epoch", "strand"} {
		tr, model := kvTrace(t, policy, 128, 0.9, 1)
		p := core.Params{Model: model}
		g, err := graph.Build(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		gb, infos, err := graph.BuildWithBarriers(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		if g.Stats.PeakRanges == 0 {
			t.Fatalf("%s: Build reported empty stats %+v", policy, g.Stats)
		}
		if gb.Stats != g.Stats {
			t.Fatalf("%s: BuildWithBarriers stats %+v, Build %+v", policy, gb.Stats, g.Stats)
		}
		graph.RequireSameGraph(t, policy+" BuildWithBarriers vs Build", gb, g)
		if len(infos) == 0 {
			t.Fatalf("%s: no annotations reported", policy)
		}
	}
}

// BenchmarkGraphBuildKV builds the persist-order DAG of a 1024-op,
// 0.9-read epoch KV trace, whose thread frontiers are about a hundred
// nodes wide. ns/event tracks the builder's cost per trace event and
// edges/node the size of what it emits, so a return of per-persist work
// quadratic in the frontier width shows up as ns/event growing while
// edges/node stays put.
func BenchmarkGraphBuildKV(b *testing.B) {
	tr, model := kvTrace(b, "epoch", 1024, 0.9, 42)
	p := core.Params{Model: model}
	var g *graph.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if g, err = graph.Build(tr, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/event")
	b.ReportMetric(float64(countEdges(g))/float64(g.Len()), "edges/node")
}

// BenchmarkCriticalPathKV takes the critical path of the epoch KV graph
// BenchmarkGraphBuildKV builds, about 115 edges per node. ns/edge
// tracks the one pass over the edges; a return of cycle checking or
// successor lists on trace-built graphs shows up there and in allocs/op.
func BenchmarkCriticalPathKV(b *testing.B) {
	tr, model := kvTrace(b, "epoch", 1024, 0.9, 42)
	g, err := graph.Build(tr, core.Params{Model: model})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CriticalPath()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(countEdges(g)), "ns/edge")
}
