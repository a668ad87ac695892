package graph_test

import (
	"fmt"
	"math/rand"
	"runtime"
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
	run, err := workload.Build(workload.Options{
		Workload: "kv", Policy: qp, Model: qp.Model(),
		Threads: 32, Inserts: ops, Seed: seed,
		Shards: 16, Keys: 65536, ReadFrac: readFrac, ZipfS: 1.1,
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

// TestBuildRecordsBarriers pins that Build records, on KV traces, the
// parameters it ran under and one BarrierInfo per annotation, in trace
// order, in a slice sized once.
func TestBuildRecordsBarriers(t *testing.T) {
	for _, policy := range []string{"strict", "epoch", "strand"} {
		tr, model := kvTrace(t, policy, 128, 0.9, 1)
		p := core.Params{Model: model}
		g, err := graph.Build(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		if g.Params != p {
			t.Errorf("%s: graph records params %+v, want %+v", policy, g.Params, p)
		}
		var seqs []uint64
		for e := range tr.All() {
			if e.Kind.IsAnnotation() {
				seqs = append(seqs, e.Seq)
			}
		}
		if len(seqs) == 0 {
			t.Fatalf("%s: trace has no annotations", policy)
		}
		if len(g.Barriers) != len(seqs) || cap(g.Barriers) != len(seqs) {
			t.Fatalf("%s: %d barrier infos (cap %d) for %d annotations", policy, len(g.Barriers), cap(g.Barriers), len(seqs))
		}
		for i, in := range g.Barriers {
			if in.Seq != seqs[i] {
				t.Fatalf("%s: barrier %d at seq %d, annotation at %d", policy, i, in.Seq, seqs[i])
			}
		}
	}
}

// BenchmarkGraphBuildKV builds the persist-order DAG of a 1024-op,
// 0.9-read epoch KV trace. A persist's active frontier holds 107 nodes
// on average (810 at most), and a union or subset test that its version
// facts cannot settle takes operands of about 220 ids together; half
// the active frontiers at a persist are dense sets. ns/event tracks the
// builder's cost per trace event and edges/node the size of what it
// emits, so a return of per-persist work quadratic in the frontier
// width shows up as ns/event growing while edges/node stays put.
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

// BenchmarkGraphBuildKVWrites builds the persist-order DAG of a
// 2048-op write-only KV trace under epoch and strand persistency: the
// kv-graph pipeline workload's trace shape at 16 times its length,
// where thread frontiers grow to thousands of nodes. ns/event and
// B/event track the builder's cost per trace event; growth in either
// against BenchmarkGraphBuildKV's read-heavy trace is the frontier
// cost that outgrows the trace.
func BenchmarkGraphBuildKVWrites(b *testing.B) {
	for _, policy := range []string{"epoch", "strand"} {
		b.Run(policy, func(b *testing.B) {
			tr, model := kvTrace(b, policy, 2048, 0, 42)
			p := core.Params{Model: model}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.Build(tr, p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * float64(tr.Len())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/event")
			b.ReportMetric(float64(tr.Len()), "events/op")
		})
	}
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
