package repro

// One testing.B benchmark per table and figure in the paper's
// evaluation (§8), plus the reproduction's ablations. Each benchmark
// regenerates its artifact at reduced scale and reports the paper's
// metric via b.ReportMetric:
//
//	BenchmarkTable1      norm=… (persist-bound rate / instruction rate)
//	BenchmarkFigure1     cycle detection on the Figure 1 constraint graph
//	BenchmarkFigure2     constraint edges per class per model
//	BenchmarkFigure3     break-even persist latency per model
//	BenchmarkFigure4     critical path per insert vs atomic persist size
//	BenchmarkFigure5     critical path per insert vs tracking granularity
//	BenchmarkBanksAblation, BenchmarkUnbufferedStrict
//
// Full-scale runs: cmd/pqbench. Absolute host rates differ from the
// paper's testbed; the reported shapes are the reproduction target.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nvram"
	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/internal/trace"
)

const (
	benchInserts = 2000
	benchPayload = 100
	benchLatency = 500 * time.Nanosecond
	// benchInstrRate pins the instruction rate so reported normalized
	// values are stable across hosts; cmd/pqbench measures it live.
	benchInstrRate = 4e6
)

func BenchmarkTable1(b *testing.B) {
	for _, threads := range []int{1, 8} {
		for _, design := range []queue.Design{queue.CWL, queue.TwoLock} {
			for _, pol := range queue.Policies {
				name := fmt.Sprintf("%v/%v/%dT", design, pol, threads)
				b.Run(name, func(b *testing.B) {
					var r core.Result
					for i := 0; i < b.N; i++ {
						w := bench.Workload{
							Design: design, Policy: pol, Threads: threads,
							Inserts: benchInserts, PayloadLen: benchPayload, Seed: 42,
						}
						var err error
						r, err = bench.Simulate(w, core.Params{Model: bench.ModelFor(pol)})
						if err != nil {
							b.Fatal(err)
						}
					}
					norm := r.PersistBoundRate(benchLatency) / benchInstrRate
					if norm > 1000 {
						norm = 1000 // cap +Inf-ish values for readability
					}
					b.ReportMetric(norm, "norm")
					b.ReportMetric(r.PathPerWork(), "levels/insert")
					b.ReportMetric(float64(r.Coalesced), "coalesced")
				})
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var g graph.Graph
		t1A := g.AddNode("T1:A", trace.Event{})
		t1B := g.AddNode("T1:B", trace.Event{})
		t2B := g.AddNode("T2:B", trace.Event{})
		t2A := g.AddNode("T2:A", trace.Event{})
		g.AddEdge(t1A, t1B, graph.ProgramOrder)
		g.AddEdge(t2B, t2A, graph.ProgramOrder)
		g.AddEdge(t1B, t2B, graph.Atomicity)
		g.AddEdge(t2A, t1A, graph.Atomicity)
		if g.FindCycle() == nil {
			b.Fatal("Figure 1 constraints must cycle")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	var rows []bench.Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig2(100, 42, sweep.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.CriticalPath), "cp-"+r.Policy.String())
	}
}

func BenchmarkFigure3(b *testing.B) {
	var points []bench.Fig3Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.Fig3(bench.Fig3Config{
			Inserts: benchInserts, PayloadLen: benchPayload,
			Seed: 42, InstrRate: benchInstrRate,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pol := range bench.Fig3Policies {
		be := bench.BreakEvenLatency(points, pol)
		b.ReportMetric(float64(be.Nanoseconds()), "breakeven-ns-"+pol.String())
	}
}

func BenchmarkFigure4(b *testing.B) {
	var points []bench.GranPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.Fig4(bench.GranularityConfig{Inserts: 1000, PayloadLen: benchPayload, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Granularity == 8 || p.Granularity == 256 {
			b.ReportMetric(p.PathPerInsert, fmt.Sprintf("lvl-%s-%dB", p.Policy, p.Granularity))
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	var points []bench.GranPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.Fig5(bench.GranularityConfig{Inserts: 1000, PayloadLen: benchPayload, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Granularity == 8 || p.Granularity == 256 {
			b.ReportMetric(p.PathPerInsert, fmt.Sprintf("lvl-%s-%dB", p.Policy, p.Granularity))
		}
	}
}

// BenchmarkBanksAblation quantifies the paper's §3 caveat: with few
// banks, device conflicts rather than ordering constraints bound
// throughput.
func BenchmarkBanksAblation(b *testing.B) {
	w := bench.Workload{Design: queue.CWL, Policy: queue.PolicyEpoch, Threads: 4, Inserts: 500, PayloadLen: benchPayload, Seed: 42}
	tr, err := bench.Trace(w)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	if err != nil {
		b.Fatal(err)
	}
	for _, banks := range []int{0, 1, 8, 64} {
		name := fmt.Sprintf("banks=%d", banks)
		if banks == 0 {
			name = "banks=inf"
		}
		b.Run(name, func(b *testing.B) {
			var r nvram.Result
			for i := 0; i < b.N; i++ {
				r, err = nvram.Schedule(g, nvram.Config{Latency: benchLatency, Banks: banks, AtomicGranularity: 64})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Makespan.Nanoseconds())/float64(r.IdealMakespan.Nanoseconds()), "makespan/ideal")
		})
	}
}

// BenchmarkJournalTable regenerates the journaled-metadata persist
// concurrency table (reproduction-added workload).
func BenchmarkJournalTable(b *testing.B) {
	var rows []bench.JournalRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.JournalTable(500, []int{1}, 42, sweep.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PathPerTxn, "path-"+r.Policy.String())
	}
}

// BenchmarkPSTMTable regenerates the durable-transaction persist
// concurrency table (reproduction-added workload).
func BenchmarkPSTMTable(b *testing.B) {
	var rows []bench.PSTMRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.PSTMTable(500, []int{1}, 42, sweep.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PathPerTxn, "path-"+r.Policy.String())
	}
}

// BenchmarkUnbufferedStrict compares §4.1's buffered and unbuffered
// strict persistency execution models.
func BenchmarkUnbufferedStrict(b *testing.B) {
	var r core.Result
	for i := 0; i < b.N; i++ {
		w := bench.Workload{Design: queue.CWL, Policy: queue.PolicyStrict, Threads: 1, Inserts: benchInserts, PayloadLen: benchPayload, Seed: 42}
		var err error
		r, err = bench.Simulate(w, core.Params{Model: core.Strict})
		if err != nil {
			b.Fatal(err)
		}
	}
	buffered := r.PersistBoundRate(benchLatency)
	unbuffered := bench.UnbufferedRate(r, benchInstrRate, benchLatency)
	b.ReportMetric(buffered/benchInstrRate, "buffered-norm")
	b.ReportMetric(unbuffered/benchInstrRate, "unbuffered-norm")
}
