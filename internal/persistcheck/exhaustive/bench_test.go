package exhaustive

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// BenchmarkExhaustiveCheck times CheckGraph, enumeration plus
// classification, on prebuilt graphs with one worker. journal-epoch is
// the largest fixture of the pipeline benchmark's crash-exhaustive
// workload (331 persists, 6170 states); kv-epoch is the clean matrix's
// two-shard store. mixed checks journal-epoch and then kv-epoch in each
// op, as a crash-exhaustive pass runs its fixtures one after another on
// the pooled enumerator, so it shows a narrow check paying for the
// storage a wide one left. ns/state is per distinct reachable image. An
// untimed op first warms the enumerator pool, so every op, a 1x run's
// too, measures repeated checks.
func BenchmarkExhaustiveCheck(b *testing.B) {
	type target struct {
		g   *graph.Graph
		run *workload.Run
	}
	build := func(b *testing.B, fx fixture) target {
		run, _, model := buildRun(b, fx)
		return target{g: buildGraph(b, run, model), run: run}
	}
	journal := fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 8, seed: 42, sparse: true}
	kv := fixture{wl: "kv", policy: "epoch", threads: 2, inserts: 8, seed: 42}
	for _, bc := range []struct {
		name string
		fxs  []fixture
	}{
		{"journal-epoch", []fixture{journal}},
		{"kv-epoch", []fixture{kv}},
		{"mixed", []fixture{journal, kv}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var ts []target
			for _, fx := range bc.fxs {
				ts = append(ts, build(b, fx))
			}
			cfg := Config{Sweep: sweep.Config{Parallel: 1}}
			// One P: sync.Pool keeps what an op puts back in that
			// P's private slot, so an op that resumed on another P
			// would miss the warm enumerator and read a cold check's B/op.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			states := 0
			op := func() {
				states = 0
				for _, t := range ts {
					res, err := CheckGraph(t.g, t.g.Params.Model, t.run.Recover, t.run.Checked, cfg)
					if err != nil {
						b.Fatal(err)
					}
					states += res.States
				}
			}
			op()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*states), "ns/state")
			b.ReportMetric(float64(states), "states")
		})
	}
}
