package exhaustive

import (
	"runtime"
	"testing"

	"repro/internal/sweep"
)

// BenchmarkExhaustiveCheck times CheckGraph, enumeration plus
// classification, on one prebuilt graph per fixture with one worker.
// journal-epoch is the largest fixture of the pipeline benchmark's
// crash-exhaustive workload (331 persists, 6170 states); kv-epoch is
// the clean matrix's two-shard store. ns/state is per distinct
// reachable image. An untimed check first warms the enumerator pool,
// so every op, a 1x run's too, measures a repeated check.
func BenchmarkExhaustiveCheck(b *testing.B) {
	for _, bc := range []struct {
		name string
		fx   fixture
	}{
		{"journal-epoch", fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 8, seed: 42, sparse: true}},
		{"kv-epoch", fixture{wl: "kv", policy: "epoch", threads: 2, inserts: 8, seed: 42}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			run, _, model := buildRun(b, bc.fx)
			g := buildGraph(b, run, model)
			cfg := Config{Sweep: sweep.Config{Parallel: 1}}
			// One P: sync.Pool keeps what an op puts back in that
			// P's private slot, so an op that resumed on another P
			// would miss the warm enumerator and read a cold check's B/op.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			res, err := CheckGraph(g, model, run.Recover, run.Checked, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if res, err = CheckGraph(g, model, run.Recover, run.Checked, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.States), "ns/state")
			b.ReportMetric(float64(res.States), "states")
		})
	}
}
