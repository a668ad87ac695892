package core_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/queue"
)

// TestSimulateAllEquivalence pins SimulateAll against solo Simulate:
// replaying one trace under every model through the pooled simulator
// produces results byte-identical (including WorkPathDeltas) to running
// each model's simulation on its own — across all models, both queue
// designs, and several interleavings.
func TestSimulateAllEquivalence(t *testing.T) {
	for _, design := range []queue.Design{queue.CWL, queue.TwoLock} {
		for _, seed := range []int64{1, 7, 42} {
			w := bench.Workload{
				Design: design, Policy: queue.PolicyEpoch,
				Threads: 2, Inserts: 120, Seed: seed,
			}
			tr, err := bench.Trace(w)
			if err != nil {
				t.Fatal(err)
			}
			base := core.Params{TrackWorkPath: true}
			got, err := core.SimulateAll(tr, base)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(core.Models) {
				t.Fatalf("SimulateAll returned %d results, want %d", len(got), len(core.Models))
			}
			for i, m := range core.Models {
				p := base
				p.Model = m
				want, err := core.Simulate(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got[i]) {
					t.Errorf("%v seed %d %v: SimulateAll result differs from solo\nsolo: %+v\nall:  %+v",
						design, seed, m, want, got[i])
				}
			}
		}
	}
}
