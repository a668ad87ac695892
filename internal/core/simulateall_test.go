package core_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
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
				Design: design, Policy: core.PolicyEpoch,
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

// TestSimulateAllErrorsLikeSimulate pins SimulateAll's error against
// Simulate's on traces that turn invalid at position k: SimulateAll
// validates events only in its first pass, and must still fail with
// the error every model's Simulate returns for the first bad event.
// Parameter errors come first, as they do in Simulate.
func TestSimulateAllErrorsLikeSimulate(t *testing.T) {
	good, err := bench.Trace(bench.Workload{
		Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 2, Inserts: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := []trace.Event{
		{Kind: trace.Kind(42)},
		{Kind: trace.Store, Addr: memory.PersistentBase, Size: 0},
		{Kind: trace.Load, Addr: memory.VolatileBase, Size: 8, TID: trace.MaxThreads},
	}
	for _, k := range []int{0, 1, good.Len() / 2, good.Len() - 1} {
		for _, be := range bad {
			tr := &trace.Trace{}
			for i := 0; i < good.Len(); i++ {
				e := good.At(i)
				if i == k {
					e = be
				}
				tr.Emit(e)
			}
			_, allErr := core.SimulateAll(tr, core.Params{})
			if allErr == nil {
				t.Fatalf("k=%d %v: SimulateAll accepted an invalid trace", k, be)
			}
			for _, m := range core.Models {
				_, err := core.Simulate(tr, core.Params{Model: m})
				if err == nil || err.Error() != allErr.Error() {
					t.Errorf("k=%d %v %v: Simulate error %v, SimulateAll error %v", k, be, m, err, allErr)
				}
			}
		}
	}
	p := core.Params{TrackingGranularity: 12}
	_, want := core.Simulate(good, p)
	if _, err := core.SimulateAll(good, p); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("bad params: SimulateAll error %v, Simulate error %v", err, want)
	}
}
