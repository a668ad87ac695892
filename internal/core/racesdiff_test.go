package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/workload"
)

// randomRaceTrace generates a random valid trace over a few threads
// and a small pool of persistent and volatile words, with barriers,
// syncs and strands, so conflicts and persisting epochs abound.
func randomRaceTrace(rng *rand.Rand, events int) *trace.Trace {
	tr := &trace.Trace{}
	threads := 2 + rng.Intn(3)
	for i := 0; i < events; i++ {
		e := trace.Event{TID: int32(rng.Intn(threads)), Size: 8, Val: rng.Uint64()}
		addr := memory.PersistentBase + memory.Addr(rng.Intn(6)*8)
		if rng.Intn(2) == 0 {
			addr = memory.VolatileBase + memory.Addr(rng.Intn(4)*8)
		}
		switch rng.Intn(10) {
		case 0:
			e = trace.Event{TID: e.TID, Kind: trace.PersistBarrier}
		case 1:
			e = trace.Event{TID: e.TID, Kind: [...]trace.Kind{trace.PersistSync, trace.NewStrand}[rng.Intn(2)]}
		case 2, 3, 4:
			e.Kind, e.Addr, e.Val = trace.Load, addr, 0
		case 5:
			e.Kind, e.Addr = trace.RMW, addr
		default:
			e.Kind, e.Addr = trace.Store, addr
		}
		tr.Emit(e)
	}
	return tr
}

// TestDetectEpochRacesMatchesMaps checks the production race detector
// against the map-based one it replaced, report for report, on random
// traces (word and 64-byte tracking, a small example limit) and on
// queue and KV workload traces under the epoch and racing policies.
func TestDetectEpochRacesMatchesMaps(t *testing.T) {
	check := func(ctx string, tr *trace.Trace, cfg core.RaceConfig) {
		t.Helper()
		got, err := core.DetectEpochRaces(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.DetectEpochRacesMaps(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report %+v\nmap-based detector %+v", ctx, got, want)
		}
	}
	races := 0
	for seed := int64(0); seed < 40; seed++ {
		tr := randomRaceTrace(rand.New(rand.NewSource(seed)), 300)
		for _, cfg := range []core.RaceConfig{{}, {TrackingGranularity: 64, Limit: 3}} {
			check(fmt.Sprintf("random seed %d %+v", seed, cfg), tr, cfg)
		}
		rep, _ := core.DetectEpochRaces(tr, core.RaceConfig{})
		races += rep.Total
	}
	if races == 0 {
		t.Fatal("random traces raced nowhere; the comparison shows nothing")
	}
	for _, pol := range []core.Policy{core.PolicyEpoch, core.PolicyRacingEpoch} {
		for _, o := range []workload.Options{
			{Workload: "queue", Design: queue.CWL, Threads: 4, Inserts: 64, Payload: 64},
			{Workload: "queue", Design: queue.TwoLock, Threads: 3, Inserts: 48, Payload: 100},
			{Workload: "kv", Threads: 8, Inserts: 256, Shards: 4, Keys: 1024, ReadFrac: 0.5, ZipfS: 1.1},
		} {
			o.Policy, o.Model, o.Seed = pol, pol.Model(), 42
			run, err := workload.Build(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s %v %v", o.Workload, o.Design, pol), run.Trace, core.RaceConfig{})
		}
	}
}

// TestDetectEpochRacesRejectsInvalidEvents pins that an invalid event
// fails the detector with the event's validation error, whichever
// thread id it carries.
func TestDetectEpochRacesRejectsInvalidEvents(t *testing.T) {
	for _, bad := range []trace.Event{
		{TID: -1, Kind: trace.Store, Addr: memory.PersistentBase, Size: 8},
		{TID: trace.MaxThreads, Kind: trace.Load, Addr: memory.VolatileBase, Size: 8},
		{TID: 0, Kind: trace.Store, Addr: memory.PersistentBase, Size: 0},
	} {
		tr := &trace.Trace{}
		tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: memory.PersistentBase, Size: 8})
		tr.Emit(bad)
		_, err := core.DetectEpochRaces(tr, core.RaceConfig{})
		if want := bad.Validate(); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%+v: error %v, want %v", bad, err, want)
		}
	}
}
