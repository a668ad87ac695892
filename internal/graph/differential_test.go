package graph

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

// randomTrace generates a random but valid multi-threaded trace mixing
// persists, volatile traffic, barriers, and strands over a small
// address pool (to provoke conflicts and same-address chains).
func randomTrace(rng *rand.Rand, events int) *trace.Trace {
	tr := &trace.Trace{}
	paddrs := make([]memory.Addr, 6)
	for i := range paddrs {
		paddrs[i] = memory.PersistentBase + memory.Addr(i*8)
	}
	vaddrs := make([]memory.Addr, 3)
	for i := range vaddrs {
		vaddrs[i] = memory.VolatileBase + memory.Addr(i*8)
	}
	threads := 1 + rng.Intn(3)
	for i := 0; i < events; i++ {
		tid := int32(rng.Intn(threads))
		switch rng.Intn(12) {
		case 0:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		case 1:
			tr.Emit(trace.Event{TID: tid, Kind: trace.NewStrand})
		case 2:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistSync})
		case 3, 4:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: paddrs[rng.Intn(len(paddrs))], Size: 8})
		case 5:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: vaddrs[rng.Intn(len(vaddrs))], Size: 8})
		case 6:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: vaddrs[rng.Intn(len(vaddrs))], Size: 8, Val: rng.Uint64()})
		case 7:
			tr.Emit(trace.Event{TID: tid, Kind: trace.RMW, Addr: vaddrs[rng.Intn(len(vaddrs))], Size: 8, Val: rng.Uint64()})
		case 8:
			tr.Emit(trace.Event{TID: tid, Kind: trace.RMW, Addr: paddrs[rng.Intn(len(paddrs))], Size: 8, Val: rng.Uint64()})
		default:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: paddrs[rng.Intn(len(paddrs))], Size: 8, Val: rng.Uint64()})
		}
	}
	return tr
}

// TestDifferentialGraphVsSim cross-validates the two independent
// implementations of the persistency models — the streaming scalar
// simulator (internal/core) and the explicit DAG builder — on random
// traces: with coalescing disabled their critical paths must agree
// exactly, for every model.
func TestDifferentialGraphVsSim(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 150)
		for _, m := range core.Models {
			r, err := core.Simulate(tr, core.Params{Model: m, NoCoalescing: true})
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(tr, core.Params{Model: m})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.CriticalPath(), r.CriticalPath; got != want {
				t.Errorf("seed %d model %v: graph CP %d != sim CP %d", seed, m, got, want)
			}
		}
	}
}

// TestDifferentialTrackingGranularity repeats the cross-validation at a
// coarse tracking granularity (false-sharing paths).
func TestDifferentialTrackingGranularity(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 120)
		for _, m := range core.Models {
			p := core.Params{Model: m, NoCoalescing: true, TrackingGranularity: 32}
			r, err := core.Simulate(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(tr, core.Params{Model: m, TrackingGranularity: 32})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.CriticalPath(), r.CriticalPath; got != want {
				t.Errorf("seed %d model %v @32B: graph CP %d != sim CP %d", seed, m, got, want)
			}
		}
	}
}

// TestCoalescingNeverLengthensPath: on random traces, enabling
// coalescing must never increase the critical path, and the unbounded
// window must be at least as good as any finite window.
func TestCoalescingNeverLengthensPath(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 150)
		for _, m := range core.Models {
			off, err := core.Simulate(tr, core.Params{Model: m, NoCoalescing: true})
			if err != nil {
				t.Fatal(err)
			}
			on, err := core.Simulate(tr, core.Params{Model: m})
			if err != nil {
				t.Fatal(err)
			}
			win, err := core.Simulate(tr, core.Params{Model: m, CoalesceWindow: 8})
			if err != nil {
				t.Fatal(err)
			}
			if on.CriticalPath > off.CriticalPath {
				t.Errorf("seed %d %v: coalescing lengthened path %d > %d", seed, m, on.CriticalPath, off.CriticalPath)
			}
			if on.CriticalPath > win.CriticalPath {
				t.Errorf("seed %d %v: unbounded window worse than finite: %d > %d", seed, m, on.CriticalPath, win.CriticalPath)
			}
			if win.CriticalPath > off.CriticalPath {
				t.Errorf("seed %d %v: windowed coalescing worse than none: %d > %d", seed, m, win.CriticalPath, off.CriticalPath)
			}
		}
	}
}

// TestDifferentialOnPSOTraces repeats the cross-validation on traces
// whose store visibility was reordered by the PSO machine: the
// downstream analyses are consistency-model-agnostic (they consume any
// visibility order), so the two implementations must still agree.
func TestDifferentialOnPSOTraces(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := psoTrace(seed, 25)
		for _, mo := range core.Models {
			r, err := core.Simulate(tr, core.Params{Model: mo, NoCoalescing: true})
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(tr, core.Params{Model: mo})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.CriticalPath(), r.CriticalPath; got != want {
				t.Errorf("seed %d model %v: graph %d != sim %d", seed, mo, got, want)
			}
		}
	}
}

// TestModelRelaxationOnRandomTraces: per-model constraint sets are
// ordered strict ⊇ epoch ⊇ strand on annotated traces, so critical
// paths must satisfy strand ≤ epoch ≤ strict and epoch-tso ≤ epoch.
func TestModelRelaxationOnRandomTraces(t *testing.T) {
	cp := func(tr *trace.Trace, m core.Model) int64 {
		r, err := core.Simulate(tr, core.Params{Model: m, NoCoalescing: true})
		if err != nil {
			t.Fatal(err)
		}
		return r.CriticalPath
	}
	for seed := int64(300); seed < 330; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 150)
		strict := cp(tr, core.Strict)
		epoch := cp(tr, core.Epoch)
		tso := cp(tr, core.EpochTSO)
		strand := cp(tr, core.Strand)
		if !(strand <= epoch && epoch <= strict && tso <= epoch) {
			t.Errorf("seed %d: relaxation violated: strict %d epoch %d tso %d strand %d",
				seed, strict, epoch, tso, strand)
		}
	}
}
