package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSimulateAllEquivalence pins SimulateAll against solo Simulate:
// walking one trace once with a lane per model produces results
// byte-identical (including WorkPathDeltas) to running each model's
// simulation on its own. The traces cover both queue designs at
// several interleavings, the four KV serving policies and a PSO
// execution; each runs at default parameters and with every option
// that changes what a lane tracks: work paths, a finite coalescing
// window, no coalescing, and 64-byte tracking and atomic blocks.
func TestSimulateAllEquivalence(t *testing.T) {
	type named struct {
		name string
		tr   *trace.Trace
	}
	var traces []named
	for _, design := range []queue.Design{queue.CWL, queue.TwoLock} {
		for _, seed := range []int64{1, 7, 42} {
			tr, err := bench.Trace(bench.Workload{
				Design: design, Policy: core.PolicyEpoch,
				Threads: 2, Inserts: 120, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, named{fmt.Sprintf("%v-seed-%d", design, seed), tr})
		}
	}
	for _, pol := range core.Policies {
		run, err := workload.Build(workload.Options{
			Workload: "kv", Policy: pol, Model: pol.Model(),
			Threads: 8, Inserts: 512, Seed: 42,
			Shards: 4, Keys: 1024, ReadFrac: 0.9, ZipfS: 1.1,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, named{fmt.Sprintf("kv-%v", pol), run.Trace})
	}
	traces = append(traces, named{"pso", psoTrace(3, 40)})

	params := []core.Params{
		{},
		{TrackWorkPath: true},
		{CoalesceWindow: 4},
		{NoCoalescing: true},
		{TrackingGranularity: 64, AtomicGranularity: 64},
	}
	for _, tc := range traces {
		for _, base := range params {
			got, err := core.SimulateAll(tc.tr, base)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(core.Models) {
				t.Fatalf("SimulateAll returned %d results, want %d", len(got), len(core.Models))
			}
			for i, m := range core.Models {
				p := base
				p.Model = m
				want, err := core.Simulate(tc.tr, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got[i]) {
					t.Errorf("%s %+v %v: SimulateAll result differs from solo\nsolo: %+v\nall:  %+v",
						tc.name, base, m, want, got[i])
				}
			}
		}
	}
}

// psoTrace runs three threads under PSO store visibility: each stores
// n words to its own persistent region with a barrier every fifth
// store, and a fenced increment of a shared volatile counter every
// seventh, so stores become visible out of program order and the
// threads conflict.
func psoTrace(seed int64, n uint64) *trace.Trace {
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 3, Seed: seed, Sink: tr, Consistency: exec.PSO})
	s := m.SetupThread()
	base := s.MallocPersistent(1024, 64)
	flag := s.MallocVolatile(8, 8)
	m.Run(func(th *exec.Thread) {
		for i := uint64(0); i < n; i++ {
			th.Store8(base+memory.Addr(th.TID()*256)+memory.Addr((i%4)*8), i)
			if i%5 == 0 {
				th.PersistBarrier()
			}
			if i%7 == 0 {
				th.Fence()
				th.Add8(flag, 1)
			}
		}
	})
	return tr
}

// FuzzSimulateAll checks the lane walk on small fuzzed traces: every
// SimulateAll result must equal the model's solo Simulate, errors
// included, and with coalescing off (which the persist-order graph
// does not model) each model's critical path must equal its graph's.
//
//	go test -fuzz=FuzzSimulateAll -fuzztime=30s -run '^$' ./internal/core
func FuzzSimulateAll(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 12, 1, 10, 0, 6, 0, 2, 1, 0, 0, 2, 2})
	f.Add([]byte{1, 6, 3, 3, 11, 0, 0, 3, 19, 2, 6, 0, 12, 2, 4, 133, 8, 0, 2, 0, 10, 1, 11, 1})
	f.Add([]byte{2, 9, 2, 0, 22, 1, 33, 0, 13, 2, 7, 0, 5, 1, 4, 1, 16, 0, 2, 0, 1, 1, 12, 1})
	f.Add([]byte{1, 0, 42, 0, 2, 0}) // an invalid kind partway through
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 2+2*200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, base := decodeSimFuzz(data)
		got, allErr := core.SimulateAll(tr, base)
		for i, m := range core.Models {
			p := base
			p.Model = m
			want, err := core.Simulate(tr, p)
			if (err == nil) != (allErr == nil) || err != nil && err.Error() != allErr.Error() {
				t.Fatalf("%v %+v: Simulate error %v, SimulateAll error %v", m, base, err, allErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("%v %+v: SimulateAll result differs from solo\nsolo: %+v\nall:  %+v", m, base, want, got[i])
			}
			if !base.NoCoalescing {
				continue
			}
			g, err := graph.Build(tr, core.Params{Model: m, TrackingGranularity: base.TrackingGranularity})
			if err != nil {
				t.Fatal(err)
			}
			if cp := g.CriticalPath(); cp != got[i].CriticalPath {
				t.Fatalf("%v %+v: graph critical path %d, SimulateAll %d", m, base, cp, got[i].CriticalPath)
			}
		}
	})
}

// decodeSimFuzz turns fuzz bytes into a small trace and the shared
// parameters. The first byte picks 2–4 threads. The second picks the
// parameters: bit 0 turns coalescing off, bit 1 tracks work paths,
// bit 2 sets a coalescing window of 4, bit 3 tracks 32-byte blocks.
// Each later pair of bytes is one event: the first picks the kind and
// the thread, the second one of six persistent or four volatile words,
// shifted by half a word (so the access spans two tracking blocks)
// when its high bit is set. A kind byte of 42 emits an invalid event.
func decodeSimFuzz(data []byte) (*trace.Trace, core.Params) {
	tr := &trace.Trace{}
	var p core.Params
	if len(data) < 2 {
		return tr, p
	}
	threads := 2 + int(data[0]%3)
	p.NoCoalescing = data[1]&1 != 0
	p.TrackWorkPath = data[1]&2 != 0
	if data[1]&4 != 0 {
		p.CoalesceWindow = 4
	}
	if data[1]&8 != 0 {
		p.TrackingGranularity = 32
	}
	data = data[2:]
	const maxEvents = 256
	for i := 0; i+1 < len(data) && i < 2*maxEvents; i += 2 {
		op, arg := data[i], data[i+1]
		off := memory.Addr(0)
		if arg&0x80 != 0 {
			off = memory.WordSize / 2
		}
		paddr := memory.PersistentBase + memory.Addr(arg%6)*memory.WordSize + off
		vaddr := memory.VolatileBase + memory.Addr(arg%4)*memory.WordSize + off
		e := trace.Event{TID: int32(int(op/12) % threads), Val: uint64(i)}
		switch op % 12 {
		case 0:
			e.Kind, e.Addr, e.Size = trace.Load, paddr, 8
		case 1:
			e.Kind, e.Addr, e.Size = trace.Load, vaddr, 8
		case 2:
			e.Kind, e.Addr, e.Size = trace.Store, paddr, 8
		case 3:
			e.Kind, e.Addr, e.Size = trace.Store, vaddr, 8
		case 4:
			e.Kind, e.Addr, e.Size = trace.RMW, paddr, 8
		case 5:
			e.Kind, e.Addr, e.Size = trace.RMW, vaddr, 8
		case 6:
			e.Kind = trace.PersistBarrier
		case 7:
			e.Kind = trace.NewStrand
		case 8:
			e.Kind = trace.PersistSync
		case 9:
			e.Kind = trace.BeginWork
		case 10:
			e.Kind = trace.EndWork
		case 11:
			e.Kind, e.Addr, e.Size = trace.Store, paddr, 4
		}
		if op == 42 {
			e = trace.Event{Kind: trace.Kind(42)}
		}
		tr.Emit(e)
	}
	return tr, p
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
