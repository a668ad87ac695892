package epochhw

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
)

func paddr(i uint64) memory.Addr { return memory.PersistentBase + memory.Addr(i*64) }
func vaddr(i uint64) memory.Addr { return memory.VolatileBase + memory.Addr(i*64) }

type tb struct{ tr trace.Trace }

func (b *tb) store(tid int32, a memory.Addr) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: a, Size: 8, Val: 1})
}
func (b *tb) load(tid int32, a memory.Addr) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: a, Size: 8})
}
func (b *tb) barrier(tid int32) { b.tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier}) }

func run(t *testing.T, tr *trace.Trace) Result {
	t.Helper()
	r, err := Run(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{LineBytes: 12}); err == nil {
		t.Error("bad line size accepted")
	}
	if _, err := New(Config{LineBytes: 4}); err == nil {
		t.Error("sub-word line accepted")
	}
	c, err := New(Config{})
	if err != nil || c.cfg.LineBytes != 64 {
		t.Error("default line size")
	}
}

func TestSameThreadEpochOrder(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.barrier(0)
	b.store(0, paddr(1))
	r := run(t, &b.tr)
	if len(r.Writes) != 2 {
		t.Fatalf("writes = %d", len(r.Writes))
	}
	if r.Writes[0].Seqs[0] != 0 || r.Writes[1].Seqs[0] != 2 {
		t.Fatalf("epoch order violated: %+v", r.Writes)
	}
	if r.EpochsDrained != 2 || r.ForcedDrains != 0 {
		t.Fatalf("drain stats: %+v", r)
	}
}

func TestCoalescingInCache(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.store(0, paddr(0))                                                                   // same line, same epoch
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: paddr(0) + 8, Size: 8, Val: 2}) // same 64B line
	r := run(t, &b.tr)
	if len(r.Writes) != 1 {
		t.Fatalf("writes = %d, want 1 coalesced line", len(r.Writes))
	}
	if r.Coalesced != 2 {
		t.Fatalf("coalesced = %d", r.Coalesced)
	}
	if len(r.Writes[0].Seqs) != 3 {
		t.Fatalf("line seqs = %v", r.Writes[0].Seqs)
	}
}

func TestCrossThreadStoreConflictForcesDrain(t *testing.T) {
	var b tb
	b.store(0, paddr(0)) // T0's in-flight line
	b.store(1, paddr(0)) // T1 writes it: T0's epoch must drain first
	r := run(t, &b.tr)
	if r.ForcedDrains != 1 {
		t.Fatalf("forced drains = %d", r.ForcedDrains)
	}
	pos := r.DrainPos()
	if !(pos[0] < pos[1]) {
		t.Fatalf("conflict order violated: %+v", r.Writes)
	}
}

func TestCrossThreadLoadForcesDrain(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.load(1, paddr(0)) // reading another thread's in-flight line drains it
	b.store(1, paddr(1))
	r := run(t, &b.tr)
	if r.ForcedDrains != 1 {
		t.Fatalf("forced drains = %d", r.ForcedDrains)
	}
	pos := r.DrainPos()
	if !(pos[0] < pos[2]) {
		t.Fatalf("order: %v", pos)
	}
}

func TestOwnOlderEpochStoreDrains(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.barrier(0)
	b.store(0, paddr(0)) // same line, newer epoch: older epoch drains
	r := run(t, &b.tr)
	if r.ForcedDrains != 1 {
		t.Fatalf("forced drains = %d", r.ForcedDrains)
	}
	pos := r.DrainPos()
	if !(pos[0] < pos[2]) {
		t.Fatalf("same-line epoch order violated")
	}
}

func TestVolatileTrafficInvisible(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.store(1, vaddr(0))
	b.load(0, vaddr(0))
	r := run(t, &b.tr)
	if r.ForcedDrains != 0 || len(r.Writes) != 1 {
		t.Fatalf("volatile traffic affected the hardware: %+v", r)
	}
}

// validateAgainstModel checks that the hardware's write order satisfies
// every constraint of the abstract EpochTSO model at the hardware's
// line granularity, and that each persist drains exactly once.
func validateAgainstModel(t *testing.T, tr *trace.Trace, lineBytes uint64) {
	t.Helper()
	r, err := Run(tr, Config{LineBytes: lineBytes})
	if err != nil {
		t.Fatal(err)
	}
	pos := r.DrainPos()
	// Exactly-once.
	count := 0
	for _, w := range r.Writes {
		count += len(w.Seqs)
	}
	persists := tr.Persists()
	if count != len(persists) {
		t.Fatalf("hardware drained %d persists, trace has %d", count, len(persists))
	}
	for _, p := range persists {
		if _, ok := pos[p.Seq]; !ok {
			t.Fatalf("persist #%d never drained", p.Seq)
		}
	}
	// Model constraints.
	g, err := graph.Build(tr, core.Params{Model: core.EpochTSO, TrackingGranularity: lineBytes})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		for _, e := range n.In {
			from := g.Nodes[e.From].Event.Seq
			to := n.Event.Seq
			if pos[from] > pos[to] {
				t.Fatalf("hardware violated %v constraint: #%d (pos %d) must persist before #%d (pos %d)",
					e.Class, from, pos[from], to, pos[to])
			}
		}
	}
}

func TestHardwareEnforcesModelOnStructuredTraces(t *testing.T) {
	// Barriered multi-thread workload with shared persistent head-like
	// word and disjoint data.
	var b tb
	for i := uint64(0); i < 30; i++ {
		tid := int32(i % 3)
		b.store(tid, paddr(10+i))
		b.store(tid, paddr(10+i))
		b.barrier(tid)
		b.store(tid, paddr(0)) // shared
		b.barrier(tid)
	}
	validateAgainstModel(t, &b.tr, 64)
}

func TestHardwareEnforcesModelOnQueueWorkloads(t *testing.T) {
	for _, pol := range []core.Policy{core.PolicyEpoch, core.PolicyRacingEpoch} {
		for _, threads := range []int{1, 3} {
			tr, err := bench.Trace(bench.Workload{
				Design: queue.CWL, Policy: pol, Threads: threads,
				Inserts: 60, PayloadLen: 100, Seed: 17,
			})
			if err != nil {
				t.Fatal(err)
			}
			validateAgainstModel(t, tr, 64)
		}
	}
}

func TestHardwareForcedDrainsReflectSharing(t *testing.T) {
	// The shared head pointer forces drains under multi-threaded CWL;
	// a single thread with per-insert barriers needs none beyond its
	// own same-line epoch handoffs.
	multi, err := bench.Trace(bench.Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 4, Inserts: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(multi, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ForcedDrains == 0 {
		t.Fatal("shared head should force drains")
	}
}

func TestHardwareEnforcesModelOnRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b tb
		for i := 0; i < 200; i++ {
			tid := int32(rng.Intn(3))
			switch rng.Intn(8) {
			case 0:
				b.barrier(tid)
			case 1:
				b.load(tid, paddr(uint64(rng.Intn(6))))
			case 2:
				b.store(tid, vaddr(uint64(rng.Intn(3))))
			default:
				b.store(tid, paddr(uint64(rng.Intn(6))))
			}
		}
		validateAgainstModel(t, &b.tr, 64)
		validateAgainstModel(t, &b.tr, 8)
	}
}
