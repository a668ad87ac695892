package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Trace-building helpers. Addresses are spaced 64 bytes apart so that
// at the default 8-byte granularities no two logical variables share a
// block, unless a test says otherwise.
func paddr(i uint64) memory.Addr { return memory.PersistentBase + memory.Addr(i*64) }
func vaddr(i uint64) memory.Addr { return memory.VolatileBase + memory.Addr(i*64) }

type tb struct{ tr trace.Trace }

func (b *tb) store(tid int32, a memory.Addr) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: a, Size: 8, Val: 1})
}
func (b *tb) load(tid int32, a memory.Addr) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: a, Size: 8})
}
func (b *tb) rmw(tid int32, a memory.Addr) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.RMW, Addr: a, Size: 8, Val: 1})
}
func (b *tb) barrier(tid int32)   { b.tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier}) }
func (b *tb) newStrand(tid int32) { b.tr.Emit(trace.Event{TID: tid, Kind: trace.NewStrand}) }
func (b *tb) sync(tid int32)      { b.tr.Emit(trace.Event{TID: tid, Kind: trace.PersistSync}) }
func (b *tb) work(tid int32, id uint64) {
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.BeginWork, Val: id})
	b.tr.Emit(trace.Event{TID: tid, Kind: trace.EndWork, Val: id})
}

func mustSim(t *testing.T, tr *trace.Trace, p Params) Result {
	t.Helper()
	r, err := Simulate(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStrictSerializesProgramOrder(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.store(0, paddr(1))
	b.store(0, paddr(2))
	r := mustSim(t, &b.tr, Params{Model: Strict})
	if r.CriticalPath != 3 {
		t.Fatalf("strict critical path = %d, want 3", r.CriticalPath)
	}
	if r.Persists != 3 || r.Placed != 3 || r.Coalesced != 0 {
		t.Fatalf("counts wrong: %+v", r)
	}
}

func TestEpochConcurrentWithinEpoch(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.store(0, paddr(1))
	b.store(0, paddr(2))
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.CriticalPath != 1 {
		t.Fatalf("epoch critical path = %d, want 1", r.CriticalPath)
	}
}

func TestEpochBarrierOrders(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.barrier(0)
	b.store(0, paddr(1))
	b.store(0, paddr(2))
	b.barrier(0)
	b.store(0, paddr(3))
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.CriticalPath != 3 {
		t.Fatalf("epoch critical path = %d, want 3", r.CriticalPath)
	}
	// Strict ignores barriers but orders everything anyway.
	r = mustSim(t, &b.tr, Params{Model: Strict})
	if r.CriticalPath != 4 {
		t.Fatalf("strict critical path = %d, want 4", r.CriticalPath)
	}
}

func TestStrongPersistAtomicityCoalesces(t *testing.T) {
	// Same-address persists in one epoch coalesce into one NVRAM write.
	var b tb
	b.store(0, paddr(0))
	b.store(0, paddr(0))
	b.store(0, paddr(0))
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.CriticalPath != 1 || r.Coalesced != 2 || r.Placed != 1 {
		t.Fatalf("coalescing wrong: %+v", r)
	}
	// Without coalescing, strong persist atomicity serializes them.
	r = mustSim(t, &b.tr, Params{Model: Epoch, NoCoalescing: true})
	if r.CriticalPath != 3 || r.Coalesced != 0 {
		t.Fatalf("no-coalescing wrong: %+v", r)
	}
}

func TestStrictCoalescingLargeAtomicPersists(t *testing.T) {
	// Figure 4's mechanism: under strict persistency, consecutive
	// persists to one large atomic block coalesce, shrinking the
	// critical path; with 8-byte atomic persists they serialize.
	var b tb
	for i := 0; i < 8; i++ {
		b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: memory.PersistentBase + memory.Addr(8*i), Size: 8, Val: 1})
	}
	r8 := mustSim(t, &b.tr, Params{Model: Strict, AtomicGranularity: 8})
	if r8.CriticalPath != 8 {
		t.Fatalf("strict@8B = %d, want 8", r8.CriticalPath)
	}
	r64 := mustSim(t, &b.tr, Params{Model: Strict, AtomicGranularity: 64})
	if r64.CriticalPath != 1 {
		t.Fatalf("strict@64B = %d, want 1 (all coalesce)", r64.CriticalPath)
	}
	if r64.Coalesced != 7 {
		t.Fatalf("strict@64B coalesced = %d, want 7", r64.Coalesced)
	}
	// Epoch was already concurrent; large atomic persists don't help.
	e8 := mustSim(t, &b.tr, Params{Model: Epoch, AtomicGranularity: 8})
	e64 := mustSim(t, &b.tr, Params{Model: Epoch, AtomicGranularity: 64})
	if e8.CriticalPath != 1 || e64.CriticalPath != 1 {
		t.Fatalf("epoch paths: %d, %d; want 1, 1", e8.CriticalPath, e64.CriticalPath)
	}
}

func TestStrictCoalesceBlockedByInterveningDependence(t *testing.T) {
	// A(block0) then B(block1) then A2(block0): A2 depends on B at the
	// open level's successor, so A2 must NOT coalesce back into A.
	g := uint64(8)
	a0 := memory.PersistentBase
	a1 := memory.PersistentBase + 64
	var b tb
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: a0, Size: 8, Val: 1})
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: a1, Size: 8, Val: 1})
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: a0, Size: 8, Val: 2})
	r := mustSim(t, &b.tr, Params{Model: Strict, AtomicGranularity: g})
	if r.CriticalPath != 3 || r.Coalesced != 0 {
		t.Fatalf("want serialized 3 with no coalescing, got %+v", r)
	}
}

func TestCrossThreadConflictStrict(t *testing.T) {
	// T0 persists A then raises a volatile flag; T1 reads the flag and
	// persists B. Under strict persistency B is ordered after A.
	var b tb
	b.store(0, paddr(0))
	b.store(0, vaddr(0))
	b.load(1, vaddr(0))
	b.store(1, paddr(1))
	r := mustSim(t, &b.tr, Params{Model: Strict})
	if r.CriticalPath != 2 {
		t.Fatalf("strict cross-thread path = %d, want 2", r.CriticalPath)
	}
}

func TestEpochSameEpochRaceIsConcurrent(t *testing.T) {
	// The paper's "astonishing" semantics (§5.2): synchronization inside
	// a persist epoch orders the stores but NOT the persists. T0:
	// persist A, barrier, raise flag. T1: see flag, persist B in the
	// same epoch -> concurrent with A; after a barrier, persist C ->
	// ordered after A.
	var b tb
	b.store(0, paddr(0)) // A, level 1
	b.barrier(0)
	b.store(0, vaddr(0)) // flag: exports level 1
	b.load(1, vaddr(0))  // T1 observes, pending only
	b.store(1, paddr(1)) // B: same epoch, level 1 (concurrent with A)
	b.barrier(1)
	b.store(1, paddr(2)) // C: level 2
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.CriticalPath != 2 {
		t.Fatalf("epoch path = %d, want 2", r.CriticalPath)
	}
	// Strict orders B after A as well: A=1, B=2, C=3.
	r = mustSim(t, &b.tr, Params{Model: Strict})
	if r.CriticalPath != 3 {
		t.Fatalf("strict path = %d, want 3", r.CriticalPath)
	}
}

func TestLoadBeforeStoreConflict(t *testing.T) {
	// SC conflict ordering that BPFS (TSO detection) misses: T0 persists
	// A (bound), loads X; T1 stores X, then persists B after a barrier.
	// Under Epoch (SC detection) B is ordered after A; under EpochTSO it
	// is not.
	var b tb
	b.store(0, paddr(0)) // A
	b.barrier(0)
	b.load(0, vaddr(0)) // T0 reads X with A bound in active
	b.store(1, vaddr(0))
	b.barrier(1)
	b.store(1, paddr(1)) // B
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.CriticalPath != 2 {
		t.Fatalf("epoch (SC conflicts) path = %d, want 2", r.CriticalPath)
	}
	r = mustSim(t, &b.tr, Params{Model: EpochTSO})
	if r.CriticalPath != 1 {
		t.Fatalf("epoch-tso path = %d, want 1", r.CriticalPath)
	}
}

func TestEpochTSOIgnoresVolatileConflicts(t *testing.T) {
	// BPFS tracks conflicts only on the persistent space: a volatile
	// flag handoff does not order persists under EpochTSO, but a
	// persistent flag handoff does.
	mk := func(flag memory.Addr) *trace.Trace {
		var b tb
		b.store(0, paddr(0))
		b.barrier(0)
		b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: flag, Size: 8, Val: 1})
		b.tr.Emit(trace.Event{TID: 1, Kind: trace.Load, Addr: flag, Size: 8})
		b.barrier(1)
		b.store(1, paddr(2))
		return &b.tr
	}
	rv := mustSim(t, mk(vaddr(1)), Params{Model: EpochTSO})
	if rv.CriticalPath != 1 {
		t.Fatalf("volatile flag under epoch-tso: path = %d, want 1", rv.CriticalPath)
	}
	rp := mustSim(t, mk(paddr(1)), Params{Model: EpochTSO})
	if rp.CriticalPath != 3 {
		// flag itself is a persist: A=1, flag=2 (after barrier), B=3.
		t.Fatalf("persistent flag under epoch-tso: path = %d, want 3", rp.CriticalPath)
	}
}

func TestStrandClearsDependence(t *testing.T) {
	var b tb
	b.store(0, paddr(0)) // level 1
	b.barrier(0)
	b.store(0, paddr(1)) // level 2
	b.newStrand(0)
	b.store(0, paddr(2)) // fresh strand: level 1
	r := mustSim(t, &b.tr, Params{Model: Strand})
	if r.CriticalPath != 2 {
		t.Fatalf("strand path = %d, want 2", r.CriticalPath)
	}
	// Epoch ignores NewStrand: path 3... barrier separated only once;
	// paddr(1) and paddr(2) share the second epoch: path 2 as well, so
	// add a barrier-equivalent check: strict = 3.
	r = mustSim(t, &b.tr, Params{Model: Strict})
	if r.CriticalPath != 3 {
		t.Fatalf("strict path = %d, want 3", r.CriticalPath)
	}
}

func TestStrandStrongAtomicityStillOrders(t *testing.T) {
	// Persists to the same address are ordered across strands; with
	// coalescing they merge into the open persist instead.
	var b tb
	b.store(0, paddr(0))
	b.barrier(0)
	b.store(0, paddr(1)) // level 2
	b.newStrand(0)
	b.store(0, paddr(1)) // same address: coalesces into level 2
	r := mustSim(t, &b.tr, Params{Model: Strand})
	if r.CriticalPath != 2 || r.Coalesced != 1 {
		t.Fatalf("strand coalesce: %+v", r)
	}
	r = mustSim(t, &b.tr, Params{Model: Strand, NoCoalescing: true})
	if r.CriticalPath != 3 {
		t.Fatalf("strand no-coalesce path = %d, want 3", r.CriticalPath)
	}
}

func TestStrandReadToOrder(t *testing.T) {
	// §5.3: "a persist strand begins by reading persisted memory
	// locations after which new persists must be ordered", then a
	// persist barrier. The read + barrier creates the intended order.
	var b tb
	b.store(0, paddr(0)) // A, level 1
	b.barrier(0)
	b.newStrand(0)
	b.load(0, paddr(0)) // read A's location
	b.barrier(0)
	b.store(0, paddr(1)) // must be ordered after A: level 2
	r := mustSim(t, &b.tr, Params{Model: Strand})
	if r.CriticalPath != 2 {
		t.Fatalf("strand read-to-order path = %d, want 2", r.CriticalPath)
	}
	// Without the read, the persist is concurrent with A.
	var c tb
	c.store(0, paddr(0))
	c.barrier(0)
	c.newStrand(0)
	c.barrier(0)
	c.store(0, paddr(1))
	r = mustSim(t, &c.tr, Params{Model: Strand})
	if r.CriticalPath != 1 {
		t.Fatalf("strand without read path = %d, want 1", r.CriticalPath)
	}
}

func TestFalseSharingCoarseTracking(t *testing.T) {
	// Figure 5's mechanism: with 64-byte tracking, persists to disjoint
	// 8-byte words in the same 64-byte block are (falsely) ordered under
	// epoch persistency; with 8-byte tracking they are concurrent.
	a0 := memory.PersistentBase
	a1 := memory.PersistentBase + 8
	var b tb
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: a0, Size: 8, Val: 1})
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: a1, Size: 8, Val: 1})
	fine := mustSim(t, &b.tr, Params{Model: Epoch, TrackingGranularity: 8})
	if fine.CriticalPath != 1 {
		t.Fatalf("fine tracking path = %d, want 1", fine.CriticalPath)
	}
	coarse := mustSim(t, &b.tr, Params{Model: Epoch, TrackingGranularity: 64})
	if coarse.CriticalPath != 2 {
		t.Fatalf("coarse tracking path = %d, want 2", coarse.CriticalPath)
	}
	// Strict is already serialized; coarse tracking changes nothing.
	s8 := mustSim(t, &b.tr, Params{Model: Strict, TrackingGranularity: 8})
	s64 := mustSim(t, &b.tr, Params{Model: Strict, TrackingGranularity: 64})
	if s8.CriticalPath != s64.CriticalPath {
		t.Fatalf("strict affected by tracking: %d vs %d", s8.CriticalPath, s64.CriticalPath)
	}
}

func TestPersistentRMWIsPersist(t *testing.T) {
	var b tb
	b.rmw(0, paddr(0))
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.Persists != 1 || r.CriticalPath != 1 {
		t.Fatalf("persistent RMW: %+v", r)
	}
}

func TestVolatileRMWPropagates(t *testing.T) {
	// Lock-style handoff through a volatile RMW with barriers around it
	// (the paper's non-racing epoch discipline) orders persists across
	// threads.
	var b tb
	b.store(0, paddr(0)) // A
	b.barrier(0)
	b.rmw(0, vaddr(0)) // unlock-ish
	b.rmw(1, vaddr(0)) // lock-ish: conflicts
	b.barrier(1)
	b.store(1, paddr(1)) // B: ordered after A
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.CriticalPath != 2 {
		t.Fatalf("RMW handoff path = %d, want 2", r.CriticalPath)
	}
}

func TestPersistSyncBindsEpochState(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.sync(0)
	b.store(0, paddr(1))
	r := mustSim(t, &b.tr, Params{Model: Epoch})
	if r.CriticalPath != 2 || r.Syncs != 1 {
		t.Fatalf("persist sync: %+v", r)
	}
}

func TestThreadsAreConcurrentWithoutConflicts(t *testing.T) {
	// Unsynchronized threads persist concurrently even under strict
	// persistency ("such models can still facilitate persist concurrency
	// by relying on thread concurrency", §4.1).
	var b tb
	for i := 0; i < 5; i++ {
		b.store(0, paddr(uint64(i)))
		b.store(1, paddr(uint64(100+i)))
	}
	r := mustSim(t, &b.tr, Params{Model: Strict})
	if r.CriticalPath != 5 {
		t.Fatalf("independent threads path = %d, want 5", r.CriticalPath)
	}
}

func TestWorkItemsAndRates(t *testing.T) {
	var b tb
	b.work(0, 1)
	b.store(0, paddr(0))
	b.work(0, 2)
	r := mustSim(t, &b.tr, Params{Model: Strict})
	if r.WorkItems != 2 {
		t.Fatalf("work items = %d", r.WorkItems)
	}
	if got := r.PathPerWork(); got != 0.5 {
		t.Fatalf("PathPerWork = %v", got)
	}
	// 2 items / (1 × 500ns) = 4e6/s.
	if got := r.PersistBoundRate(500 * time.Nanosecond); math.Abs(got-4e6) > 1 {
		t.Fatalf("PersistBoundRate = %v", got)
	}
}

func TestTrackWorkPath(t *testing.T) {
	var b tb
	// Item 1: one persist (delta 1). Item 2: barrier + persist (delta
	// 1). Item 3: no persists (delta 0).
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.BeginWork, Val: 1})
	b.store(0, paddr(0))
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.EndWork, Val: 1})
	b.barrier(0)
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.BeginWork, Val: 2})
	b.store(0, paddr(1))
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.EndWork, Val: 2})
	b.work(0, 3)
	r := mustSim(t, &b.tr, Params{Model: Epoch, TrackWorkPath: true})
	want := []int64{1, 1, 0}
	if len(r.WorkPathDeltas) != len(want) {
		t.Fatalf("deltas = %v", r.WorkPathDeltas)
	}
	var sum int64
	for i, d := range r.WorkPathDeltas {
		if d != want[i] {
			t.Fatalf("deltas = %v, want %v", r.WorkPathDeltas, want)
		}
		sum += d
	}
	if sum != r.CriticalPath {
		t.Fatalf("deltas sum %d != critical path %d", sum, r.CriticalPath)
	}
	// Disabled by default.
	r = mustSim(t, &b.tr, Params{Model: Epoch})
	if r.WorkPathDeltas != nil {
		t.Fatal("deltas tracked without the flag")
	}
}

func TestPersistBoundRateInfiniteWhenNoPersists(t *testing.T) {
	var b tb
	b.work(0, 1)
	r := mustSim(t, &b.tr, Params{Model: Strict})
	if !math.IsInf(r.PersistBoundRate(time.Microsecond), 1) {
		t.Fatal("no persists should mean infinite persist-bound rate")
	}
}

func TestCoalesceWindow(t *testing.T) {
	// Repeated persists to one address with interleaved persists
	// elsewhere: unbounded window coalesces all head-like persists into
	// one; window 2 forces periodic re-placement.
	var b tb
	for i := uint64(0); i < 12; i++ {
		b.store(0, paddr(1+i)) // fresh block each time
		b.store(0, paddr(0))   // same block every time ("head")
	}
	unbounded := mustSim(t, &b.tr, Params{Model: Epoch})
	// Epoch, no barriers: fresh-block persists all level 1; head
	// coalesces into its first persist forever.
	if unbounded.CriticalPath != 1 || unbounded.Coalesced != 11 {
		t.Fatalf("unbounded: %+v", unbounded)
	}
	windowed := mustSim(t, &b.tr, Params{Model: Epoch, CoalesceWindow: 2})
	if windowed.Coalesced >= unbounded.Coalesced {
		t.Fatalf("window should reduce coalescing: %d vs %d", windowed.Coalesced, unbounded.Coalesced)
	}
	if windowed.CriticalPath <= unbounded.CriticalPath {
		t.Fatalf("window should lengthen the path: %d vs %d", windowed.CriticalPath, unbounded.CriticalPath)
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewSim(Params{TrackingGranularity: 12}); err == nil {
		t.Error("non-power-of-two tracking accepted")
	}
	if _, err := NewSim(Params{AtomicGranularity: 4}); err == nil {
		t.Error("sub-word atomic granularity accepted")
	}
	s, err := NewSim(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if p := s.lanes[0].params; p.TrackingGranularity != 8 || p.AtomicGranularity != 8 {
		t.Fatal("defaults not applied")
	}
}

func TestSimAsSinkAndErr(t *testing.T) {
	s := MustNewSim(Params{Model: Epoch})
	s.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: paddr(0), Size: 8})
	s.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: 0x4, Size: 8}) // unmapped
	if s.Err() == nil {
		t.Fatal("invalid event should set Err")
	}
	// Further events are ignored after an error.
	s.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: paddr(1), Size: 8})
	if s.Result().Events != 1 {
		t.Fatalf("events after error counted: %d", s.Result().Events)
	}
}

func TestSimulateAll(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.barrier(0)
	b.store(0, paddr(1))
	rs, err := SimulateAll(&b.tr, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(Models) {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Model != Models[i] {
			t.Fatalf("result %d has model %v", i, r.Model)
		}
	}
}

func TestModelStrings(t *testing.T) {
	for _, m := range Models {
		if m.String() == "" {
			t.Fatalf("model %d has empty name", m)
		}
	}
	if Model(99).String() != "model(99)" {
		t.Fatal("unknown model string")
	}
}

// TestRelaxationHierarchy: on any trace annotated with barriers and
// strands, critical paths must satisfy strand <= epoch <= strict, since
// each model's constraint set is a subset of the next (on these
// workload shapes).
func TestRelaxationHierarchy(t *testing.T) {
	var b tb
	// A small pseudo-workload: two threads, locks via volatile RMW,
	// persists with barriers and strands.
	for i := uint64(0); i < 20; i++ {
		tid := int32(i % 2)
		b.barrier(tid)
		b.rmw(tid, vaddr(0)) // acquire-ish
		b.newStrand(tid)
		b.store(tid, paddr(10+i))
		b.store(tid, paddr(40+i))
		b.barrier(tid)
		b.store(tid, paddr(0)) // shared "head"
		b.barrier(tid)
		b.rmw(tid, vaddr(0)) // release-ish
	}
	strict := mustSim(t, &b.tr, Params{Model: Strict})
	epoch := mustSim(t, &b.tr, Params{Model: Epoch})
	strand := mustSim(t, &b.tr, Params{Model: Strand})
	if !(strand.CriticalPath <= epoch.CriticalPath && epoch.CriticalPath <= strict.CriticalPath) {
		t.Fatalf("hierarchy violated: strand %d, epoch %d, strict %d",
			strand.CriticalPath, epoch.CriticalPath, strict.CriticalPath)
	}
	if strict.CriticalPath <= 20 {
		t.Fatalf("strict should serialize most persists, got %d", strict.CriticalPath)
	}
}

// TestSimTablesFollowTouchedPages pins the paged state tables: their
// storage follows the pages a trace touches, not the address span
// between its accesses. Persists at both ends of a gigabyte of
// persistent space cost an index page and a few index nodes per table
// per end, plus each table's first value chunk (29 KiB in all); a
// table dense over the span would hold 2^27 tracking blocks, over
// 9 GiB.
func TestSimTablesFollowTouchedPages(t *testing.T) {
	var b tb
	for _, a := range []memory.Addr{memory.PersistentBase, memory.PersistentBase + 1<<30} {
		b.store(0, a)
		b.load(1, a)
		b.store(1, a)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := MustNewSim(Params{Model: Epoch, NoCoalescing: true})
	for e := range b.tr.All() {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("simulating persists 1 GiB apart allocated %d bytes, want at most 64 KiB", got)
	}
	if r := s.Result(); r.Persists != 4 || r.CriticalPath != 2 {
		t.Fatalf("got %d persists at critical path %d, want 4 at 2", r.Persists, r.CriticalPath)
	}
}

// TestTableGenerationWrap runs one simulator across the wrap of its
// tables' 32-bit generation stamps. A run stamps the entries it touches
// with its generation, and the wrap hands that generation out again:
// unless the wrap clears the index, a later run under the same
// generation would take the earlier run's final state for its initial
// one.
func TestTableGenerationWrap(t *testing.T) {
	tr := synthTrace(2000)
	for _, p := range []Params{{Model: Epoch}, {Model: Strict, TrackingGranularity: 64, AtomicGranularity: 64}} {
		want := mustSim(t, tr, p)
		s := MustNewSim(p)
		run := func(tr *trace.Trace) Result {
			t.Helper()
			if err := s.Reset(p); err != nil {
				t.Fatal(err)
			}
			for e := range tr.All() {
				if err := s.Feed(e); err != nil {
					t.Fatal(err)
				}
			}
			return s.Result()
		}
		run(tr)
		first := s.atoms.gen
		s.k.trackV.gen, s.k.trackP.gen, s.atoms.gen = math.MaxUint32-1, math.MaxUint32-1, math.MaxUint32-1
		for s.atoms.gen != first-1 {
			run(&trace.Trace{})
		}
		if got := run(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: after the wrap, generation %d reads %+v, want %+v", p, s.atoms.gen, got, want)
		}
	}
}
