package trace

import (
	"strings"
	"testing"

	"repro/internal/memory"
)

func pa(off uint64) memory.Addr { return memory.PersistentBase + memory.Addr(off) }
func va(off uint64) memory.Addr { return memory.VolatileBase + memory.Addr(off) }

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k                  Kind
		access, load, stor bool
	}{
		{Load, true, true, false},
		{Store, true, false, true},
		{RMW, true, true, true},
		{PersistBarrier, false, false, false},
		{NewStrand, false, false, false},
		{Malloc, false, false, false},
	}
	for _, c := range cases {
		if c.k.IsAccess() != c.access || c.k.HasLoadSemantics() != c.load || c.k.HasStoreSemantics() != c.stor {
			t.Errorf("%v predicates wrong", c.k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Load; k <= EndWork; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "invalid") {
			t.Errorf("kind %d has bad string %q", k, s)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "invalid") {
		t.Error("unknown kind should stringify as invalid")
	}
}

func TestIsPersist(t *testing.T) {
	if !(Event{Kind: Store, Addr: pa(0), Size: 8}).IsPersist() {
		t.Error("persistent store should be a persist")
	}
	if !(Event{Kind: RMW, Addr: pa(8), Size: 8}).IsPersist() {
		t.Error("persistent RMW should be a persist")
	}
	if (Event{Kind: Store, Addr: va(0), Size: 8}).IsPersist() {
		t.Error("volatile store is not a persist")
	}
	if (Event{Kind: Load, Addr: pa(0), Size: 8}).IsPersist() {
		t.Error("load is not a persist")
	}
}

func TestEventValidate(t *testing.T) {
	good := []Event{
		{Kind: Load, Addr: pa(0), Size: 8},
		{Kind: Store, Addr: va(8), Size: 1},
		{Kind: PersistBarrier},
		{Kind: Malloc, Addr: pa(0), Val: 64},
		{Kind: BeginWork, Val: 3},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("%v should validate: %v", e, err)
		}
	}
	bad := []Event{
		{Kind: Load, Addr: pa(0), Size: 0},
		{Kind: Load, Addr: pa(0), Size: 9},
		{Kind: Store, Addr: 0, Size: 8},
		{Kind: Malloc, Addr: 12, Val: 64},
		{Kind: Invalid},
		{Kind: PersistBarrier, TID: -1},
		{Kind: PersistBarrier, TID: MaxThreads},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("%v should not validate", e)
		}
	}
}

func TestTraceEmitAssignsSeq(t *testing.T) {
	tr := &Trace{}
	tr.Emit(Event{Kind: Load, Addr: pa(0), Size: 8, Seq: 999})
	tr.Emit(Event{Kind: Store, Addr: pa(8), Size: 8})
	if tr.At(0).Seq != 0 || tr.At(1).Seq != 1 {
		t.Fatalf("Seq not assigned: %v, %v", tr.At(0), tr.At(1))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceThreadsAndFilters(t *testing.T) {
	tr := &Trace{}
	tr.Emit(Event{Kind: Store, TID: 0, Addr: pa(0), Size: 8})
	tr.Emit(Event{Kind: Store, TID: 2, Addr: va(0), Size: 8})
	tr.Emit(Event{Kind: Load, TID: 1, Addr: pa(0), Size: 8})
	if tr.Threads() != 3 {
		t.Fatalf("Threads = %d", tr.Threads())
	}
	if got := len(tr.Persists()); got != 1 {
		t.Fatalf("Persists = %d", got)
	}
	loads := tr.Filter(func(e Event) bool { return e.Kind == Load })
	if len(loads) != 1 || loads[0].TID != 1 {
		t.Fatalf("Filter wrong: %v", loads)
	}
}

func TestTeeAndDiscard(t *testing.T) {
	a, b := &Trace{}, &Trace{}
	tee := Tee{a, b, Discard}
	tee.Emit(Event{Kind: PersistBarrier})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("Tee did not forward to all sinks")
	}
}

func TestSplitByThread(t *testing.T) {
	tr := &Trace{}
	tr.Emit(Event{Kind: Store, TID: 0, Addr: pa(0), Size: 8})
	tr.Emit(Event{Kind: Store, TID: 1, Addr: pa(8), Size: 8})
	tr.Emit(Event{Kind: Load, TID: 0, Addr: pa(0), Size: 8})
	split := tr.SplitByThread()
	if len(split) != 2 || len(split[0]) != 2 || len(split[1]) != 1 {
		t.Fatalf("split = %v", split)
	}
	// Program order and global seq both preserved.
	if split[0][0].Seq != 0 || split[0][1].Seq != 2 {
		t.Fatalf("thread 0 seqs: %v", split[0])
	}
}

func TestSlice(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: PersistBarrier, TID: int32(i)})
	}
	s := tr.Slice(1, 3)
	if s.Len() != 2 || s.At(0).TID != 1 || s.At(0).Seq != 0 {
		t.Fatalf("slice = %v, %v", s.At(0), s.At(1))
	}
	if tr.Slice(4, 99).Len() != 1 {
		t.Fatal("clamping to end failed")
	}
	if tr.Slice(9, 2).Len() != 0 {
		t.Fatal("inverted bounds should be empty")
	}
}

func TestEventString(t *testing.T) {
	samples := []Event{
		{Kind: Store, Addr: pa(0), Size: 8, Val: 7},
		{Kind: Malloc, Addr: pa(0), Val: 64},
		{Kind: Free, Addr: pa(0)},
		{Kind: BeginWork, Val: 12},
		{Kind: NewStrand},
	}
	for _, e := range samples {
		if e.String() == "" {
			t.Errorf("empty String for %v", e.Kind)
		}
	}
}
