package trace

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/memory"
)

// refValidate is Event.Validate as one out-of-line function, before
// its accept path was split off into Valid. It is the oracle for
// FuzzEventValidate: the split must accept the same events and keep
// every error text.
func refValidate(e Event) error {
	switch {
	case e.Kind.IsAccess():
		if e.Size == 0 || e.Size > memory.WordSize {
			return fmt.Errorf("trace: %s with size %d", e.Kind, e.Size)
		}
		if _, err := memory.CheckRange(e.Addr, int(e.Size)); err != nil {
			return fmt.Errorf("trace: %s: %w", e.Kind, err)
		}
	case e.Kind == Malloc, e.Kind == Free:
		if memory.SpaceOf(e.Addr) == memory.Unmapped {
			return fmt.Errorf("trace: %s of unmapped address %#x", e.Kind, uint64(e.Addr))
		}
	case e.Kind == Invalid || e.Kind > EndWork:
		return fmt.Errorf("trace: invalid event kind %d", uint8(e.Kind))
	}
	if e.TID < 0 || e.TID >= MaxThreads {
		return fmt.Errorf("trace: thread id %d outside [0, %d)", e.TID, MaxThreads)
	}
	return nil
}

// edgeAddrs are addresses at and around both spaces' boundaries, plus
// ones whose range wraps past the top of the address space.
var edgeAddrs = func() []uint64 {
	var out []uint64
	for _, b := range []uint64{
		uint64(memory.VolatileBase), uint64(memory.VolatileBase) + memory.VolatileSize,
		uint64(memory.PersistentBase), uint64(memory.PersistentBase) + memory.PersistentSize,
		0, math.MaxUint64 - 7,
	} {
		for d := uint64(0); d <= 9; d++ {
			out = append(out, b-d, b+d)
		}
	}
	return out
}()

// FuzzEventValidate checks Validate's inlined accept path (Valid)
// against its out-of-line reject path and against refValidate, over
// raw field values: Valid must report true exactly when the reject
// path finds nothing wrong, and Validate must return refValidate's
// error, text included. The seeds cover every Kind byte, every Size,
// negative thread ids and ids at and past MaxThreads, and addresses
// that wrap or straddle a space boundary.
func FuzzEventValidate(f *testing.F) {
	p := uint64(memory.PersistentBase)
	for k := 0; k < 256; k++ {
		f.Add(uint8(k), uint8(8), int32(0), p)
		f.Add(uint8(k), uint8(0), int32(1), uint64(0))
	}
	for s := 0; s < 256; s++ {
		f.Add(uint8(Store), uint8(s), int32(2), p)
		f.Add(uint8(Load), uint8(s), int32(2), uint64(memory.VolatileBase)+memory.VolatileSize-8)
	}
	for _, tid := range []int32{math.MinInt32, -1, 0, MaxThreads - 1, MaxThreads, MaxThreads + 1, math.MaxInt32} {
		f.Add(uint8(Load), uint8(8), tid, p)
		f.Add(uint8(PersistBarrier), uint8(0), tid, uint64(0))
		f.Add(uint8(Free), uint8(0), tid, p)
	}
	for _, a := range edgeAddrs {
		for _, k := range []Kind{Load, RMW, Malloc, Free, NewStrand} {
			for _, s := range []uint8{1, 2, 4, 8} {
				f.Add(uint8(k), s, int32(0), a)
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind, size uint8, tid int32, addr uint64) {
		e := Event{Kind: Kind(kind), Size: size, TID: tid, Addr: memory.Addr(addr)}
		slow := e.invalid()
		if e.Valid() != (slow == nil) {
			t.Fatalf("%v: Valid %v, reject path %v", e, e.Valid(), slow)
		}
		got, want := e.Validate(), refValidate(e)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%v: Validate %v, want %v", e, got, want)
		}
	})
}
