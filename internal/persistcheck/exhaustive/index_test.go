package exhaustive

import "testing"

// put stores v under key the way the checker does: a lookup, then a
// store at the slot it returned.
func (x *index) put(key uint64, v int32) {
	_, at := x.lookup(key)
	x.store(at, key, v)
}

// get returns the value under key, or -1.
func (x *index) get(key uint64) int32 {
	v, _ := x.lookup(key)
	return v
}

func TestIndexEmpty(t *testing.T) {
	var x index
	x.reset(0)
	if len(x.slots) != minIndex {
		t.Fatalf("reset(0) made %d slots, want %d", len(x.slots), minIndex)
	}
	for _, k := range []uint64{0, 1, 1 << 63, ^uint64(0)} {
		if v := x.get(k); v != -1 {
			t.Errorf("empty index: get(%#x) = %d, want -1", k, v)
		}
	}
}

// TestIndexEqualKeys is the collideHashes case: every hash is 0, so
// one slot holds the latest entry and the checker's own links chain
// the rest.
func TestIndexEqualKeys(t *testing.T) {
	var x index
	x.reset(4)
	for v := range int32(100) {
		if got := x.get(0); got != v-1 {
			t.Fatalf("before store %d: get(0) = %d, want %d", v, got, v-1)
		}
		x.put(0, v)
	}
	if x.n != 1 || len(x.slots) != minIndex {
		t.Errorf("100 stores under one key: %d entries in %d slots, want 1 in %d", x.n, len(x.slots), minIndex)
	}
}

// TestIndexProbeWraps fills every slot but one of a table whose keys
// all share the last home slot, so probes run off the end and wrap.
func TestIndexProbeWraps(t *testing.T) {
	var x index
	x.reset(0)
	last := len(x.slots) - 1
	var keys []uint64
	for k := uint64(1); len(keys) < len(x.slots)/2; k++ {
		if x.home(k) == last {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		x.put(k, int32(i))
	}
	for i, k := range keys {
		if v := x.get(k); v != int32(i) {
			t.Errorf("get(%d) = %d, want %d", k, v, i)
		}
	}
	if x.slots[0].v == 0 {
		t.Error("no probe wrapped to slot 0")
	}
}

// TestIndexGrowAndReset grows an index through several doublings, then
// resets it narrow: nothing of the wide use may show, and neither a
// narrow use nor a repeated wide one may allocate.
func TestIndexGrowAndReset(t *testing.T) {
	const wide = 5000
	var x index
	fill := func(n int) {
		x.reset(0)
		for i := range n {
			x.put(mix64(uint64(i)), int32(i))
		}
	}
	fill(wide)
	if len(x.slots) < 2*wide || len(x.slots) > 4*wide {
		t.Fatalf("%d entries in %d slots, want between 2 and 4 slots each", wide, len(x.slots))
	}
	for i := range wide {
		if v := x.get(mix64(uint64(i))); v != int32(i) {
			t.Fatalf("after growth: get(key %d) = %d", i, v)
		}
	}
	x.reset(3)
	if len(x.slots) != minIndex || x.n != 0 {
		t.Fatalf("reset(3) after a wide use: %d entries in %d slots, want 0 in %d", x.n, len(x.slots), minIndex)
	}
	for i := range wide {
		if v := x.get(mix64(uint64(i))); v != -1 {
			t.Fatalf("after reset: get(key %d) = %d, want -1", i, v)
		}
	}
	if a := testing.AllocsPerRun(100, func() { fill(3) }); a != 0 {
		t.Errorf("narrow use after a wide one: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { fill(wide) }); a != 0 {
		t.Errorf("repeated wide use: %v allocations, want 0", a)
	}
}
