package intervals

import (
	"slices"
	"testing"
)

// FuzzMapSplitCoalesce feeds arbitrary operation tapes to the interval
// map and cross-checks every intermediate state against the slab
// oracle (contents, Splits, Coalesces) and the final state against the
// per-key reference model, with the structural invariants (leaf
// bounds, sorted, disjoint, non-empty, fully coalesced across leaf
// boundaries) asserted throughout. Each 5-byte chunk of the tape
// encodes one operation: opcode, a 16-bit lo, length, value. The burst
// opcode writes one unit range per length step, so a short tape can
// hold more entries than one leaf.
func FuzzMapSplitCoalesce(f *testing.F) {
	f.Add([]byte{0, 0, 10, 10, 1, 0, 0, 15, 10, 2, 2, 0, 12, 6, 0})
	f.Add([]byte{0, 0, 0, 255, 1, 0, 0, 8, 16, 1, 2, 0, 4, 4, 0, 3, 0, 0, 32, 5})
	f.Add([]byte{3, 0, 250, 20, 7, 0, 0, 255, 8, 3, 1, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 0, 200, 1, 4, 1, 90, 100, 2, 2, 1, 50, 255, 3, 1, 1, 100, 200, 0, 0, 1, 0, 255, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		m := NewMap[uint64, int](intEq)
		slab := newSlabMap[uint64, int](intEq)
		ref := &refModel{vals: map[uint64]int{}}
		for len(tape) >= 5 {
			op, n8, v8 := tape[0], tape[3], tape[4]
			lo := uint64(tape[1])<<8 | uint64(tape[2])
			tape = tape[5:]
			hi := lo + uint64(n8)
			v := int(v8 % 5)
			switch op % 5 {
			case 0:
				m.Set(lo, hi, v)
				slab.Set(lo, hi, v)
				ref.set(lo, hi, v)
			case 1:
				m.Delete(lo, hi)
				slab.Delete(lo, hi)
				ref.del(lo, hi)
			case 2:
				fn := func(r Range[uint64], old int, ok bool) (int, bool) {
					if !ok {
						return v, v%2 == 0
					}
					return old + v, true
				}
				m.Update(lo, hi, fn)
				slab.Update(lo, hi, fn)
				for k := lo; k < hi; k++ {
					if old, ok := ref.vals[k]; ok {
						ref.vals[k] = old + v
					} else if v%2 == 0 {
						ref.vals[k] = v
					}
				}
			case 3:
				// Read-only probes between mutations.
				m.Overlaps(lo, hi)
				m.Get(lo)
				m.Find(hi)
			case 4:
				// Burst: n8 unit ranges, every other key, cycling values.
				for j := uint64(0); j < uint64(n8); j++ {
					k := lo + 2*j
					m.Set(k, k+1, (v+int(j))%5)
					slab.Set(k, k+1, (v+int(j))%5)
					ref.set(k, k+1, (v+int(j))%5)
				}
			}
			checkInvariants(t, m)
			if m.Len() != slab.Len() || m.Splits != slab.Splits || m.Coalesces != slab.Coalesces {
				t.Fatalf("Len/Splits/Coalesces %d/%d/%d, slab %d/%d/%d",
					m.Len(), m.Splits, m.Coalesces, slab.Len(), slab.Splits, slab.Coalesces)
			}
		}
		var got, want []Range[uint64]
		m.EachAll(func(r Range[uint64], _ int) bool { got = append(got, r); return true })
		slab.EachAll(func(r Range[uint64], _ int) bool { want = append(want, r); return true })
		if !slices.Equal(got, want) {
			t.Fatalf("ranges differ from the slab:\n%v\n%v", got, want)
		}
		vals := contents(m, 1<<17)
		if len(vals) != len(ref.vals) {
			t.Fatalf("%d keys, want %d", len(vals), len(ref.vals))
		}
		for k, v := range ref.vals {
			if gv, ok := vals[k]; !ok || gv != v {
				t.Fatalf("key %d: got %d,%v want %d", k, gv, ok, v)
			}
		}
	})
}
