package exhaustive

// index maps a 64-bit key to an int32 with open addressing: linear
// probing from a Fibonacci-hashed home slot (the top bits of key times
// 2^64/φ), so image hashes, suffix hashes and raw word addresses all
// spread. The checker keeps its chains of equal-hash entries itself;
// the index holds only each chain's head, under the exact hash.
//
// Unlike a Go map, whose clear costs its capacity, an index is reset to
// a size chosen for its next use and clears only that many slots, so a
// narrow level pays for its own width and not for the widest one its
// storage once held. Growth doubles into retained arrays: once a check
// has run, a repeated one allocates nothing here.
type index struct {
	slots []islot // len is a power of two; slots past len are stale
	spare []islot // the entries being moved by a grow
	shift uint    // 64 - log2(len(slots))
	n     int     // occupied slots
}

// islot is one slot; v is the value plus one, so zero marks it empty.
type islot struct {
	key uint64
	v   int32
}

// minIndex is the fewest slots an index has.
const minIndex = 8

// reset empties x and sizes it to hold n entries at most half full.
func (x *index) reset(n int) {
	size := minIndex
	for size < 2*n {
		size *= 2
	}
	x.resize(size)
	x.n = 0
}

// resize makes x an empty table of size slots, a power of two, reusing
// its array when it is large enough.
func (x *index) resize(size int) {
	if cap(x.slots) < size {
		x.slots = make([]islot, size)
	} else {
		x.slots = x.slots[:size]
		clear(x.slots)
	}
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
}

// home is key's first probe slot.
func (x *index) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> x.shift)
}

// lookup returns the value stored under key, or -1, and the slot that
// holds key or would take it.
func (x *index) lookup(key uint64) (int32, int) {
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.v == 0 {
			return -1, i
		}
		if s.key == key {
			return s.v - 1, i
		}
	}
}

// store sets key's value to v (v >= 0) at slot at, which the latest
// lookup of key returned; no other store may come between them. The
// table doubles once it is over half full.
func (x *index) store(at int, key uint64, v int32) {
	s := &x.slots[at]
	if s.v == 0 {
		x.n++
	}
	s.key, s.v = key, v+1
	if 2*x.n > len(x.slots) {
		x.grow()
	}
}

// grow doubles the table and reinserts its entries. The old entries
// move aside into spare when the array has room to double in place;
// otherwise a new array is made and the old one is kept as the spare.
func (x *index) grow() {
	old := x.slots
	if cap(old) >= 2*len(old) {
		x.spare = append(x.spare[:0], old...)
		old = x.spare
	} else {
		x.spare = old[:0]
		x.slots = nil
	}
	x.resize(2 * len(old))
	mask := len(x.slots) - 1
	for _, s := range old {
		if s.v == 0 {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].v != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}
