package intervals

// slabMap is a test oracle for Map: the same operations and
// Splits/Coalesces counting over one contiguous sorted entry slice,
// where every mutation shifts the slice's tail. That is slow but
// obviously correct. The differential tests drive it and Map through
// the same operations and require identical contents, probes and
// counts.
type slabMap[K Key, V any] struct {
	eq   func(a, b V) bool // nil disables coalescing
	ents []entry[K, V]     // sorted by lo, pairwise disjoint, non-empty
	hint int               // index of the last entry hit by a lookup

	// scratch and window are splice staging buffers reused across
	// Update/Set/Delete calls.
	scratch []entry[K, V]
	window  []entry[K, V]

	// Splits and Coalesces count boundary cuts and equal-value merges
	// performed so far — the interval-churn stats surfaced by the graph
	// builder and the CLIs.
	Splits    uint64
	Coalesces uint64
}

// newSlabMap returns an empty map. eq, when non-nil, is the value-equality
// predicate used to coalesce adjacent ranges; pass nil for values that
// must never merge (e.g. distinct page pointers).
func newSlabMap[K Key, V any](eq func(a, b V) bool) *slabMap[K, V] {
	return &slabMap[K, V]{eq: eq}
}

// Len returns the number of distinct ranges stored.
func (m *slabMap[K, V]) Len() int { return len(m.ents) }

// Clear removes every entry, retaining storage capacity.
func (m *slabMap[K, V]) Clear() {
	m.ents = m.ents[:0]
	m.hint = 0
}

// search returns the index of the first entry with hi > k (the only
// entry that can contain k, and the first candidate overlapping any
// range starting at k). It is the classic sorted-slab binary search
// with a last-hit fast path.
func (m *slabMap[K, V]) search(k K) int {
	if h := m.hint; h < len(m.ents) {
		e := &m.ents[h]
		if e.lo <= k && k < e.hi {
			return h
		}
		// Common sequential pattern: the next entry.
		if k >= e.hi && h+1 < len(m.ents) && m.ents[h+1].lo <= k && k < m.ents[h+1].hi {
			m.hint = h + 1
			return h + 1
		}
	}
	lo, hi := 0, len(m.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.ents[mid].hi <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value covering k.
func (m *slabMap[K, V]) Get(k K) (V, bool) {
	i := m.search(k)
	if i < len(m.ents) && m.ents[i].lo <= k {
		m.hint = i
		return m.ents[i].v, true
	}
	var zero V
	return zero, false
}

// Find returns the full stored range covering k and its value.
func (m *slabMap[K, V]) Find(k K) (Range[K], V, bool) {
	i := m.search(k)
	if i < len(m.ents) && m.ents[i].lo <= k {
		m.hint = i
		return Range[K]{m.ents[i].lo, m.ents[i].hi}, m.ents[i].v, true
	}
	var zero V
	return Range[K]{}, zero, false
}

// Overlaps reports whether any stored range intersects [lo, hi).
func (m *slabMap[K, V]) Overlaps(lo, hi K) bool {
	if hi <= lo {
		return false
	}
	i := m.search(lo)
	return i < len(m.ents) && m.ents[i].lo < hi
}

// Each visits the stored entries intersecting [lo, hi) in ascending
// order, clipped to the query range. fn returning false stops the
// walk. The map must not be mutated during the walk.
func (m *slabMap[K, V]) Each(lo, hi K, fn func(r Range[K], v V) bool) {
	if hi <= lo {
		return
	}
	for i := m.search(lo); i < len(m.ents) && m.ents[i].lo < hi; i++ {
		r := Range[K]{max(m.ents[i].lo, lo), min(m.ents[i].hi, hi)}
		if !fn(r, m.ents[i].v) {
			return
		}
	}
}

// EachAll visits every stored entry in ascending order.
func (m *slabMap[K, V]) EachAll(fn func(r Range[K], v V) bool) {
	for i := range m.ents {
		if !fn(Range[K]{m.ents[i].lo, m.ents[i].hi}, m.ents[i].v) {
			return
		}
	}
}

// Set assigns v uniformly over [lo, hi), splitting partially
// overlapped entries at the boundaries and replacing everything
// between them.
func (m *slabMap[K, V]) Set(lo, hi K, v V) {
	if hi <= lo {
		return
	}
	// Fast path: overwriting an entry with exactly matching boundaries
	// (the steady state of a frontier stamping the same block over and
	// over) needs no splice — unless the new value would coalesce with
	// a neighbor.
	if i := m.search(lo); i < len(m.ents) && m.ents[i].lo == lo && m.ents[i].hi == hi {
		if m.eq == nil ||
			(!(i > 0 && m.ents[i-1].hi == lo && m.eq(m.ents[i-1].v, v)) &&
				!(i+1 < len(m.ents) && m.ents[i+1].lo == hi && m.eq(m.ents[i+1].v, v))) {
			m.ents[i].v = v
			m.hint = i
			return
		}
	}
	m.scratch = append(m.scratch[:0], entry[K, V]{lo, hi, v})
	m.splice(lo, hi)
}

// Update transforms [lo, hi) tile by tile: existing entries are cut at
// the query boundaries, and fn is applied to each resulting tile —
// including the gaps between entries, which arrive with ok=false and a
// zero value. fn returns the tile's new value and whether to keep it;
// returning keep=false leaves (or turns) the tile into a gap, so
// "empty" states need never be materialized. Tiles are visited in
// ascending order and the results re-coalesced.
func (m *slabMap[K, V]) Update(lo, hi K, fn func(r Range[K], v V, ok bool) (V, bool)) {
	if hi <= lo {
		return
	}
	m.scratch = m.scratch[:0]
	var zero V
	cur := lo
	for i := m.search(lo); i < len(m.ents) && m.ents[i].lo < hi; i++ {
		e := m.ents[i]
		if cur < e.lo {
			// Gap before this entry.
			gapHi := min(e.lo, hi)
			if v, keep := fn(Range[K]{cur, gapHi}, zero, false); keep {
				m.pushScratch(cur, gapHi, v)
			}
			cur = gapHi
			if cur >= hi {
				break
			}
		}
		tileHi := min(e.hi, hi)
		if v, keep := fn(Range[K]{cur, tileHi}, e.v, true); keep {
			m.pushScratch(cur, tileHi, v)
		}
		cur = tileHi
		if cur >= hi {
			break
		}
	}
	if cur < hi {
		if v, keep := fn(Range[K]{cur, hi}, zero, false); keep {
			m.pushScratch(cur, hi, v)
		}
	}
	m.splice(lo, hi)
}

// Delete removes [lo, hi) from the map, splitting boundary entries.
func (m *slabMap[K, V]) Delete(lo, hi K) {
	if hi <= lo {
		return
	}
	m.scratch = m.scratch[:0]
	m.splice(lo, hi)
}

// pushScratch appends a tile to the staging buffer, merging with the
// previous tile when adjacent and equal.
func (m *slabMap[K, V]) pushScratch(lo, hi K, v V) {
	if n := len(m.scratch); n > 0 && m.eq != nil {
		p := &m.scratch[n-1]
		if p.hi == lo && m.eq(p.v, v) {
			p.hi = hi
			m.Coalesces++
			return
		}
	}
	m.scratch = append(m.scratch, entry[K, V]{lo, hi, v})
}

// splice replaces the window of entries overlapping [lo, hi) with the
// staged scratch tiles, preserving the parts of boundary entries
// outside the window and coalescing across the window edges.
func (m *slabMap[K, V]) splice(lo, hi K) {
	first := m.search(lo)
	last := first
	for last < len(m.ents) && m.ents[last].lo < hi {
		last++
	}

	// Preserve the outside parts of the boundary entries.
	var head, tail entry[K, V]
	haveHead, haveTail := false, false
	if first < len(m.ents) && m.ents[first].lo < lo {
		head = entry[K, V]{m.ents[first].lo, lo, m.ents[first].v}
		haveHead = true
		m.Splits++
	}
	if last > first && m.ents[last-1].hi > hi {
		tail = entry[K, V]{hi, m.ents[last-1].hi, m.ents[last-1].v}
		haveTail = true
		m.Splits++
	}

	// Merge head/tail with the staged tiles when values agree.
	if haveHead && len(m.scratch) > 0 && m.eq != nil &&
		head.hi == m.scratch[0].lo && m.eq(head.v, m.scratch[0].v) {
		m.scratch[0].lo = head.lo
		haveHead = false
		m.Splits-- // the cut healed
		m.Coalesces++
	}
	if haveTail && len(m.scratch) > 0 && m.eq != nil {
		if s := &m.scratch[len(m.scratch)-1]; s.hi == tail.lo && m.eq(s.v, tail.v) {
			s.hi = tail.hi
			haveTail = false
			m.Splits--
			m.Coalesces++
		}
	}

	// Assemble the replacement window: head, staged tiles, tail. Then
	// coalesce across the window's outer edges with the untouched
	// neighbors.
	window := m.window[:0]
	if haveHead {
		window = append(window, head)
	}
	window = append(window, m.scratch...)
	if haveTail {
		window = append(window, tail)
	}
	m.window = window[:0]

	// Edge coalescing with the neighbor entries outside [first, last).
	if m.eq != nil && len(window) > 0 {
		if first > 0 {
			p := &m.ents[first-1]
			if p.hi == window[0].lo && m.eq(p.v, window[0].v) {
				window[0].lo = p.lo
				first--
				m.Coalesces++
			}
		}
		if last < len(m.ents) {
			n := &m.ents[last]
			w := &window[len(window)-1]
			if w.hi == n.lo && m.eq(w.v, n.v) {
				w.hi = n.hi
				last++
				m.Coalesces++
			}
		}
	}

	m.replace(first, last, window)
	m.hint = first
}

// replace substitutes ents[first:last] with window, shifting the slab
// in place.
func (m *slabMap[K, V]) replace(first, last int, window []entry[K, V]) {
	oldN := last - first
	newN := len(window)
	switch {
	case newN == oldN:
		copy(m.ents[first:last], window)
	case newN < oldN:
		copy(m.ents[first:first+newN], window)
		m.ents = append(m.ents[:first+newN], m.ents[last:]...)
	default:
		grow := newN - oldN
		// Extend and shift the suffix right by grow.
		var zero entry[K, V]
		for i := 0; i < grow; i++ {
			m.ents = append(m.ents, zero)
		}
		copy(m.ents[first+newN:], m.ents[first+oldN:len(m.ents)-grow])
		copy(m.ents[first:first+newN], window)
	}
}
