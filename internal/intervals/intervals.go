// Package intervals provides an ordered interval map and set over
// 64-bit keys (memory.Addr, memory.BlockID, page indices) with
// split-on-overlap assignment and coalescing of adjacent equal-value
// ranges — the boost::icl idiom Agamotto's PersistentMemoryState is
// built on (SNIPPETS.md #1–2), tuned for the hot paths here:
//
//   - Storage is a sequence of sorted leaves of half-open entries
//     [lo, hi) → V, each holding at most leafMax entries, with a
//     parallel slice of each leaf's last bound. A lookup binary-searches
//     the bounds, then one leaf. A mutation rewrites only the one or two
//     leaves it touches, so an insert shifts at most a leaf's worth of
//     entries, never the whole map; the leaf index itself moves only
//     when a leaf splits (it is full) or is dropped (it is empty).
//   - There are no per-entry heap allocations. A leaf split allocates
//     at most the one new leaf, dropped leaves are kept for reuse, and
//     Clear retains every leaf, so steady-state mutation allocates only
//     when the distinct-range count grows past every previous high. The
//     first leaf grows like a slice, so a map that stays small stays
//     small.
//   - Iteration is callback-based (Each/EachAll), so range queries and
//     walks allocate nothing — there is no iterator object to pool
//     because the "iterator" is a stack frame.
//   - Point lookups remember the last hit entry; workloads with any
//     locality (a simulator walking a heap, a builder revisiting the
//     same cache line) resolve Get in O(1) without searching.
//   - An optional equality predicate coalesces adjacent entries whose
//     values compare equal, so a frontier that covers untouched space
//     with one uniform value costs one entry, not one per block.
//     Coalescing ignores leaf boundaries: no two adjacent equal entries
//     exist anywhere in the map.
//
// The value type is caller-defined; callers that mutate values reached
// through Update must treat shared references copy-on-write, because a
// split duplicates the value into both halves.
package intervals

import "slices"

// Key is any 64-bit unsigned key type: memory.Addr, memory.BlockID,
// or a plain page/block index.
type Key interface{ ~uint64 }

// Range is a half-open key range [Lo, Hi). Ranges with Hi <= Lo are
// empty and ignored by every operation.
type Range[K Key] struct {
	Lo, Hi K
}

// Empty reports whether the range contains no keys.
func (r Range[K]) Empty() bool { return r.Hi <= r.Lo }

// Len returns the number of keys in the range.
func (r Range[K]) Len() uint64 { return uint64(r.Hi - r.Lo) }

// Overlaps reports whether two ranges share any key.
func (r Range[K]) Overlaps(o Range[K]) bool { return r.Lo < o.Hi && o.Lo < r.Hi }

// Contains reports whether k lies in the range.
func (r Range[K]) Contains(k K) bool { return r.Lo <= k && k < r.Hi }

type entry[K Key, V any] struct {
	lo, hi K
	v      V
}

// leafMax is the entry capacity of one leaf. It bounds the shift an
// insert pays (one leaf's tail) against the depth of the two binary
// searches and the number of leaves.
const leafMax = 128

// pos addresses an entry: index i within leaf l. Positions are kept
// canonical — i < len(leaves[l]) — and the end position is
// {len(leaves), 0}, so two positions are equal iff they address the
// same entry.
type pos struct{ l, i int }

// Map is an ordered map from disjoint half-open ranges to values.
// Assigning over an existing range splits the overlapped entries at
// the assignment's boundaries; adjacent entries with equal values (per
// the coalescing predicate) merge back into one. The zero Map is not
// ready for use; construct with NewMap.
type Map[K Key, V any] struct {
	eq func(a, b V) bool // nil disables coalescing
	// leaves hold the entries in order: each leaf is non-empty, sorted
	// by lo, at most leafMax long, and the leaves' entries are pairwise
	// disjoint and ascending across the sequence. leaves[len:cap] holds
	// dropped leaves (emptied, storage kept) for the next split to reuse.
	leaves [][]entry[K, V]
	his    []K // his[l] is the hi of leaves[l]'s last entry
	n      int // total entries
	hint   pos // the last entry hit by a lookup (validated before use)

	// scratch, window and tail are splice staging buffers reused across
	// Update/Set/Delete calls.
	scratch []entry[K, V]
	window  []entry[K, V]
	tail    []entry[K, V]

	// Splits and Coalesces count boundary cuts and equal-value merges
	// performed so far — the interval-churn stats surfaced by the graph
	// builder and the CLIs.
	Splits    uint64
	Coalesces uint64
}

// NewMap returns an empty map. eq, when non-nil, is the value-equality
// predicate used to coalesce adjacent ranges; pass nil for values that
// must never merge (e.g. distinct page pointers).
func NewMap[K Key, V any](eq func(a, b V) bool) *Map[K, V] {
	return &Map[K, V]{eq: eq}
}

// Len returns the number of distinct ranges stored.
func (m *Map[K, V]) Len() int { return m.n }

// Clear removes every entry, retaining every leaf's storage.
func (m *Map[K, V]) Clear() {
	for l, lf := range m.leaves {
		clear(lf)
		m.leaves[l] = lf[:0]
	}
	m.leaves = m.leaves[:0]
	m.his = m.his[:0]
	m.n = 0
	m.hint = pos{}
}

// at returns the entry at a valid (non-end) position.
func (m *Map[K, V]) at(p pos) *entry[K, V] { return &m.leaves[p.l][p.i] }

// next returns the position after p.
func (m *Map[K, V]) next(p pos) pos {
	if p.i+1 < len(m.leaves[p.l]) {
		return pos{p.l, p.i + 1}
	}
	return pos{p.l + 1, 0}
}

// prev returns the position before p, if any.
func (m *Map[K, V]) prev(p pos) (pos, bool) {
	if p.i > 0 {
		return pos{p.l, p.i - 1}, true
	}
	if p.l > 0 {
		return pos{p.l - 1, len(m.leaves[p.l-1]) - 1}, true
	}
	return pos{}, false
}

// search returns the position of the first entry with hi > k (the only
// entry that can contain k, and the first candidate overlapping any
// range starting at k). It binary-searches the leaf bounds, then the
// one leaf they select, with a last-hit fast path in front.
func (m *Map[K, V]) search(k K) pos {
	if h := m.hint; h.l < len(m.leaves) && h.i < len(m.leaves[h.l]) {
		e := m.at(h)
		if e.lo <= k && k < e.hi {
			return h
		}
		// Common sequential pattern: the next entry.
		if k >= e.hi {
			if n := m.next(h); n.l < len(m.leaves) {
				if ne := m.at(n); ne.lo <= k && k < ne.hi {
					m.hint = n
					return n
				}
			}
		}
	}
	l, r := 0, len(m.his)
	for l < r {
		mid := int(uint(l+r) >> 1)
		if m.his[mid] <= k {
			l = mid + 1
		} else {
			r = mid
		}
	}
	if l == len(m.leaves) {
		return pos{l, 0}
	}
	// The leaf's last entry has hi > k, so the answer lies within it.
	lf := m.leaves[l]
	i, j := 0, len(lf)-1
	for i < j {
		mid := int(uint(i+j) >> 1)
		if lf[mid].hi <= k {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return pos{l, i}
}

// Get returns the value covering k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if p := m.search(k); p.l < len(m.leaves) {
		if e := m.at(p); e.lo <= k {
			m.hint = p
			return e.v, true
		}
	}
	var zero V
	return zero, false
}

// Find returns the full stored range covering k and its value.
func (m *Map[K, V]) Find(k K) (Range[K], V, bool) {
	if p := m.search(k); p.l < len(m.leaves) {
		if e := m.at(p); e.lo <= k {
			m.hint = p
			return Range[K]{e.lo, e.hi}, e.v, true
		}
	}
	var zero V
	return Range[K]{}, zero, false
}

// Overlaps reports whether any stored range intersects [lo, hi).
func (m *Map[K, V]) Overlaps(lo, hi K) bool {
	if hi <= lo {
		return false
	}
	p := m.search(lo)
	return p.l < len(m.leaves) && m.at(p).lo < hi
}

// Each visits the stored entries intersecting [lo, hi) in ascending
// order, clipped to the query range. fn returning false stops the
// walk. The map must not be mutated during the walk.
func (m *Map[K, V]) Each(lo, hi K, fn func(r Range[K], v V) bool) {
	if hi <= lo {
		return
	}
	p := m.search(lo)
	if p.l < len(m.leaves) {
		// A walk is often followed by a write of the same range (the
		// graph builder reads a persist's footprint, then stamps it).
		m.hint = p
	}
	for l, i := p.l, p.i; l < len(m.leaves); l, i = l+1, 0 {
		lf := m.leaves[l]
		for ; i < len(lf); i++ {
			e := &lf[i]
			if e.lo >= hi || !fn(Range[K]{max(e.lo, lo), min(e.hi, hi)}, e.v) {
				return
			}
		}
	}
}

// EachAll visits every stored entry in ascending order.
func (m *Map[K, V]) EachAll(fn func(r Range[K], v V) bool) {
	for _, lf := range m.leaves {
		for i := range lf {
			if !fn(Range[K]{lf[i].lo, lf[i].hi}, lf[i].v) {
				return
			}
		}
	}
}

// Set assigns v uniformly over [lo, hi), splitting partially
// overlapped entries at the boundaries and replacing everything
// between them.
func (m *Map[K, V]) Set(lo, hi K, v V) {
	if hi <= lo {
		return
	}
	first := m.search(lo)
	// Fast path: overwriting an entry with exactly matching boundaries
	// (the steady state of a frontier stamping the same block over and
	// over) needs no splice — unless the new value would coalesce with
	// a neighbor.
	if first.l < len(m.leaves) {
		if e := m.at(first); e.lo == lo && e.hi == hi && !m.coalescesWithNeighbor(first, v) {
			e.v = v
			m.hint = first
			return
		}
	}
	m.scratch = append(m.scratch[:0], entry[K, V]{lo, hi, v})
	m.splice(first, m.after(first, hi), lo, hi)
}

// coalescesWithNeighbor reports whether v, stored at p, would merge
// with the entry on either side of p.
func (m *Map[K, V]) coalescesWithNeighbor(p pos, v V) bool {
	if m.eq == nil {
		return false
	}
	e := m.at(p)
	if q, ok := m.prev(p); ok {
		if pe := m.at(q); pe.hi == e.lo && m.eq(pe.v, v) {
			return true
		}
	}
	if q := m.next(p); q.l < len(m.leaves) {
		if ne := m.at(q); ne.lo == e.hi && m.eq(ne.v, v) {
			return true
		}
	}
	return false
}

// after returns the position of the first entry at or after p that
// starts at or beyond hi.
func (m *Map[K, V]) after(p pos, hi K) pos {
	for p.l < len(m.leaves) && m.at(p).lo < hi {
		p = m.next(p)
	}
	return p
}

// Update transforms [lo, hi) tile by tile: existing entries are cut at
// the query boundaries, and fn is applied to each resulting tile —
// including the gaps between entries, which arrive with ok=false and a
// zero value. fn returns the tile's new value and whether to keep it;
// returning keep=false leaves (or turns) the tile into a gap, so
// "empty" states need never be materialized. Tiles are visited in
// ascending order and the results re-coalesced.
func (m *Map[K, V]) Update(lo, hi K, fn func(r Range[K], v V, ok bool) (V, bool)) {
	if hi <= lo {
		return
	}
	m.scratch = m.scratch[:0]
	var zero V
	cur := lo
	first := m.search(lo)
	last := first
	for ; last.l < len(m.leaves); last = m.next(last) {
		e := m.at(last)
		if e.lo >= hi {
			break
		}
		if cur < e.lo {
			// Gap before this entry; it ends below hi because e.lo < hi.
			if v, keep := fn(Range[K]{cur, e.lo}, zero, false); keep {
				m.pushScratch(cur, e.lo, v)
			}
			cur = e.lo
		}
		tileHi := min(e.hi, hi)
		if v, keep := fn(Range[K]{cur, tileHi}, e.v, true); keep {
			m.pushScratch(cur, tileHi, v)
		}
		cur = tileHi
		if cur >= hi {
			last = m.next(last)
			break
		}
	}
	if cur < hi {
		if v, keep := fn(Range[K]{cur, hi}, zero, false); keep {
			m.pushScratch(cur, hi, v)
		}
	}
	m.splice(first, last, lo, hi)
}

// Delete removes [lo, hi) from the map, splitting boundary entries.
func (m *Map[K, V]) Delete(lo, hi K) {
	if hi <= lo {
		return
	}
	m.scratch = m.scratch[:0]
	first := m.search(lo)
	m.splice(first, m.after(first, hi), lo, hi)
}

// pushScratch appends a tile to the staging buffer, merging with the
// previous tile when adjacent and equal.
func (m *Map[K, V]) pushScratch(lo, hi K, v V) {
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

// splice replaces the window [first, last) — the entries overlapping
// [lo, hi) — with the staged scratch tiles, preserving the parts of
// boundary entries outside [lo, hi) and coalescing across the window
// edges.
func (m *Map[K, V]) splice(first, last pos, lo, hi K) {
	// Preserve the outside parts of the boundary entries.
	var head, tail entry[K, V]
	haveHead, haveTail := false, false
	if first != last {
		if f := m.at(first); f.lo < lo {
			head = entry[K, V]{f.lo, lo, f.v}
			haveHead = true
			m.Splits++
		}
		lp, _ := m.prev(last)
		if l := m.at(lp); l.hi > hi {
			tail = entry[K, V]{hi, l.hi, l.v}
			haveTail = true
			m.Splits++
		}
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

	// Assemble the replacement window: head, staged tiles, tail.
	window := m.window[:0]
	if haveHead {
		window = append(window, head)
	}
	window = append(window, m.scratch...)
	if haveTail {
		window = append(window, tail)
	}
	m.window = window[:0]

	// Edge coalescing with the untouched neighbors of [first, last),
	// which may sit in the adjacent leaves.
	if m.eq != nil && len(window) > 0 {
		if p, ok := m.prev(first); ok {
			if pe := m.at(p); pe.hi == window[0].lo && m.eq(pe.v, window[0].v) {
				window[0].lo = pe.lo
				first = p
				m.Coalesces++
			}
		}
		if last.l < len(m.leaves) {
			ne, w := m.at(last), &window[len(window)-1]
			if w.hi == ne.lo && m.eq(w.v, ne.v) {
				w.hi = ne.hi
				last = m.next(last)
				m.Coalesces++
			}
		}
	}

	m.replace(first, last, window)
	clear(window)
}

// replace substitutes the entries [first, last) with window. Inside
// one leaf with room to spare it shifts that leaf's tail in place;
// otherwise it redistributes the touched leaves' surviving entries
// plus the window evenly over as few leaves as hold them, splitting or
// dropping leaves as the count requires.
func (m *Map[K, V]) replace(first, last pos, window []entry[K, V]) {
	// Address the window as leaves fl..ll, entries [fi, li), where li
	// may equal len(leaves[ll]).
	fl, fi, ll, li := first.l, first.i, last.l, last.i
	if li == 0 && ll > fl {
		ll--
		li = len(m.leaves[ll])
	}
	if fl == len(m.leaves) {
		// Nothing is removed and the window goes after every entry:
		// append it to the last leaf, or to a first one.
		if len(window) == 0 {
			return
		}
		if fl == 0 {
			m.insertLeaves(0, 1)
		} else {
			fl--
		}
		fi = len(m.leaves[fl])
		ll, li = fl, fi
	}

	if fl == ll {
		lf := m.leaves[fl]
		oldN := len(lf)
		newN := oldN - (li - fi) + len(window)
		if newN <= leafMax {
			if newN == 0 {
				m.dropLeaves(fl, fl+1)
				m.n -= oldN
				m.hint = pos{fl, 0}
				return
			}
			if newN > cap(lf) {
				lf = growLeaf(lf, newN)
			}
			lf = lf[:max(oldN, newN)]
			copy(lf[fi+len(window):], lf[li:oldN])
			copy(lf[fi:], window)
			clear(lf[newN:])
			lf = lf[:newN]
			m.leaves[fl] = lf
			m.his[fl] = lf[newN-1].hi
			m.n += newN - oldN
			m.hint = pos{fl, fi}
			return
		}
	}

	// General path: the surviving prefix of leaf fl stays in place, the
	// surviving suffix of leaf ll is staged in m.tail, and the leaves
	// between are rewritten from prefix + window + suffix.
	suffix := append(m.tail[:0], m.leaves[ll][li:]...)
	prefix := m.leaves[fl][:fi]
	old := 0
	for _, lf := range m.leaves[fl : ll+1] {
		old += len(lf)
	}
	total := fi + len(window) + len(suffix)
	k := (total + leafMax - 1) / leafMax
	oldLen0 := len(m.leaves[fl])
	if oldK := ll - fl + 1; k > oldK {
		m.insertLeaves(ll+1, k-oldK)
	} else if k < oldK {
		m.dropLeaves(fl+k, ll+1)
	}
	segs := [3][]entry[K, V]{prefix, window, suffix}
	m.hint = pos{fl + k, 0}
	size0 := 0
	for j, start := 0, 0; j < k; j++ {
		size := total / k
		if j < total%k {
			size++
		}
		lf := m.leaves[fl+j]
		if size > cap(lf) {
			lf = growLeaf(lf, leafMax)
		}
		oldN := len(lf)
		lf = lf[:size]
		if j == 0 {
			// Leaf fl already holds prefix[:size]; its storage past
			// size may still be read as prefix by the next leaf, so it
			// is cleared after the loop.
			size0 = size
			copyStream(lf[min(fi, size):], min(fi, size), segs)
		} else {
			copyStream(lf, start, segs)
			if size < oldN {
				clear(lf[size:oldN])
			}
		}
		m.leaves[fl+j] = lf
		m.his[fl+j] = lf[size-1].hi
		if start <= fi && fi < start+size {
			m.hint = pos{fl + j, fi - start}
		}
		start += size
	}
	if k > 0 && size0 < oldLen0 {
		clear(m.leaves[fl][size0:oldLen0])
	}
	clear(suffix)
	m.tail = suffix[:0]
	m.n += total - old
}

// copyStream fills dst with the concatenation of segs, starting at
// offset start into it.
func copyStream[K Key, V any](dst []entry[K, V], start int, segs [3][]entry[K, V]) {
	for _, s := range segs {
		if len(dst) == 0 {
			return
		}
		if start >= len(s) {
			start -= len(s)
			continue
		}
		n := copy(dst, s[start:])
		dst, start = dst[n:], 0
	}
}

// growLeaf returns leaf storage holding lf's entries with room for at
// least n, capped at leafMax: the first leaf grows like a slice, so a
// map that stays small never pays for a full leaf.
func growLeaf[K Key, V any](lf []entry[K, V], n int) []entry[K, V] {
	c := min(max(n, 2*cap(lf), 4), leafMax)
	out := make([]entry[K, V], len(lf), c)
	copy(out, lf)
	return out
}

// insertLeaves opens c empty leaves at index at, taking dropped leaves'
// storage from past the end of m.leaves when there is any.
func (m *Map[K, V]) insertLeaves(at, c int) {
	n := len(m.leaves)
	m.leaves = m.leaves[:cap(m.leaves)]
	for len(m.leaves) < n+c {
		m.leaves = append(m.leaves, nil)
	}
	m.leaves = m.leaves[:n+c]
	// Rotate the c spare slots from the end down to at.
	slices.Reverse(m.leaves[at:])
	slices.Reverse(m.leaves[at : at+c])
	slices.Reverse(m.leaves[at+c:])
	for range c {
		m.his = append(m.his, 0)
	}
	copy(m.his[at+c:], m.his[at:n])
}

// dropLeaves removes leaves [a, b), emptying them and keeping their
// storage past the end of m.leaves for reuse.
func (m *Map[K, V]) dropLeaves(a, b int) {
	n := len(m.leaves)
	for l := a; l < b; l++ {
		clear(m.leaves[l])
		m.leaves[l] = m.leaves[l][:0]
	}
	// Rotate the emptied leaves from [a, b) to the end.
	slices.Reverse(m.leaves[a:b])
	slices.Reverse(m.leaves[b:n])
	slices.Reverse(m.leaves[a:n])
	m.leaves = m.leaves[:n-(b-a)]
	m.his = append(m.his[:a], m.his[b:]...)
}
