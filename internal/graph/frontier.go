package graph

import (
	"math/bits"
	"slices"
)

// Dependence frontiers.
//
// The builder's per-address state — which nodes last wrote/read each
// tracking-granularity block, and which persist last targeted it — is
// core.Kernel's block table, the one core.Sim uses, holding one lane
// of vsets (a build runs one model): an access updates its one or two
// blocks in place and untouched address space (the overwhelming
// majority of a gigabyte-scale heap) is never materialized.
//
// A frontier set is a nodeVec in one of two forms. A sparse set is its
// sorted ids. A dense set is a bitset over a window of 32-id words,
// behind a two-element header; its first element is negative, which no
// node id is, so one sign test tells the forms apart. Both forms hold
// 32-bit elements in the same slice type, so a vset stays 32 bytes and
// a block's value 64, whichever form its sets take.
//
// The form follows from the size: a set is dense when its bitset (two
// header elements plus one word per 32 ids of its window) takes no more
// elements than its sorted ids would, that is at a density of about
// one id in 32 or more. The constant is not a tuning knob: an id and a
// word are both four bytes, so below it the dense form costs memory
// and above it the sparse one does. Every union picks its result's
// form by this rule, and a scrub that leaves a dense set below it
// converts the set to sparse. Dense sets unite, subtract and count a
// word (32 ids) per step, and a thread absorbs into its dense frontier
// in place; singletons, strict frontiers and thin sets keep the sorted
// merge walks. Edge emission walks either form in ascending id order.
//
// Published vecs (a block's writer and reader) are immutable and
// copy-on-write, so sharing them is safe; singletons (the dominant
// case: a block just persisted) are carved from a chunked slab so the
// per-persist frontier reset allocates nothing in steady state. Thread
// frontiers are owned by their thread and updated in place (absorb);
// only copies of them are ever published. EpochMax is built by appends
// of ascending persist ids and stays sparse.
//
// Every frontier set carries a version (vset). The builder draws a
// fresh version whenever a set's ids change — a merge, an epoch bind, a
// persist's reset, a scrub that removed something — and a copy keeps
// the version of what it copied, so one version always names one set
// of ids, whatever its form. Most unions on real traces add nothing: a
// thread re-reads a block whose writer it already depends on, or
// publishes an active frontier the block's readers already hold. The
// builder records each proven "version s ⊆ version d" in a
// subset-fact cache (subsetFacts), and every thread absorb, block
// publish and barrier redundancy test consults it before walking the
// two sets.

// nodeVec is a set of node ids, sparse or dense (see above). The empty
// set has length 0 in either form's storage. Sparse: the ids in
// ascending order. Dense: v[0] is ^lo, v[1] the id count, and v[2+k]
// the bits of ids 32(lo+k) to 32(lo+k)+31; the first and last words are
// non-zero. Vecs are immutable once stored in a block: operations
// return new (or shared) slices, never write in place.
type nodeVec []NodeID

// Dense layout constants: header length and the ids per word.
const (
	denseHdr  = 2
	wordShift = 5
	wordMask  = 1<<wordShift - 1
)

// dense reports whether v is in the dense form.
func (v nodeVec) dense() bool { return len(v) > 0 && v[0] < 0 }

// size returns the number of ids in v.
func (v nodeVec) size() int {
	if v.dense() {
		return int(v[1])
	}
	return len(v)
}

// lo returns a dense vec's first word index.
func (v nodeVec) lo() int { return int(^v[0]) }

// words returns a dense vec's bit words.
func (v nodeVec) words() []NodeID { return v[denseHdr:] }

// span returns the word indices of a non-empty v's smallest and largest
// ids.
func (v nodeVec) span() (lo, hi int) {
	if v.dense() {
		return v.lo(), v.lo() + len(v) - denseHdr - 1
	}
	return int(v[0] >> wordShift), int(v[len(v)-1] >> wordShift)
}

// denseFits reports whether n ids whose words span lo..hi take the
// dense form: its header and words are no more elements than n ids.
func denseFits(n, lo, hi int) bool { return denseHdr+hi-lo+1 <= n }

// bit returns id's bit within its word.
func bit(id NodeID) NodeID { return NodeID(uint32(1) << (id & wordMask)) }

// has reports whether id is in the dense vec v.
func (v nodeVec) has(id NodeID) bool {
	k := int(id>>wordShift) - v.lo()
	return uint(k) < uint(len(v)-denseHdr) && v[denseHdr+k]&bit(id) != 0
}

// covers reports whether the dense vec d's window spans every id of the
// non-empty s.
func covers(d, s nodeVec) bool {
	lo, hi := s.span()
	return lo >= d.lo() && hi < d.lo()+len(d)-denseHdr
}

// vset is a frontier set with its version. The empty set has version 0
// and every non-empty set a version the builder drew for its ids, so
// two vsets with one version hold the same ids.
type vset struct {
	ids nodeVec
	ver uint64
}

// subsetFacts is the builder's cache of proven facts "version sub ⊆
// version sup". It is direct-mapped: a fact lands in the one slot its
// pair hashes to and evicts whatever was there, so the table never
// grows within a build and a lookup is one probe. Versions are never
// reused, within a build or across the builds of a pooled builder, so
// a recorded fact stays true; an evicted one only costs a later walk.
// The table is allocated by the first fact, so a build that never
// unions (a write-only trace under strict persistency) pays nothing
// for it, and a later build reuses it when it is large enough.
type subsetFacts struct {
	slots []subsetFact
	shift uint
	bits  int // log2 of the table size, fixed for a build by reset
}

type subsetFact struct{ sub, sup uint64 }

// Fact tables hold one slot per four trace events, as a power of two
// between these bounds: a small trace's table costs little, and a
// large one's stays within a few hundred KiB.
const (
	minFactBits = 6
	maxFactBits = 14
)

// reset sizes the table for a build of events events. A kept table that
// is large enough serves the build from its first 1<<bits slots; its
// stale facts name versions no new set carries.
func (f *subsetFacts) reset(events int) {
	f.bits = min(max(bits.Len(uint(events/4)), minFactBits), maxFactBits)
	if len(f.slots) < 1<<f.bits {
		f.slots = nil
		return
	}
	f.slots, f.shift = f.slots[:1<<f.bits], uint(64-f.bits)
}

func (f *subsetFacts) slot(sub, sup uint64) *subsetFact {
	h := (sub*0x9e3779b97f4a7c15 ^ sup) * 0xbf58476d1ce4e5b9
	return &f.slots[h>>f.shift]
}

func (f *subsetFacts) has(sub, sup uint64) bool {
	return f.slots != nil && *f.slot(sub, sup) == subsetFact{sub, sup}
}

func (f *subsetFacts) add(sub, sup uint64) {
	if f.slots == nil {
		f.slots, f.shift = make([]subsetFact, 1<<f.bits), uint(64-f.bits)
	}
	*f.slot(sub, sup) = subsetFact{sub, sup}
}

// fresh draws a version for a set whose ids just changed: 0 when the
// set is now empty, otherwise a number no set has carried before. It
// records lab as the version's cover label (labels.go).
func (b *builder) fresh(ids nodeVec, lab int32) vset {
	if len(ids) == 0 {
		return vset{ids: ids}
	}
	b.ver++
	b.lab.ofVer = append(b.lab.ofVer, lab)
	return vset{ids: ids, ver: b.ver}
}

// single returns a slab-backed immutable singleton vec. The full-slice
// expression caps the result so a stray append could never clobber the
// slab. Every persist takes one singleton, so reset sizes the slab for
// the trace's persists (up to idChunk) and hands a kept chunk out again
// from its start: the singletons of an earlier build sit only in stale
// block-table slots, which are never read.
func (b *builder) single(id NodeID) nodeVec {
	if len(b.idSlab) == cap(b.idSlab) {
		b.idSlab = make([]NodeID, 0, idChunk)
	}
	b.idSlab = append(b.idSlab, id)
	n := len(b.idSlab)
	return nodeVec(b.idSlab[n-1 : n : n])
}

// idChunk is the largest singleton chunk, in ids.
const idChunk = 1 << 16

// edgeTail returns the empty slice past the edge slab's end, where a
// persist gathers and filters its candidate edges in place. A tail
// with fewer than edgeSpare slots left starts a new chunk, so a persist
// rarely outgrows it.
func (b *builder) edgeTail() []Edge {
	if cap(b.edgeSlab)-len(b.edgeSlab) < edgeSpare {
		b.edgeSlab = make([]Edge, 0, edgeChunk)
	}
	return b.edgeSlab[len(b.edgeSlab):]
}

// keepEdges makes a persist's kept edges, gathered by edgeTail, part
// of the edge slab and returns them capped at their count, so a later
// AddEdge on the node copies out of the slab instead of overwriting its
// neighbour's edges. Edges that outgrew the chunk were moved to a new
// array by append; the slab continues in that array.
func (b *builder) keepEdges(buf []Edge) []Edge {
	if len(buf) == 0 {
		return nil
	}
	if n := len(b.edgeSlab); &b.edgeSlab[:n+1][n] == &buf[0] {
		b.edgeSlab = b.edgeSlab[:n+len(buf)]
	} else {
		b.edgeSlab = buf
	}
	n := len(b.edgeSlab)
	return b.edgeSlab[n-len(buf) : n : n]
}

// edgeChunk is the edge slab's usual chunk size, and edgeSpare the
// fewest free slots a persist starts gathering in.
const (
	edgeChunk = 4096
	edgeSpare = 64
)

// Every set operation below is linear in the sizes of its inputs: a
// merge walk over two sparse sets, a probe per id between a sparse and
// a dense one, and one step per 32-id word between two dense ones. KV
// traces keep thread frontiers hundreds of nodes wide, where
// per-element scans of one set against the other were quadratic.

// missing counts the ids of s absent from v.
func missing(v, s nodeVec) int {
	n := 0
	switch {
	case !v.dense() && !s.dense():
		i := 0
		for _, id := range s {
			for i < len(v) && v[i] < id {
				i++
			}
			if i == len(v) || v[i] != id {
				n++
			}
		}
	case !s.dense():
		for _, id := range s {
			if !v.has(id) {
				n++
			}
		}
	case !v.dense():
		n = s.size()
		for _, id := range v {
			if s.has(id) {
				n--
			}
		}
	default:
		vw, off := v.words(), s.lo()-v.lo()
		for k, w := range s.words() {
			if j := off + k; uint(j) < uint(len(vw)) {
				w &^= vw[j]
			}
			n += bits.OnesCount32(uint32(w))
		}
	}
	return n
}

// missingFrom counts the ids of src absent from dst. Equal versions or
// a recorded fact answer 0 without a walk, and a walk that finds
// nothing missing is recorded.
func (b *builder) missingFrom(dst, src vset) int {
	if src.ver == 0 || src.ver == dst.ver {
		return 0
	}
	if b.facts.has(src.ver, dst.ver) {
		return 0
	}
	m := missing(dst.ids, src.ids)
	if m == 0 {
		b.facts.add(src.ver, dst.ver)
	}
	return m
}

// absorb sets *dst to *dst ∪ src, reusing storage: dst must be a
// thread-owned frontier, never a published vec. A dense dst whose
// window already spans src takes src's ids in place; otherwise the
// union is built in the builder's scratch buffer, which then trades
// places with dst's, so neither buffer is ever referenced from two
// places.
func (b *builder) absorb(dst *vset, src vset) {
	m := b.missingFrom(*dst, src)
	if m == 0 {
		return
	}
	lab := b.lab.lazy(b.labelOf(*dst), b.labelOf(src))
	if d := dst.ids; d.dense() && covers(d, src.ids) {
		orInto(d, src.ids)
		d[1] += NodeID(m)
		*dst = b.fresh(d, lab)
	} else {
		out := unionInto(b.tmp, dst.ids, src.ids, dst.ids.size()+m)
		b.tmp = dst.ids
		*dst = b.fresh(out, lab)
	}
	b.facts.add(src.ver, dst.ver)
}

// publish is union for a thread-owned s: it never returns s's storage,
// which its thread goes on updating in place. A copy of s keeps its
// version.
//
// Copies are immutable, so while s keeps its version the last copy made
// of it serves again: a thread that loads one block after another
// without a change to its active set publishes one copy, not one each.
func (b *builder) publish(v, s vset) vset {
	if v.ver != 0 {
		return b.union(v, s)
	}
	if s.ver == 0 || s.ver != b.lastPub.ver {
		b.lastPub = vset{ids: slices.Clone(s.ids), ver: s.ver}
	}
	return b.lastPub
}

// union returns a ∪ c for published sets, sharing an input when it
// already contains the other.
func (b *builder) union(a, c vset) vset {
	if a.ver == 0 {
		return c
	}
	m := b.missingFrom(a, c)
	if m == 0 {
		return a
	}
	out := b.fresh(unionInto(nil, a.ids, c.ids, a.ids.size()+m), b.lab.lazy(b.labelOf(a), b.labelOf(c)))
	b.facts.add(c.ver, out.ver)
	return out
}

// unionInto builds a ∪ c, which holds n > 0 ids, in out's storage
// (grown if need be) and in the form n picks. out must not share
// storage with a or c.
func unionInto(out, a, c nodeVec, n int) nodeVec {
	if len(a) == 0 {
		a, c = c, a
	}
	lo, hi := a.span()
	if len(c) > 0 {
		clo, chi := c.span()
		lo, hi = min(lo, clo), max(hi, chi)
	}
	if denseFits(n, lo, hi) {
		size := denseHdr + hi - lo + 1
		out = slices.Grow(out[:0], size)[:size]
		out[0], out[1] = ^NodeID(lo), NodeID(n)
		clear(out.words())
		orInto(out, a)
		orInto(out, c)
		return out
	}
	out = slices.Grow(out[:0], n)
	if a.dense() || c.dense() {
		// A dense set in a sparse union: the two windows lie far apart.
		return mergeAny(out, a, c)
	}
	return mergeInto(out, a, c)
}

// cursor walks a vec's ids in ascending order.
type cursor struct {
	v    nodeVec
	i    int    // next element (sparse) or next word (dense)
	bits uint32 // dense: the current word's ids not yet returned
	base NodeID // dense: the current word's first id
}

// next returns the next id, or false when none is left.
func (c *cursor) next() (NodeID, bool) {
	if !c.v.dense() {
		if c.i == len(c.v) {
			return 0, false
		}
		c.i++
		return c.v[c.i-1], true
	}
	for c.bits == 0 {
		if denseHdr+c.i == len(c.v) {
			return 0, false
		}
		c.bits, c.base = uint32(c.v[denseHdr+c.i]), NodeID((c.v.lo()+c.i)<<wordShift)
		c.i++
	}
	id := c.base + NodeID(bits.TrailingZeros32(c.bits))
	c.bits &= c.bits - 1
	return id, true
}

// mergeAny appends the sorted set a ∪ c to out, for operands of either
// form; out must not share storage with a or c.
func mergeAny(out, a, c nodeVec) nodeVec {
	ca, cc := cursor{v: a}, cursor{v: c}
	x, okx := ca.next()
	y, oky := cc.next()
	for okx || oky {
		switch {
		case !oky || okx && x < y:
			out = append(out, x)
			x, okx = ca.next()
		case !okx || y < x:
			out = append(out, y)
			y, oky = cc.next()
		default:
			out = append(out, x)
			x, okx = ca.next()
			y, oky = cc.next()
		}
	}
	return out
}

// orInto adds s's ids to the dense vec d, whose window must span them.
// It leaves d's count to the caller.
func orInto(d, s nodeVec) {
	if len(s) == 0 {
		return
	}
	dw := d.words()
	if !s.dense() {
		lo := NodeID(d.lo())
		for _, id := range s {
			dw[id>>wordShift-lo] |= bit(id)
		}
		return
	}
	sw := s.words()
	dw = dw[s.lo()-d.lo():][:len(sw)]
	for k, w := range sw {
		dw[k] |= w
	}
}

// mergeInto appends the sorted set a ∪ b to out, which must not share
// storage with a or b. Both inputs are sparse.
func mergeInto(out, a, b nodeVec) nodeVec {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// scrub removes the current persist's sources (sourced, with act) from
// the thread-owned dense vec v and returns the result: v itself,
// trimmed to its non-zero words, or, when the remaining ids no longer
// fill the dense form, a sparse copy built in the scratch buffer (which
// then takes v's storage).
func (b *builder) scrub(v, act nodeVec) nodeVec {
	n := v.size()
	base := NodeID(v.lo() << wordShift)
	w := v.words()
	for k := range w {
		for u := uint32(w[k]); u != 0; u &= u - 1 {
			if id := base + NodeID(bits.TrailingZeros32(u)); b.sourced(id, act) {
				w[k] &^= bit(id)
				n--
			}
		}
		base += 1 << wordShift
	}
	if n == v.size() {
		return v
	}
	v[1] = NodeID(n)
	first, last := 0, len(w)-1
	for first <= last && w[first] == 0 {
		first++
	}
	for last >= first && w[last] == 0 {
		last--
	}
	if n == 0 {
		return v[:0]
	}
	if !denseFits(n, first, last) {
		out := mergeAny(b.tmp[:0], v, nil)
		b.tmp = v
		return out
	}
	if first > 0 {
		copy(w, w[first:last+1])
		v[0] = ^NodeID(v.lo() + first)
	}
	return v[:denseHdr+last-first+1]
}
