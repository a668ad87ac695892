package graph

import (
	"math/bits"
	"slices"
)

// Dependence frontiers.
//
// The builder's per-address state — which nodes last wrote/read each
// tracking-granularity block, and which persist last targeted it — is
// core.Kernel's block table, the one core.Sim uses, holding vsets: an
// access updates its one or two slots in place and untouched address
// space (the overwhelming majority of a gigabyte-scale heap) is never
// materialized.
//
// Frontier node sets are stored as nodeVec — sorted slices of 32-bit
// node ids. Published vecs (a block's writer and reader) are immutable
// and copy-on-write, so sharing them is safe; singletons (the dominant
// case: a block just persisted) are carved from a chunked slab so the
// per-persist frontier reset allocates nothing in steady state. Thread
// frontiers are nodeVecs too, but each is owned by its thread and
// updated in place (absorb); only copies of them are ever published.
//
// Every frontier set carries a version (vset). The builder draws a
// fresh version whenever a set's ids change — a merge, an epoch bind, a
// persist's reset, a scrub that removed something — and a copy keeps
// the version of what it copied, so one version always names one set
// of ids. Most unions on real traces add nothing: a thread re-reads a
// block whose writer it already depends on, or publishes an active
// frontier the block's readers already hold. The builder records each
// proven "version s ⊆ version d" in a per-build subset-fact cache
// (subsetFacts), and every thread absorb, block publish and barrier
// redundancy test consults it before walking the two sets.

// nodeVec is a sorted set of node ids. The empty vec is nil. Vecs are
// immutable once stored in a frontier: operations return new (or
// shared) slices, never append in place.
type nodeVec []NodeID

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
// grows and a lookup is one probe. Versions are never reused within a
// build, so a recorded fact stays true; an evicted one only costs a
// later walk. The table is allocated by the first fact, so a build
// that never unions (a write-only trace under strict persistency)
// pays nothing for it.
type subsetFacts struct {
	slots []subsetFact
	shift uint
	bits  int // log2 of the table size, fixed at construction
}

type subsetFact struct{ sub, sup uint64 }

// Fact tables hold one slot per four trace events, as a power of two
// between these bounds: a small trace's table costs little, and a
// large one's stays within a few hundred KiB.
const (
	minFactBits = 6
	maxFactBits = 14
)

func newSubsetFacts(events int) subsetFacts {
	return subsetFacts{bits: min(max(bits.Len(uint(events/4)), minFactBits), maxFactBits)}
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
// set is now empty, otherwise a number no set has carried before.
func (b *builder) fresh(ids nodeVec) vset {
	if len(ids) == 0 {
		return vset{ids: ids}
	}
	b.ver++
	return vset{ids: ids, ver: b.ver}
}

// single returns a slab-backed immutable singleton vec. The full-slice
// expression caps the result so a stray append could never clobber the
// slab.
func (b *builder) single(id NodeID) nodeVec {
	if len(b.idSlab) == cap(b.idSlab) {
		b.idSlab = make([]NodeID, 0, 1024)
	}
	b.idSlab = append(b.idSlab, id)
	n := len(b.idSlab)
	return nodeVec(b.idSlab[n-1 : n : n])
}

// allocEdges carves an exact-size In slice from the chunked edge slab.
// Later AddEdge calls on the node fall back to ordinary append (the
// slice is at capacity), copying out of the slab safely.
func (b *builder) allocEdges(n int) []Edge {
	if n == 0 {
		return nil
	}
	if cap(b.edgeSlab)-len(b.edgeSlab) < n {
		c := 4096
		if n > c {
			c = n
		}
		b.edgeSlab = make([]Edge, 0, c)
	}
	s := b.edgeSlab[len(b.edgeSlab) : len(b.edgeSlab)+n : len(b.edgeSlab)+n]
	b.edgeSlab = b.edgeSlab[:len(b.edgeSlab)+n]
	return s
}

// Every set operation below walks sorted slices, so its cost is linear
// in the sizes of its inputs. KV traces keep thread frontiers around a
// hundred nodes wide, where per-element scans of one set against the
// other were quadratic.

// missing counts the ids of s absent from v (a merge walk).
func missing(v, s nodeVec) int {
	n, i := 0, 0
	for _, id := range s {
		for i < len(v) && v[i] < id {
			i++
		}
		if i == len(v) || v[i] != id {
			n++
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
// thread-owned frontier, never a published vec. The union is merged
// into the builder's scratch buffer, which then trades places with
// dst's, so neither buffer is ever referenced from two places.
func (b *builder) absorb(dst *vset, src vset) {
	if b.missingFrom(*dst, src) == 0 {
		return
	}
	out := mergeInto(b.tmp[:0], dst.ids, src.ids)
	b.tmp = dst.ids
	*dst = b.fresh(out)
	b.facts.add(src.ver, dst.ver)
}

// publish is union for a thread-owned s: it never returns s's storage,
// which its thread goes on updating in place. A copy of s keeps its
// version.
func (b *builder) publish(v, s vset) vset {
	if v.ver == 0 {
		return vset{ids: slices.Clone(s.ids), ver: s.ver}
	}
	return b.union(v, s)
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
	out := b.fresh(mergeInto(make(nodeVec, 0, len(a.ids)+m), a.ids, c.ids))
	b.facts.add(c.ver, out.ver)
	return out
}

// mergeInto appends the sorted set a ∪ b to out, which must not share
// storage with a or b.
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
