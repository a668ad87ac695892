package graph

import (
	"slices"

	"repro/internal/memory"
)

// Per-block dependence frontiers.
//
// The builder's per-address state — which nodes last wrote/read each
// tracking-granularity block, and which persist last targeted it — is
// kept in two paged block tables, one per address space, laid out like
// core.Sim's: a block's slot is found through a memory.Pages, so an
// access updates its one or two slots in place and untouched address
// space (the overwhelming majority of a gigabyte-scale heap) is never
// materialized.
//
// Frontier node sets are stored as nodeVec — sorted, immutable,
// copy-on-write slices. Sharing is safe because no operation mutates a
// published vec in place; singletons (the dominant case: a block just
// persisted) are carved from a chunked slab so the per-persist
// frontier reset allocates nothing in steady state. Thread frontiers
// are nodeVecs too, but each is owned by its thread and updated in
// place (unionInto); only copies of them are ever published.

// nodeVec is a sorted set of node ids. The empty vec is nil. Vecs are
// immutable once stored in a frontier: operations return new (or
// shared) slices, never append in place.
type nodeVec []NodeID

// blockState is the per-block dependence frontier: the nodes whose
// persists/reads future persists of this block must order after.
type blockState struct {
	writer nodeVec
	reader nodeVec
	lastP  NodeID // last persist targeting the block; -1 when none
}

// Block tables page their slots 32 to a page, not core.Sim's 256: a
// blockState is 56 bytes and KV traces touch blocks sparsely, so
// 256-slot pages raised a KV graph build's allocation by about a fifth.
const (
	pageBits = 5
	pageMask = 1<<pageBits - 1
)

// blockTable holds the frontiers of one address space, indexed by
// block-id offset from the space's base block.
type blockTable struct {
	base  memory.BlockID
	pages memory.Pages[[1 << pageBits]blockState]
}

// get returns block b's frontier, allocating its page (with every
// slot's lastP unset) on first touch.
func (tb *blockTable) get(b memory.BlockID) *blockState {
	i := uint64(b - tb.base)
	pg := tb.pages.Get(i >> pageBits)
	if pg == nil {
		pg = tb.pages.Add(i >> pageBits)
		for j := range pg {
			pg[j].lastP = -1
		}
	}
	return &pg[i&pageMask]
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

// unionInto returns dst ∪ src, reusing storage: dst must be a
// thread-owned frontier, never a published vec. The union is merged
// into the builder's scratch buffer, which then trades places with dst,
// so neither buffer is ever referenced from two places.
func (b *builder) unionInto(dst, src nodeVec) nodeVec {
	if missing(dst, src) == 0 {
		return dst
	}
	out := mergeInto(b.tmp[:0], dst, src)
	b.tmp = dst
	return out
}

// vecAddSet is vecUnion for a thread-owned s: it never returns s
// itself, which its thread goes on updating in place.
func vecAddSet(v, s nodeVec) nodeVec {
	if len(v) == 0 && len(s) > 0 {
		return slices.Clone(s)
	}
	return vecUnion(v, s)
}

// vecUnion returns a ∪ b, sharing an input when it already contains
// the other.
func vecUnion(a, b nodeVec) nodeVec {
	if len(a) == 0 {
		return b
	}
	m := missing(a, b)
	if m == 0 {
		return a
	}
	return mergeInto(make(nodeVec, 0, len(a)+m), a, b)
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
