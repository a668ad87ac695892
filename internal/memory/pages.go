package memory

import "unsafe"

// Pages is a sparse page table: it maps a page number to a
// demand-allocated page of type P, normally an array of per-address
// slots. It is the one per-address store behind the execution engine's
// simulated memory, the ordering kernel's tracking-block table (the
// timing simulator's and the graph builder's) and the simulator's
// atomic-block table.
//
// A page number selects its page through a radix tree: the low
// 3·nodeBits bits walk three levels of nodeLen-entry nodes, and the
// rest index a top slice grown on demand. Pages and nodes never move
// once allocated, so a page pointer stays valid for the table's
// lifetime, and storage follows the pages a caller touches rather than
// the span they lie in: a store at each end of the 1 TiB persistent
// space costs two pages, a few nodes and a top slice of one pointer per
// 2^18 pages. The zero Pages is an empty table.
//
// Pages are handed out of slabs: each slab holds as many pages as the
// table already has, up to slabBytes, so a table of n pages costs
// O(log n + n·size/slabBytes) allocations instead of n, and at most
// one slab's worth of pages, never more than the pages in use, sits
// allocated but unused.
type Pages[P any] struct {
	top  []*node[*node[*node[*P]]]
	slab []P // pages of the current slab not yet handed out
	n    int // pages handed out
}

// slabBytes caps a slab: large enough that a fresh table of thousands
// of small pages costs tens of allocations, small enough that the
// unused rest of the last slab is noise beside the pages in use.
const slabBytes = 16 << 10

const (
	nodeBits = 6
	nodeLen  = 1 << nodeBits
	nodeMask = nodeLen - 1
	topShift = 3 * nodeBits
)

type node[T any] [nodeLen]T

// Get returns page n, or nil when it has not been added.
func (t *Pages[P]) Get(n uint64) *P {
	i := n >> topShift
	if i >= uint64(len(t.top)) {
		return nil
	}
	a := t.top[i]
	if a == nil {
		return nil
	}
	b := a[n>>(2*nodeBits)&nodeMask]
	if b == nil {
		return nil
	}
	c := b[n>>nodeBits&nodeMask]
	if c == nil {
		return nil
	}
	return c[n&nodeMask]
}

// Add allocates page n, zeroed, and returns it; the page must not
// exist yet. It is kept out of line so the lookups that call it on a
// miss stay small.
//
//go:noinline
func (t *Pages[P]) Add(n uint64) *P {
	i := n >> topShift
	if i >= uint64(len(t.top)) {
		// One make and a copy: append of a made slice allocates the
		// grown top twice under the race detector.
		top := make([]*node[*node[*node[*P]]], i+1)
		copy(top, t.top)
		t.top = top
	}
	a := t.top[i]
	if a == nil {
		a = new(node[*node[*node[*P]]])
		t.top[i] = a
	}
	b := &a[n>>(2*nodeBits)&nodeMask]
	if *b == nil {
		*b = new(node[*node[*P]])
	}
	c := &(*b)[n>>nodeBits&nodeMask]
	if *c == nil {
		*c = new(node[*P])
	}
	if len(t.slab) == 0 {
		k := max(1, min(t.n, slabBytes/max(1, int(unsafe.Sizeof(*new(P))))))
		t.slab = make([]P, k)
	}
	pg := &t.slab[0]
	t.slab = t.slab[1:]
	t.n++
	(*c)[n&nodeMask] = pg
	return pg
}

// Each calls fn for every page in ascending page-number order.
func (t *Pages[P]) Each(fn func(n uint64, pg *P)) {
	for i, a := range t.top {
		if a == nil {
			continue
		}
		for j, b := range a {
			if b == nil {
				continue
			}
			for k, c := range b {
				if c == nil {
					continue
				}
				base := (uint64(i)<<nodeBits|uint64(j))<<nodeBits | uint64(k)
				for l, pg := range c {
					if pg != nil {
						fn(base<<nodeBits|uint64(l), pg)
					}
				}
			}
		}
	}
}
