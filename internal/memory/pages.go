package memory

// Pages is a sparse page table: it maps a page number to a
// demand-allocated page of type P, normally an array of per-address
// slots. It is the one per-address store behind the execution engine's
// simulated memory, the timing simulator's tracking-block and
// atomic-block tables, and the graph builder's dependence frontiers.
//
// A page number selects its page through a radix tree: the low
// 3·nodeBits bits walk three levels of nodeLen-entry nodes, and the
// rest index a top slice grown on demand. Pages and nodes never move
// once allocated, so a page pointer stays valid for the table's
// lifetime, and storage follows the pages a caller touches rather than
// the span they lie in: a store at each end of the 1 TiB persistent
// space costs two pages, a few nodes and a top slice of one pointer per
// 2^18 pages. The zero Pages is an empty table.
type Pages[P any] struct {
	top []*node[*node[*node[*P]]]
}

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
		t.top = append(t.top, make([]*node[*node[*node[*P]]], i+1-uint64(len(t.top)))...)
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
	pg := new(P)
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
