package persistcheck

import (
	"math"
	"slices"

	"repro/internal/memory"
)

// addrIndex answers, for one address, which annotations can apply to
// an access there, so the passes test a few candidates per event
// instead of every annotation. Sorted bounds cut the address space
// into segments; each list maps a segment to the ascending indexes of
// the annotations whose span covers it. A hit is a candidate only: the
// pass then runs its exact predicate (the word test, Extent.Contains,
// overlaps, regionCovers), so every list may hold a superset of the
// annotations that apply. One index is built per check.
type addrIndex struct {
	bounds []memory.Addr
	// pubWords spans each publication word; pubData each data extent
	// that can make a persist pending (Data[0] alone for ValueCovers).
	pubWords, pubData segLists
	// regWords spans each region widened by WordSize-1 bytes below, so
	// a lookup at an access's first byte finds every region the access
	// overlaps; regScopes spans each region's Covers extents.
	regWords, regScopes segLists
	// unscoped lists the regions with empty Covers, whose contract
	// applies to every persist.
	unscoped []int32
}

// segLists holds one ascending index list per segment: segment k's is
// ids[off[k]:off[k+1]].
type segLists struct {
	off, ids []int32
}

// span is the address range [lo, hi) of annotation id.
type span struct {
	lo, hi memory.Addr
	id     int32
}

// top stands in for the end of a span that runs past the address
// space; no access starts there.
const top = memory.Addr(math.MaxUint64)

// appendExtent spans x for annotation id; an empty extent contains no
// access and spans nothing.
func appendExtent(spans []span, x Extent, id int) []span {
	if x.Size == 0 {
		return spans
	}
	hi := x.Addr + memory.Addr(x.Size)
	if hi < x.Addr {
		hi = top
	}
	return append(spans, span{x.Addr, hi, int32(id)})
}

func newAddrIndex(ann Annotations) *addrIndex {
	x := &addrIndex{}
	n := 0
	for _, pub := range ann.Pubs {
		n += 1 + len(pub.Data)
	}
	for _, reg := range ann.OrderAfter {
		n += 1 + len(reg.Covers)
	}
	// The four lists' spans share one array, each list in id order.
	spans := make([]span, 0, n)
	for i, pub := range ann.Pubs {
		// A word whose end wraps matches no address (see isWord).
		if end := pub.Word + wordBytes; end > pub.Word {
			spans = append(spans, span{pub.Word, end, int32(i)})
		}
	}
	nw := len(spans)
	for i, pub := range ann.Pubs {
		data := pub.Data
		if pub.ValueCovers {
			data = data[:min(len(data), 1)]
		}
		for _, d := range data {
			spans = appendExtent(spans, d, i)
		}
	}
	nd := len(spans)
	for i, reg := range ann.OrderAfter {
		lo, hi := reg.Addr-(memory.WordSize-1), reg.Addr+memory.Addr(reg.Size)
		if lo > reg.Addr {
			lo = 0
		}
		if hi < reg.Addr {
			// overlaps compares against the wrapped end; span everything.
			lo, hi = 0, top
		}
		if lo < hi {
			spans = append(spans, span{lo, hi, int32(i)})
		}
		if len(reg.Covers) == 0 {
			x.unscoped = append(x.unscoped, int32(i))
		}
	}
	nr := len(spans)
	for i, reg := range ann.OrderAfter {
		for _, c := range reg.Covers {
			spans = appendExtent(spans, c, i)
		}
	}
	x.bounds = make([]memory.Addr, 0, 2*len(spans))
	for _, s := range spans {
		x.bounds = append(x.bounds, s.lo, s.hi)
	}
	slices.Sort(x.bounds)
	x.bounds = slices.Compact(x.bounds)
	last := make([]int32, len(x.bounds))
	x.pubWords = x.fill(spans[:nw], last)
	x.pubData = x.fill(spans[nw:nd], last)
	x.regWords = x.fill(spans[nd:nr], last)
	x.regScopes = x.fill(spans[nr:], last)
	return x
}

// fill lists each span's id in every segment the span covers, once per
// segment: spans come in ascending id order, so a repeat is the
// segment's last entry. last is scratch, one slot per bound.
func (x *addrIndex) fill(spans []span, last []int32) segLists {
	if len(spans) == 0 {
		return segLists{}
	}
	n := len(x.bounds)
	s := segLists{off: make([]int32, n+1)}
	each := func(add func(k int, id int32)) {
		for k := range last {
			last[k] = -1
		}
		for _, sp := range spans {
			k0, _ := slices.BinarySearch(x.bounds, sp.lo)
			k1, _ := slices.BinarySearch(x.bounds, sp.hi)
			for k := k0; k < k1; k++ {
				if last[k] != sp.id {
					last[k] = sp.id
					add(k, sp.id)
				}
			}
		}
	}
	// Count into off[k+1], turn the counts into starts, fill with off[k]
	// as segment k's cursor (leaving it at k's end, k+1's start), and
	// shift the starts back.
	each(func(k int, _ int32) { s.off[k+1]++ })
	for k := range n {
		s.off[k+1] += s.off[k]
	}
	s.ids = make([]int32, s.off[n])
	each(func(k int, id int32) {
		s.ids[s.off[k]] = id
		s.off[k]++
	})
	copy(s.off[1:], s.off[:n])
	s.off[0] = 0
	return s
}

// seg returns the segment holding address a, -1 below the first bound.
func (x *addrIndex) seg(a memory.Addr) int {
	k, found := slices.BinarySearch(x.bounds, a)
	if !found {
		k--
	}
	return k
}

// at returns segment k's list.
func (s *segLists) at(k int) []int32 {
	if k < 0 || s.off == nil {
		return nil
	}
	return s.ids[s.off[k]:s.off[k+1]]
}
