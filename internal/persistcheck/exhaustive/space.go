package exhaustive

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/sweep"
)

// bits is a fixed-width bitset over graph node IDs.
type bits []uint64

func (b bits) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bits) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// coversFrom reports whether every bit in [from, n) is set in b | or;
// a nil or stands for the empty set.
func (b bits) coversFrom(or bits, from, n int) bool {
	if from >= n {
		return true
	}
	word := func(w int) uint64 {
		if or == nil {
			return b[w]
		}
		return b[w] | or[w]
	}
	w := from >> 6
	head := ^uint64(0) << (uint(from) & 63)
	lastW := (n - 1) >> 6
	tail := ^uint64(0) >> (63 - (uint(n-1) & 63))
	if w == lastW {
		return word(w)&head&tail == head&tail
	}
	if word(w)&head != head {
		return false
	}
	for w++; w < lastW; w++ {
		if word(w) != ^uint64(0) {
			return false
		}
	}
	return word(lastW)&tail == tail
}

// subsetFrom reports whether b's bits in [from, n) are a subset of o's.
func (b bits) subsetFrom(o bits, from, n int) bool {
	if from >= n {
		return true
	}
	w := from >> 6
	head := ^uint64(0) << (uint(from) & 63)
	if b[w]&head&^o[w] != 0 {
		return false
	}
	for w++; w < len(b); w++ {
		if b[w]&^o[w] != 0 {
			return false
		}
	}
	return true
}

// wordVal is one written, nonzero NVRAM word, named by its slot (see
// wordTable). A state's image is a slice of these in ascending slot
// order, which is ascending address order; a zero-valued word is
// canonically absent (indistinguishable from never-written NVRAM).
type wordVal struct {
	slot int32
	val  uint64
}

// wordWrite is one persist's effect on one aligned word.
type wordWrite struct {
	addr       memory.Addr
	slot       int32 // see wordTable
	mask, bits uint64
}

// appendNodeWrites appends a persist event's per-word masked writes to
// dst, in ascending address order.
func appendNodeWrites(dst []wordWrite, g *graph.Graph, id int) []wordWrite {
	n := g.Nodes[id]
	if !n.Event.Kind.IsAccess() {
		return dst
	}
	addr, size, val := n.Event.Addr, int(n.Event.Size), n.Event.Val
	for size > 0 {
		w := memory.AlignDown(addr, memory.WordSize)
		off := int(addr - w)
		span := memory.WordSize - off
		if span > size {
			span = size
		}
		var mask uint64
		if span == 8 {
			mask = ^uint64(0)
		} else {
			mask = (1<<(8*uint(span)) - 1) << (8 * uint(off))
		}
		dst = append(dst, wordWrite{
			addr: w,
			mask: mask,
			bits: (val << (8 * uint(off))) & mask,
		})
		addr += memory.Addr(span)
		val >>= 8 * uint(span)
		size -= span
	}
	return dst
}

// wordTable numbers the words any persist of a graph writes: slot i
// is the i-th lowest such address. Every image is over these words
// alone, so a word without a slot reads 0 in every image.
type wordTable struct {
	addrs  []memory.Addr // slot → word address, ascending
	writes [][]wordWrite // per node, ascending slot
	all    []wordWrite   // the array writes are carved from
}

// build makes wt g's table, reusing its arrays. Every node's writes
// are carved from one array, sized by a first walk over the nodes'
// spans.
func (wt *wordTable) build(g *graph.Graph) {
	wt.writes = slices.Grow(wt.writes[:0], g.Len())[:g.Len()]
	total := 0
	for _, n := range g.Nodes {
		if e := n.Event; e.Kind.IsAccess() && e.Size > 0 {
			first := memory.AlignDown(e.Addr, memory.WordSize)
			last := memory.AlignDown(e.Addr+memory.Addr(e.Size)-1, memory.WordSize)
			total += int((last-first)/memory.WordSize) + 1
		}
	}
	all := slices.Grow(wt.all[:0], total)
	for i := range wt.writes {
		k := len(all)
		all = appendNodeWrites(all, g, i)
		wt.writes[i] = all[k:len(all):len(all)]
	}
	wt.all = all
	wt.addrs = wt.addrs[:0]
	for _, w := range all {
		wt.addrs = append(wt.addrs, w.addr)
	}
	slices.Sort(wt.addrs)
	wt.addrs = slices.Compact(wt.addrs)
	for _, ws := range wt.writes {
		for j := range ws {
			ws[j].slot = wt.slot(ws[j].addr)
		}
	}
}

// slot returns a's slot, or -1 when no persist writes a.
func (wt *wordTable) slot(a memory.Addr) int32 {
	i, ok := slices.BinarySearch(wt.addrs, a)
	if !ok {
		return -1
	}
	return int32(i)
}

// find returns the index of the first word of img at or above slot.
func find(img []wordVal, slot int32) int {
	lo, hi := 0, len(img)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if img[m].slot < slot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// applyInto appends img with ws applied (read-modify-write at word
// granularity) to dst and returns it. ws must be in ascending slot
// order, as wordTable stores them.
func applyInto(dst, img []wordVal, ws []wordWrite) []wordVal {
	i := 0
	for _, w := range ws {
		for i < len(img) && img[i].slot < w.slot {
			dst = append(dst, img[i])
			i++
		}
		var old uint64
		if i < len(img) && img[i].slot == w.slot {
			old = img[i].val
			i++
		}
		if nv := old&^w.mask | w.bits; nv != 0 {
			dst = append(dst, wordVal{slot: w.slot, val: nv})
		}
	}
	return append(dst, img[i:]...)
}

// collideHashes is a test hook: when set, every image hash and every
// cut-count suffix hash is 0, so each lookup falls through to the
// exact word-for-word comparison behind it.
var collideHashes bool

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// wordHash is one nonzero word's term in an image hash. An image
// hashes to the XOR of its words' terms, so a write updates the hash
// from the words it changes.
func wordHash(slot int32, val uint64) uint64 {
	if collideHashes {
		return 0
	}
	return mix64(mix64(uint64(slot)+0x9e3779b97f4a7c15) ^ val)
}

// applyHash returns the hash of img with ws applied, given img's hash
// h, and whether any write changed a word, without building the image.
func applyHash(img []wordVal, h uint64, ws []wordWrite) (uint64, bool) {
	changed := false
	i := 0
	for _, w := range ws {
		i += find(img[i:], w.slot)
		var old uint64
		if i < len(img) && img[i].slot == w.slot {
			old = img[i].val
		}
		nv := old&^w.mask | w.bits
		if nv == old {
			continue
		}
		changed = true
		if old != 0 {
			h ^= wordHash(w.slot, old)
		}
		if nv != 0 {
			h ^= wordHash(w.slot, nv)
		}
	}
	return h, changed
}

// slab carves fixed slices out of chunks that double in size up to
// slabMax elements, so survivors of a merge cost no allocation each. A
// slab keeps its chunks: reset hands them out again, in the order they
// were made, so a pooled slab serves a repeated check from the storage
// of the last one.
type slab[T any] struct {
	chunks [][]T // every chunk made, in hand-out order
	used   int   // chunks[:used] were handed out since the last reset
	free   []T
	size   int
}

const (
	slabMin = 256
	slabMax = 1 << 12
)

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.refill(n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// refill makes the next kept chunk that holds n elements the free one,
// or a new chunk when none is left.
func (s *slab[T]) refill(n int) {
	for s.used < len(s.chunks) {
		c := s.chunks[s.used]
		s.used++
		if len(c) >= n {
			s.free = c
			return
		}
	}
	s.size = min(max(2*s.size, slabMin), slabMax)
	s.free = make([]T, max(n, s.size))
	s.chunks = append(s.chunks, s.free)
	s.used = len(s.chunks)
}

// reset makes every chunk available again. With zero, the chunks handed
// out since the last reset are cleared first, so take returns zeroed
// elements and the chunks pin nothing they once pointed to; without it,
// taken slices hold stale values their taker must overwrite.
func (s *slab[T]) reset(zero bool) {
	if zero {
		for _, c := range s.chunks[:s.used] {
			clear(c)
		}
	}
	s.used, s.free = 0, nil
}

// state is one search state after deciding nodes [0, t): the partial
// image those decisions built and its hash, the future nodes an
// excluded ancestor disqualifies, and a representative decision
// vector. img, killed and dec are shared, never written once the
// state exists.
type state struct {
	img    []wordVal
	h      uint64
	killed bits
	dec    bits
	link   int32 // previous state with the same hash this level; -1 ends it
	dead   bool  // folded into a dominating state
}

// childKind says how a child derives from its parent at node t.
type childKind uint8

const (
	noChild      childKind = iota
	keepChild              // t was already killed: the parent passes through
	excludeChild           // t excluded: killed gains t and its descendants
	includeChild           // t included without changing a word
	writeChild             // t included and some word changed
)

// child describes one child of a live state without building it: its
// image hash and whether it is final are all the merge needs to drop
// most children before any storage is spent on them.
type child struct {
	h      uint64
	parent int32
	kind   childKind
	final  bool
}

// final is one distinct reachable image with a representative cut,
// kept as its parent's: the image is img with node's writes applied
// and the cut is dec plus node (node -1: img and dec themselves). A
// final costs no storage of its own.
type final struct {
	img  []wordVal
	dec  bits
	node int32
}

// image returns f's image, built in *buf when f has a node to apply.
func (f *final) image(words *wordTable, buf *[]wordVal) []wordVal {
	if f.node < 0 {
		return f.img
	}
	*buf = applyInto((*buf)[:0], f.img, words.writes[f.node])
	return *buf
}

// cut returns f's representative cut over n nodes.
func (f *final) cut(n int) graph.Cut {
	c := graph.Cut{Included: make([]bool, n)}
	for i := range c.Included {
		c.Included[i] = f.dec.get(i)
	}
	if f.node >= 0 {
		c.Included[f.node] = true
	}
	return c
}

// space is the fully enumerated, reduced state space.
type space struct {
	words    *wordTable
	finals   []final // distinct reachable images, discovery order
	cuts     uint64  // exact total consistent cuts (saturating)
	cutsSat  bool
	peakLive int
	subsumed uint64
}

// parallelThreshold is the live-state count above which child
// expansion fans out through the sweep engine, expandChunk parents
// per sweep item.
const (
	parallelThreshold = 2048
	expandChunk       = 1024
)

// enumerator is a check's working set. Its live and next levels,
// children, indexes and scratch buffers are reused from level to level;
// slabs hold the storage of states that survive a merge, and tries the
// classification trie's. CheckGraph takes an enumerator from enumPool
// and puts it back once classification is done, so all of it is also
// reused from one check to the next.
type enumerator struct {
	n, t   int
	desc   [][]uint64 // per node, its descendants (graph.Descendants), storage kept across checks
	words  wordTable
	sp     space
	live   []state
	next   []state
	kids   []child
	bucket index      // image hash → latest next-level state with it; after the last level, countCuts' suffix hashes
	fhead  index      // image hash → latest final with that hash
	flink  []int32    // per final: the previous one with its hash
	outs   []*outcome // per final: its class, as classifyAll found it
	bitsOf slab[uint64]
	imgOf  slab[wordVal]
	tries  trieStore
	img    []wordVal // scratch: the image of a writeChild
	fimg   []wordVal // scratch: the image of a recorded final
	killed bits      // scratch: the killed-set of an excludeChild
}

// enumPool recycles enumerators across checks. Nothing a check returns
// references one: a Result's counterexample cut and strings are built
// fresh. sync.Pool drops idle enumerators after two garbage
// collections, so a large check's storage outlives it only briefly.
var enumPool = sync.Pool{New: func() any { return newEnumerator() }}

func newEnumerator() *enumerator { return &enumerator{} }

// reset drops what e holds of the last check and makes its storage
// available to the next. The state slabs hold plain values that every
// taker overwrites, so they are not cleared; trie nodes hold pointers,
// so theirs are.
func (e *enumerator) reset() {
	e.sp = space{finals: e.sp.finals[:0]}
	e.flink = e.flink[:0]
	clear(e.outs)
	e.outs = e.outs[:0]
	e.bitsOf.reset(false)
	e.imgOf.reset(false)
	e.tries.nodes.reset(true)
}

// zeroBits returns a cleared slab bitset over n nodes.
func (e *enumerator) zeroBits(n int) bits {
	b := bits(e.bitsOf.take((n + 63) / 64))
	clear(b)
	return b
}

// enumerate walks the graph's nodes in trace (topological) order,
// branching each undecided node into exclude/include, deduplicating
// states by (image, killed-set) and folding dominated states into
// their antichain maxima. See the package comment for the soundness
// argument. The space it returns lives in e.
func (e *enumerator) enumerate(g *graph.Graph, cfg Config) (*space, error) {
	n := g.Len()
	budget := cfg.budget()
	e.desc = g.Descendants(e.desc)
	desc := e.desc
	e.words.build(g)
	e.n = n
	e.sp.words = &e.words
	e.killed = slices.Grow(e.killed[:0], (n+63)/64)[:(n+63)/64]
	e.live = append(e.live[:0], state{killed: e.zeroBits(n), dec: e.zeroBits(n), link: -1})
	e.next = e.next[:0]
	// Sized for as many finals as the last check recorded, so a run of
	// similar checks does not regrow it from minIndex each time.
	e.fhead.reset(e.fhead.n)
	for t := 0; t < n; t++ {
		e.t = t
		if err := e.expand(cfg.Sweep); err != nil {
			return nil, err
		}
		// Merge: dedup by (image, killed suffix), fold dominated
		// states into their dominators. Buckets key on the image
		// hash; the live states of one image in a bucket are an
		// antichain of killed-sets, so the order they are compared in
		// does not matter. Every child could enter the bucket index,
		// so it is sized for all of them.
		e.bucket.reset(len(e.kids))
		for _, c := range e.kids {
			if c.kind != noChild {
				e.emit(c)
			}
		}
		// Compact dominated slots; the old level becomes the next
		// one's buffer.
		j := 0
		for i := range e.next {
			if e.next[i].dead {
				continue
			}
			if i != j {
				e.next[j] = e.next[i]
			}
			j++
		}
		e.live, e.next = e.next[:j], e.live[:0]
		if len(e.live) > e.sp.peakLive {
			e.sp.peakLive = len(e.live)
		}
		if len(e.live)+len(e.sp.finals) > budget {
			return nil, fmt.Errorf("exhaustive: state budget %d exceeded at node %d/%d (%d live + %d final states); shrink the fixture or raise Budget",
				budget, t+1, n, len(e.live), len(e.sp.finals))
		}
	}
	for i := range e.live {
		s := &e.live[i]
		e.addFinal(s.h, s.img, final{img: s.img, dec: s.dec, node: -1})
	}
	e.sp.cuts, e.sp.cutsSat = countCuts(g, desc, budget, &e.bucket)
	return &e.sp, nil
}

// expand describes the children of every live state at node t: one
// (node t already killed) or two (exclude / include). It is pure per
// parent, so chunks of parents fan out through sweep and each writes
// only its own slots of kids.
func (e *enumerator) expand(scfg sweep.Config) error {
	e.kids = slices.Grow(e.kids[:0], 2*len(e.live))[:2*len(e.live)]
	if len(e.live) < parallelThreshold {
		scfg.Parallel = 1
	}
	scfg.Name = "exhaustive-expand"
	chunks := (len(e.live) + expandChunk - 1) / expandChunk
	return sweep.Run(chunks, scfg, func(c int) (struct{}, error) {
		e.expandRange(c*expandChunk, min((c+1)*expandChunk, len(e.live)))
		return struct{}{}, nil
	}, nil)
}

func (e *enumerator) expandRange(lo, hi int) {
	t, n := e.t, e.n
	ws := e.words.writes[t]
	for i := lo; i < hi; i++ {
		p := &e.live[i]
		kids := e.kids[2*i : 2*i+2]
		if p.killed.get(t) {
			// Forced exclusion: descendants of t are already in the
			// killed set (killed is transitively closed).
			kids[0] = child{h: p.h, parent: int32(i), kind: keepChild, final: p.killed.coversFrom(nil, t+1, n)}
			kids[1] = child{}
			continue
		}
		kids[0] = child{h: p.h, parent: int32(i), kind: excludeChild, final: p.killed.coversFrom(e.desc[t], t+1, n)}
		h, changed := applyHash(p.img, p.h, ws)
		kind := includeChild
		if changed {
			kind = writeChild
		}
		kids[1] = child{h: h, parent: int32(i), kind: kind, final: p.killed.coversFrom(nil, t+1, n)}
	}
}

// emit merges one child into the next level, or into the finals when
// it has no undecided node left. Storage is taken only for a child
// that survives.
func (e *enumerator) emit(c child) {
	t, n := e.t, e.n
	p := &e.live[c.parent]
	img := p.img
	if c.kind == writeChild {
		e.img = applyInto(e.img[:0], p.img, e.words.writes[t])
		img = e.img
	}
	if c.final {
		f := final{img: p.img, dec: p.dec, node: -1}
		if c.kind == includeChild || c.kind == writeChild {
			f.node = int32(t)
		}
		e.addFinal(c.h, img, f)
		return
	}
	killed := p.killed
	if c.kind == excludeChild {
		for w := range killed {
			e.killed[w] = killed[w] | e.desc[t][w]
		}
		e.killed.set(t)
		killed = e.killed
	}
	head, at := e.bucket.lookup(c.h)
	for i := head; i >= 0; i = e.next[i].link {
		s := &e.next[i]
		if s.dead || !slices.Equal(s.img, img) {
			continue
		}
		// s dominates c: s's killed-set is a subset (s keeps
		// every option c has), so c explores a subset of s's
		// reachable images.
		if s.killed.subsetFrom(killed, t+1, n) {
			e.sp.subsumed++
			return
		}
		// c dominates s.
		if killed.subsetFrom(s.killed, t+1, n) {
			e.sp.subsumed++
			s.dead = true
		}
	}
	e.bucket.store(at, c.h, int32(len(e.next)))
	e.next = append(e.next, state{img: p.img, h: c.h, killed: p.killed, dec: p.dec, link: head})
	s := &e.next[len(e.next)-1]
	switch c.kind {
	case excludeChild:
		s.killed = e.bitsOf.take(len(killed))
		copy(s.killed, killed)
	case writeChild:
		s.img = e.own(img)
		s.dec = e.withBit(p.dec, t)
	case includeChild:
		s.dec = e.withBit(p.dec, t)
	}
}

// addFinal records a reachable image unless an equal one is already
// recorded. img is the image and f the final that stands for it.
func (e *enumerator) addFinal(h uint64, img []wordVal, f final) {
	head, at := e.fhead.lookup(h)
	for i := head; i >= 0; i = e.flink[i] {
		if slices.Equal(e.sp.finals[i].image(&e.words, &e.fimg), img) {
			return
		}
	}
	e.fhead.store(at, h, int32(len(e.sp.finals)))
	e.flink = append(e.flink, head)
	e.sp.finals = append(e.sp.finals, f)
}

// own copies a scratch image into slab storage.
func (e *enumerator) own(img []wordVal) []wordVal {
	if len(img) == 0 {
		return nil
	}
	out := e.imgOf.take(len(img))
	copy(out, img)
	return out
}

// withBit returns a slab copy of b with bit i set.
func (e *enumerator) withBit(b bits, i int) bits {
	out := bits(e.bitsOf.take(len(b)))
	copy(out, b)
	out.set(i)
	return out
}

// suffixHash hashes one killed-set suffix for countCuts.
func suffixHash(ws []uint64) uint64 {
	if collideHashes {
		return 0
	}
	h := uint64(0)
	for _, w := range ws {
		h = mix64(h + w + 0x9e3779b97f4a7c15)
	}
	return h
}

// countCuts computes the exact number of consistent cuts with a
// dynamic program over killed-set suffixes: states with identical
// killed suffixes have identical decision subtrees, so their path
// counts sum exactly (unlike the image enumeration's antichain
// folding, which redirects paths across states with different
// futures). Saturates at MaxUint64 — or when the DP's own state
// count exceeds budget, in which case the true count is at least the
// returned value.
//
// Entry i of a level keeps its killed-set in words [i*stride,
// (i+1)*stride) of one flat array. Only the words holding bits from
// the level's next node up are written: the DP never reads below them.
// head indexes a level's entries by suffix hash; it is reset for each
// level, so it may hold anything on entry.
func countCuts(g *graph.Graph, desc [][]uint64, budget int, head *index) (uint64, bool) {
	n := g.Len()
	stride := (n + 63) / 64
	type centry struct {
		count uint64
		link  int32 // previous entry with the same suffix hash; -1 ends it
	}
	sat := false
	add := func(a, b uint64) uint64 {
		sum := a + b
		if sum < a {
			sat = true
			return math.MaxUint64
		}
		return sum
	}
	live := []centry{{count: 1, link: -1}}
	killed := make([]uint64, stride)
	var next []centry
	var nextKilled []uint64
	suffix := make([]uint64, stride)
	for t := 0; t < n; t++ {
		from := t + 1
		w0 := from >> 6
		next, nextKilled = next[:0], nextKilled[:0]
		head.reset(2 * len(live))
		// emit merges the killed-set k | or (or may be nil) with count
		// paths into the next level. An exclusion's own bit t lies
		// below the suffix, so or = desc[t] is the whole of it.
		emit := func(k, or bits, count uint64) {
			suf := suffix[w0:]
			for w := range suf {
				v := k[w0+w]
				if or != nil {
					v |= or[w0+w]
				}
				suf[w] = v
			}
			if len(suf) > 0 {
				suf[0] &= ^uint64(0) << (uint(from) & 63)
			}
			h := suffixHash(suf)
			first, at := head.lookup(h)
			for i := first; i >= 0; i = next[i].link {
				if slices.Equal(nextKilled[int(i)*stride+w0:(int(i)+1)*stride], suf) {
					next[i].count = add(next[i].count, count)
					return
				}
			}
			head.store(at, h, int32(len(next)))
			next = append(next, centry{count: count, link: first})
			nextKilled = append(nextKilled, suffix...)
		}
		for i := range live {
			k := bits(killed[i*stride : (i+1)*stride])
			if k.get(t) {
				emit(k, nil, live[i].count)
				continue
			}
			emit(k, desc[t], live[i].count)
			emit(k, nil, live[i].count)
		}
		live, next = next, live
		killed, nextKilled = nextKilled, killed
		if len(live) > budget {
			// Too wide to count exactly; report the partial sum as a
			// saturated lower bound.
			total := uint64(0)
			for _, s := range live {
				total = add(total, s.count)
			}
			return total, true
		}
	}
	total := uint64(0)
	for _, s := range live {
		total = add(total, s.count)
	}
	return total, sat
}

// imgOfCut materializes a cut into canonical image form by replaying
// its included persists in trace order.
func imgOfCut(wt *wordTable, c graph.Cut) []wordVal {
	var img, buf []wordVal
	for i, in := range c.Included {
		if in {
			buf = applyInto(buf[:0], img, wt.writes[i])
			img, buf = buf, img
		}
	}
	return img
}
