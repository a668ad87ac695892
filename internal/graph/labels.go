package graph

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/trace"
)

// Cover labels: pruning transitively redundant edges.
//
// A chain is a sequence of persists each ordered after every persist
// the chain issued in its earlier epochs: under strict persistency
// (§5.1) a thread, each persist an epoch of its own; under the epoch
// models (§5.2) a thread, whose barriers bind each closing epoch into
// the active set of its later persists; under strand persistency (§5.3)
// one strand of a thread, which ends at the thread's next NewStrand. A
// persist's key is its chain, its epoch and its position in the chain.
// A build numbers chains as they first persist, and epochs build-wide
// as chains open them, so a chain's epoch numbers ascend.
//
// The frontier sets never forget a source, so a persist's candidate
// sources are mostly ancestors of one another (over a hundred edges per
// node on KV traces, where the transitive reduction keeps one to nine).
// Every persist n has a cover label, a set of claims (c, k): every
// persist of chain c below position k is a proper ancestor of n. The
// claim on n's own chain, its earlier epochs, is implicit in its key. A
// label stores the others as a sorted list with a watermark w: a chain
// without a stored claim is claimed whole when it is among the first w
// chains to end, and not at all otherwise. Under strand persistency
// most labels claim most ended strands whole, so the watermark stands
// for them and the list holds the exceptions and the open chains; the
// other models' chains never end, and their watermark stays 0. Labels
// are interned, so persists that add no claim share their operands'
// label (a strict thread's persists share one until a dependence
// arrives from another chain).
//
// A label is M, the join of n's operand sets' labels (its thread's
// active set, its blocks' writer and reader sets), raised for each
// other chain c of n's kept sources, in c's top epoch f among them:
// past f when every persist of f so far is a kept source (and f is
// closed, unless c is a strand), else up to f. A set's label is the
// join of its members', kept per version, so a copy shares it and a
// union joins its operands' once a persist reads it; only a thread's
// pending set, after a persist scrubbed its sources out of it, keeps
// what they claimed, which that persist's label covers, and pending is
// only ever bound together with EpochMax.
//
// Persist drops a candidate x when M claims it, or when another
// candidate of x's chain lies in a later epoch (its implicit claim):
// another source has x as a proper ancestor, so every path through x
// survives. Reachability, and with it every cut, critical path and
// checker verdict, is that of the unpruned graph; the frontier sets are
// unchanged, so Barriers' redundancy flags are too, and Fig 2's class
// counts are taken from the unpruned candidates as they are marked
// (Graph.EdgeCounts). The labels follow agamotto's
// PersistInterval/isOrderedBefore, kept per node and chain.

// nodeKey is a persist's chain, its epoch and its position in the
// chain.
type nodeKey struct{ ch, ep, pos int32 }

// claim is one stored label entry: every persist of chain ch below
// position n is a proper ancestor.
type claim struct{ ch, n int32 }

// joinMemo records that labels a < c join to label k.
type joinMemo struct{ a, c, k int32 }

// survivors are the members of a chain's active set of version ver
// that addActive found undominated.
type survivors struct {
	ids []NodeID
	ver uint64
}

// unset marks a chain a dense copy of a label (labels.m, labels.tmp)
// stores no claim for.
const unset = -1

// maxClaims bounds the claims a build stores, as NodeID bounds its
// persists.
const maxClaims = math.MaxInt32

// labels is the builder's cover-label state for one build; the builder
// pool keeps its storage.
type labels struct {
	// slab holds label k's stored claims at slab[off[k]:off[k+1]], in
	// ascending chain order (label 0 claims nothing); wm[k] is its
	// watermark and from[k] the labels join merged into k, if it did.
	// ofVer[v-verBase-1] is the label of version v.
	slab    []claim
	off     []int
	wm      []int32
	from    [][2]int32
	ofVer   []int32
	verBase uint64
	pend    [][2]int32
	// Per persist: its key and label. Per TID: its chain plus one (0:
	// none since its strand began). Per epoch: its persist count and
	// its first position in its chain. Per chain: its epoch that may
	// still take persists (-1: none), its persist count, its place
	// among the ended chains (math.MaxInt32 while it persists) and its
	// active set's survivors.
	key        []nodeKey
	nodeLab    []int32
	chainOf    []int32
	epochLen   []int32
	epochStart []int32
	open       []int32
	size       []int32
	endAt      []int32
	surv       []survivors
	ended      int32
	strands    bool
	// m holds label mIs's stored claims densely, for queries (unset:
	// none), and mWm its watermark; tmp is survivors' own, all unset
	// between uses. joins is join's direct-mapped memo and interned
	// seal's table of labels by content hash.
	m, tmp    []int32
	mIs, mWm  int32
	joins     []joinMemo
	interned  []int32
	joinShift uint
	// Per-persist scratch: top and cnt are the top epoch and its kept
	// source count per chain, touched the chains with a count, and
	// raise the claims those add to M.
	top, cnt []int32
	touched  []int32
	raised   []claim
}

// reset readies l for a build of events events and persists persists;
// ver is the builder's last drawn version. The join memo and interning
// table are sized like the subset facts (frontier.go).
func (l *labels) reset(events, persists int, ver uint64, strands bool) {
	l.strands = strands
	bits := min(max(bits.Len(uint(events/4)), minFactBits), maxFactBits)
	l.joins, l.interned = resize(l.joins, 1<<bits), resize(l.interned, 1<<bits)
	l.joinShift = uint(64 - bits)
	clear(l.joins)
	clear(l.interned)
	clear(l.chainOf)
	l.chainOf, l.epochLen, l.epochStart = l.chainOf[:0], l.epochLen[:0], l.epochStart[:0]
	l.open, l.size, l.endAt, l.surv, l.ended = l.open[:0], l.size[:0], l.endAt[:0], l.surv[:0], 0
	l.m, l.tmp, l.mIs, l.mWm = l.m[:0], l.tmp[:0], 0, 0
	l.top, l.cnt, l.touched = l.top[:0], l.cnt[:0], l.touched[:0]
	l.slab, l.off = l.slab[:0], append(l.off[:0], 0, 0)
	l.wm, l.from = append(l.wm[:0], 0), append(l.from[:0], [2]int32{})
	l.ofVer, l.verBase, l.pend = l.ofVer[:0], ver, l.pend[:0]
	l.key, l.nodeLab = resize(l.key, persists), resize(l.nodeLab, persists)
}

// resize returns s with length n, reusing its storage when it can.
// Kept elements hold stale values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// label returns label k's stored claims.
func (l *labels) label(k int32) []claim {
	return l.slab[l.off[k]:l.off[k+1]]
}

// implied returns the claim a label of watermark wm makes on chain c
// when it stores none: the whole chain (math.MaxInt32) when c is among
// the first wm chains to end, else nothing.
func (l *labels) implied(c, wm int32) int32 {
	if l.endAt[c] < wm {
		return math.MaxInt32
	}
	return 0
}

// claimOf returns the position label k claims chain c below, from l.m
// when that holds k.
func (l *labels) claimOf(k, c int32) int32 {
	if k == l.mIs {
		if n := l.m[c]; n != unset {
			return n
		}
		return l.implied(c, l.mWm)
	}
	for _, x := range l.label(k) {
		if x.ch >= c {
			if x.ch == c {
				return x.n
			}
			break
		}
	}
	return l.implied(c, l.wm[k])
}

// above reports whether the persist of key k lies above the label
// whose stored claims d holds densely and whose watermark is wm.
func (l *labels) above(k nodeKey, d []int32, wm int32) bool {
	if n := d[k.ch]; n != unset {
		return k.pos >= n
	}
	return l.endAt[k.ch] >= wm
}

// labelOf returns set v's label reference (see lazy): 0 for the empty
// set.
func (b *builder) labelOf(v vset) int32 {
	if v.ver == 0 {
		return 0
	}
	return b.lab.ofVer[v.ver-b.lab.verBase-1]
}

// lazy returns a reference to the join of the labels references a and
// c name, deferring the join: a reference is a label, or, negative, a
// pending join in pend. Sets change far more often than a persist
// queries their labels, and most versions are never queried.
func (l *labels) lazy(a, c int32) int32 {
	switch {
	case c == 0 || a == c:
		return a
	case a == 0:
		return c
	}
	l.pend = append(l.pend, [2]int32{a, c})
	return -int32(len(l.pend))
}

// resolve returns the label reference r names, joining what its
// pending joins defer, and records the result in place of each.
func (l *labels) resolve(r int32) int32 {
	if r >= 0 {
		return r
	}
	p := l.pend[-r-1]
	if p[0] == p[1] {
		return p[0]
	}
	k := l.join(l.resolve(p[0]), l.resolve(p[1]))
	l.pend[-r-1] = [2]int32{k, k}
	return k
}

// join returns the label joining labels a and c, reusing either when it
// already covers the other, as most joins find. Most joins meet an
// empty or equal operand, so that check is inlined at every call.
func (l *labels) join(a, c int32) int32 {
	switch {
	case c == 0 || a == c:
		return a
	case a == 0:
		return c
	}
	return l.joinSlow(a, c)
}

// joinSlow is join for distinct non-empty labels. The memo answers a
// pair joinSlow has met before in this build.
func (l *labels) joinSlow(a, c int32) int32 {
	if a > c {
		a, c = c, a
	}
	e := &l.joins[(uint64(a)<<32|uint64(c))*0x9e3779b97f4a7c15>>l.joinShift]
	if e.a != a || e.c != c {
		k := c
		switch {
		case l.derives(c, a):
		case l.derives(a, c):
			k = a
		default:
			k = l.merge(a, c)
		}
		*e = joinMemo{a, c, k}
	}
	return e.k
}

// derives reports whether label k was merged from label p, or from a
// label merged from p: it then covers p, and join needs no walk.
func (l *labels) derives(k, p int32) bool {
	f := l.from[k]
	return f[0] == p || f[1] == p || l.from[f[0]][0] == p || l.from[f[0]][1] == p ||
		l.from[f[1]][0] == p || l.from[f[1]][1] == p
}

// merge returns the label joining labels ka and kc: either one when it
// covers the other, else a new one built at the slab's end (which the
// operands may share: growing the slab leaves them intact). The join
// takes the larger watermark and stores no claim that one implies.
func (l *labels) merge(ka, kc int32) int32 {
	a, c, start := l.label(ka), l.label(kc), len(l.slab)
	wa, wc := l.wm[ka], l.wm[kc]
	wm := max(wa, wc)
	s := slices.Grow(l.slab, len(a)+len(c))
	i, j := 0, 0
	for i < len(a) || j < len(c) {
		var x claim
		switch {
		case j == len(c) || i < len(a) && a[i].ch < c[j].ch:
			x, i = a[i], i+1
			x.n = max(x.n, l.implied(x.ch, wc))
		case i == len(a) || a[i].ch > c[j].ch:
			x, j = c[j], j+1
			x.n = max(x.n, l.implied(x.ch, wa))
		default:
			x, i, j = claim{a[i].ch, max(a[i].n, c[j].n)}, i+1, j+1
		}
		if l.endAt[x.ch] >= wm || x.n < l.size[x.ch] {
			s = append(s, x)
		}
	}
	switch m := s[start:]; {
	case wm == wa && slices.Equal(m, a):
		l.slab = s[:start]
		return ka
	case wm == wc && slices.Equal(m, c):
		l.slab = s[:start]
		return kc
	}
	l.slab = s
	return l.seal(wm, [2]int32{ka, kc})
}

// seal ends the label of watermark wm built at the slab's end, merged
// from the labels from (zero: none), and returns its number, after
// compact. Labels are interned: most merges rebuild claims an earlier
// label holds, and that label's number is returned instead, so equal
// labels join without a walk.
func (l *labels) seal(wm int32, from [2]int32) int32 {
	start := l.off[len(l.off)-1]
	wm = l.compact(wm, start)
	c, h := l.slab[start:], uint64(len(l.slab)-start)^uint64(wm)<<32
	for _, x := range c {
		h = (h ^ uint64(x.ch)<<32 ^ uint64(uint32(x.n))) * 0x9e3779b97f4a7c15
	}
	e := &l.interned[h>>l.joinShift]
	if *e != 0 && l.wm[*e] == wm && slices.Equal(l.label(*e), c) {
		l.slab = l.slab[:start]
		return *e
	}
	l.off, l.wm, l.from = append(l.off, len(l.slab)), append(l.wm, wm), append(l.from, from)
	*e = int32(len(l.off) - 2)
	return *e
}

// compact raises the watermark wm of the label built at slab[start:]
// to every chain ended so far once the label claims at least half of
// the chains ended since wm whole: it drops those claims and stores an
// exception, the claim it makes or 0, for each of those chains it
// claims in part. The label keeps its claims and never grows.
func (l *labels) compact(wm int32, start int) int32 {
	c, whole := l.slab[start:], int32(0)
	for _, x := range c {
		if l.endAt[x.ch] >= wm && l.endAt[x.ch] < l.ended && x.n >= l.size[x.ch] {
			whole++
		}
	}
	if whole == 0 || 2*whole < l.ended-wm {
		return wm
	}
	for _, x := range c {
		l.tmp[x.ch] = x.n
	}
	for ch, at := range l.endAt {
		if at >= wm && at < l.ended && l.tmp[ch] == unset {
			l.slab = append(l.slab, claim{int32(ch), 0})
		}
	}
	for _, x := range c {
		l.tmp[x.ch] = unset
	}
	c = slices.DeleteFunc(l.slab[start:], func(x claim) bool {
		return l.endAt[x.ch] >= wm && l.endAt[x.ch] < l.ended && x.n >= l.size[x.ch]
	})
	slices.SortFunc(c, func(x, y claim) int { return int(x.ch - y.ch) })
	l.slab = l.slab[:start+len(c)]
	return l.ended
}

// enter gives persist id of thread tid its key: a new chain when the
// thread has none, a new epoch unless the chain's epoch is still open,
// and the chain's next position. Under barriers a chain's epoch stays
// open until the thread's next barrier; otherwise (strict persistency)
// every persist closes its own.
func (l *labels) enter(id NodeID, tid int32, barriers bool) nodeKey {
	if int(tid) >= len(l.chainOf) {
		l.chainOf = append(l.chainOf, make([]int32, int(tid)+1-len(l.chainOf))...)
	}
	c := l.chainOf[tid] - 1
	if c < 0 {
		c = int32(len(l.open))
		l.chainOf[tid] = c + 1
		l.open, l.size, l.endAt = append(l.open, -1), append(l.size, 0), append(l.endAt, math.MaxInt32)
		l.surv = slices.Grow(l.surv, 1)[:c+1]
		l.surv[c].ver = 0
		l.m, l.tmp = append(l.m, unset), append(l.tmp, unset)
		l.top, l.cnt = append(l.top, 0), append(l.cnt, 0)
	}
	ep := l.open[c]
	if ep < 0 {
		ep = int32(len(l.epochLen))
		l.epochLen, l.epochStart = append(l.epochLen, 0), append(l.epochStart, l.size[c])
		if barriers {
			l.open[c] = ep
		}
	}
	l.epochLen[ep]++
	l.key[id] = nodeKey{c, ep, l.size[c]}
	l.size[c]++
	return l.key[id]
}

// endEpoch closes thread tid's open epoch; with strand it also ends the
// thread's chain, so its next persist starts another. Barriers close
// epochs, and under strand persistency NewStrand ends chains.
func (l *labels) endEpoch(tid int32, strand bool) {
	if int(tid) >= len(l.chainOf) || l.chainOf[tid] == 0 {
		return
	}
	c := l.chainOf[tid] - 1
	l.open[c] = -1
	if strand {
		l.chainOf[tid] = 0
		l.endAt[c] = l.ended
		l.ended++
	}
}

func (b *builder) EpochMark(e trace.Event, _ *core.Thread[vset]) { b.lab.endEpoch(e.TID, false) }
func (b *builder) StrandMark(e trace.Event, _ *core.Thread[vset]) {
	if b.k.Spec().Strands {
		b.lab.endEpoch(e.TID, true)
	}
}

// cover returns M, the join of the labels of a persist's operand sets
// (its thread's active set and its blocks' writer and reader sets),
// and loads l.m and l.mWm with it. A set of one persist that M so far
// claims adds nothing: that persist is an ancestor of a member of a
// set joined before, whose label covers its own.
func (b *builder) cover(t *core.Thread[vset], blocks []*core.Block[vset]) int32 {
	l := &b.lab
	l.load(l.resolve(b.labelOf(t.Active)))
	for _, bs := range blocks {
		for _, v := range [2]vset{bs.Writer, bs.Reader} {
			if len(v.ids) != 1 || l.above(l.key[v.ids[0]], l.m, l.mWm) {
				l.load(l.join(l.mIs, l.resolve(b.labelOf(v))))
			}
		}
	}
	return l.mIs
}

// load loads l.m and l.mWm with label k.
func (l *labels) load(k int32) {
	if k != l.mIs {
		for _, c := range l.label(l.mIs) {
			l.m[c.ch] = unset
		}
		for _, c := range l.label(k) {
			l.m[c.ch] = c.n
		}
		l.mIs, l.mWm = k, l.wm[k]
	}
}

// keepTop filters buf, the sources M leaves undominated, to those in
// their chain's top epoch among them, and counts per chain the sources
// in that top epoch (for raise).
func (l *labels) keepTop(buf []Edge) []Edge {
	lower, touched := false, l.touched
	for _, ed := range buf {
		k := l.key[ed.From]
		switch top := l.top[k.ch]; {
		case l.cnt[k.ch] == 0:
			touched = append(touched, k.ch)
			l.top[k.ch], l.cnt[k.ch] = k.ep, 1
		case k.ep > top:
			l.top[k.ch], l.cnt[k.ch], lower = k.ep, 1, true
		case k.ep == top:
			l.cnt[k.ch]++
		default:
			lower = true
		}
	}
	l.touched = touched
	if lower {
		buf = slices.DeleteFunc(buf, func(ed Edge) bool {
			k := l.key[ed.From]
			return k.ep < l.top[k.ch]
		})
	}
	return buf
}

// raise returns the label of a persist of key own and cover M: M,
// raised by the claims of its kept sources (keepTop) on other chains:
// in chain c's top epoch f among them, past f when every persist of f
// so far is a kept source, else up to f. Only a strand's claim reaches
// into an epoch still open: once the strand ends, labels then claim it
// whole (compact); a chain of the other models never ends, and there
// claims stop at an open epoch's start.
func (l *labels) raise(own nodeKey, m int32) int32 {
	raise := l.raised[:0]
	for _, c := range l.touched {
		f := l.top[c]
		n := l.epochStart[f]
		if l.cnt[c] == l.epochLen[f] && (l.strands || f != l.open[c]) {
			n += l.cnt[c]
		}
		if c != own.ch && n > l.claimOf(m, c) {
			raise = append(raise, claim{c, n})
		}
		l.cnt[c] = 0
	}
	l.touched = l.touched[:0]
	for _, x := range raise {
		m = l.with(m, x)
	}
	if cap(raise) > cap(l.raised) {
		l.raised = raise
	}
	return m
}

// with returns label m with claim x in place of its claim on x's chain,
// which x raises.
func (l *labels) with(m int32, x claim) int32 {
	c := l.label(m)
	i, found := slices.BinarySearchFunc(c, x.ch, func(y claim, ch int32) int { return int(y.ch - ch) })
	j := i
	if found {
		j++
	}
	l.slab = append(append(append(l.slab, c[:i]...), x), c[j:]...)
	return l.seal(l.wm[m], [2]int32{m})
}

// epochLabel returns a reference to the join of the labels of the
// persists in ids, a thread's EpochMax.
func (b *builder) epochLabel(ids nodeVec) int32 {
	k := int32(0)
	for _, id := range ids {
		k = b.lab.lazy(k, b.lab.nodeLab[id])
	}
	return k
}

// Persist adds the persist's node. It counts every distinct source,
// for Fig 2's class counts, but keeps an edge only from the sources
// no other source is ordered after, as far as the cover labels tell,
// gathered in place past the edge slab's end (edgeTail, keepEdges);
// then it labels the persist.
func (b *builder) Persist(e trace.Event, t *core.Thread[vset], blocks []*core.Block[vset]) vset {
	id := b.g.AddNode("", e)
	b.nextStamp()
	spec := b.k.Spec()
	key := b.lab.enter(id, e.TID, spec.Barriers)
	// A dense active set is served by addActive and left unmarked; act
	// is then that set, and inAct counts the block sources in it.
	act, inAct := t.Active.ids, 0
	if !act.dense() {
		act = nil
	}
	buf, m := b.edgeTail(), int32(0)
	if src, class, ok := sole(t, blocks); ok {
		// Most persists have one source or none: nothing to prune, and
		// M is that source's label, so the operand labels go unjoined.
		if src >= 0 {
			b.mark[src] = b.stamp
			b.g.classes[class]++
			buf, m = append(buf, Edge{From: src, Class: class}), b.lab.nodeLab[src]
		}
	} else {
		m = b.cover(t, blocks)
		mark, stamp, classes, l := b.mark, b.stamp, &b.g.classes, &b.lab
		add := func(from NodeID, class EdgeClass) {
			if mark[from] != stamp {
				mark[from] = stamp
				classes[class]++
				if act != nil && act.has(from) {
					inAct++
				}
				if l.above(l.key[from], l.m, l.mWm) {
					buf = append(buf, Edge{From: from, Class: class})
				}
			}
		}
		each := func(v nodeVec, class EdgeClass) {
			if v.dense() {
				var n int
				buf, n = b.addDense(buf, v, class, act)
				inAct += n
				return
			}
			for _, from := range v {
				add(from, class)
			}
		}
		// When a source orders this persist for several reasons, the
		// most specific class wins (atomicity, then conflict, then
		// program order), matching Figure 2's classification. The
		// blocks come in ascending address order; every atomicity edge
		// goes first: the block's writer is its last persist, a
		// singleton (so sparse).
		for _, bs := range blocks {
			if w := bs.Writer.ids; len(w) > 0 {
				add(w[0], Atomicity)
			}
		}
		for _, bs := range blocks {
			each(bs.Writer.ids, Conflict)
			each(bs.Reader.ids, Conflict)
		}
		if act != nil {
			buf = b.addActive(buf, key.ch, t.Active, inAct)
		} else {
			each(t.Active.ids, ProgramOrder)
		}
	}
	buf = b.lab.keepTop(buf)
	m = b.lab.raise(key, m)
	b.g.Nodes[id].In = b.keepEdges(buf)
	lab := m
	b.lab.nodeLab[id] = lab
	if spec.Immediate {
		// The new persist subsumes everything it depends on.
		t.Active = b.fresh(append(t.Active.ids[:0], id), lab)
	} else {
		b.settle(t, id, act)
	}
	// The persist is ordered after every prior dependence of its whole
	// footprint, so the blocks it spans share its one singleton vec.
	return b.fresh(b.single(id), lab)
}

// sole returns the one source of a persist whose operand sets hold one
// id between them (-1: none) and the class Persist would give it, or
// false when they hold more.
func sole(t *core.Thread[vset], blocks []*core.Block[vset]) (NodeID, EdgeClass, bool) {
	src, class, n := NodeID(-1), ProgramOrder, t.Active.ids.size()
	if n == 1 {
		src = t.Active.ids[0]
	}
	for _, bs := range blocks {
		w, r := bs.Writer.ids, bs.Reader.ids
		if n += w.size() + r.size(); n > 1 {
			return 0, 0, false
		}
		switch {
		case len(w) == 1:
			src, class = w[0], Atomicity
		case len(r) == 1:
			src, class = r[0], Conflict
		}
	}
	return src, class, n <= 1
}

// addDense marks and counts every new source of the dense vec v, in
// ascending order, and appends an edge of class from those the cover M
// leaves undominated. It also returns how many of the new sources are
// members of act (nil: none).
func (b *builder) addDense(buf []Edge, v nodeVec, class EdgeClass, act nodeVec) ([]Edge, int) {
	mark, stamp, l := b.mark, b.stamp, &b.lab
	found, inAct := 0, 0
	base := NodeID(v.lo() << wordShift)
	for _, w := range v.words() {
		for u := uint32(w); u != 0; u &= u - 1 {
			from := base + NodeID(bits.TrailingZeros32(u))
			if mark[from] != stamp {
				mark[from] = stamp
				found++
				if act != nil && act.has(from) {
					inAct++
				}
				if l.above(l.key[from], l.m, l.mWm) {
					buf = append(buf, Edge{From: from, Class: class})
				}
			}
		}
		base += 1 << wordShift
	}
	b.g.classes[class] += found
	return buf, inAct
}

// addActive appends to buf the program-order edges of a persist of
// chain ch from its thread's dense active set act: one from every
// member that is not a marked block source (inAct of the members are)
// and that the cover M does not dominate. The set changes only at its
// thread's barriers and every M of its persists includes its label, so
// the members that label and their chains' order leave undominated
// are found once per version (survivors), and the rest only counted,
// for Fig 2: KV active sets hold thousands of members.
func (b *builder) addActive(buf []Edge, ch int32, act vset, inAct int) []Edge {
	l := &b.lab
	if sv := &l.surv[ch]; sv.ver != act.ver {
		sv.ids, sv.ver = b.survivors(sv.ids[:0], act.ids, l.resolve(b.labelOf(act))), act.ver
	}
	b.g.classes[ProgramOrder] += act.ids.size() - inAct
	for _, id := range l.surv[ch].ids {
		if b.mark[id] != b.stamp && l.above(l.key[id], l.m, l.mWm) {
			buf = append(buf, Edge{From: id, Class: ProgramOrder})
		}
	}
	return buf
}

// survivors appends to out the members of the dense vec v, of label
// lab, that lab leaves undominated and that lie in their chain's top
// epoch among v's members: ids ascend with each chain's epochs, so the
// walk leaves that epoch in top for a last pass over out.
func (b *builder) survivors(out []NodeID, v nodeVec, lab int32) []NodeID {
	l := &b.lab
	claims, wm := l.label(lab), l.wm[lab]
	for _, c := range claims {
		l.tmp[c.ch] = c.n
	}
	base := NodeID(v.lo() << wordShift)
	for _, w := range v.words() {
		for bs := uint32(w); bs != 0; bs &= bs - 1 {
			id := base + NodeID(bits.TrailingZeros32(bs))
			k := l.key[id]
			l.top[k.ch] = k.ep
			if l.above(k, l.tmp, wm) {
				out = append(out, id)
			}
		}
		base += 1 << wordShift
	}
	for _, c := range claims {
		l.tmp[c.ch] = unset
	}
	return slices.DeleteFunc(out, func(id NodeID) bool {
		k := l.key[id]
		return k.ep < l.top[k.ch]
	})
}
