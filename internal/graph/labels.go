package graph

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

// Cover labels: pruning transitively redundant edges under epoch
// persistency.
//
// Under the epoch models (Epoch, EpochTSO: rule-table rows with
// Barriers and no Strands) a persist in thread t's epoch e is ordered
// after every persist t issued in its epochs before e (§5.2): each
// barrier binds the closing epoch's persists into the active set every
// later persist of t depends on. The frontier sets never forget a
// source, so a persist's candidate sources are mostly ancestors of one
// another; on write-only KV traces an epoch graph used to carry over a
// hundred edges per node where its transitive reduction keeps about
// nine.
//
// Every persist node n of an epoch-model graph has a cover label: for
// each thread u that persists, the largest epoch f such that every
// persist of u in u's epochs ≤ f is a proper ancestor of n (-1 when
// there is none). It is built from
//
//   - the join (elementwise max) of n's operand sets' labels;
//   - n's own epoch minus one, for n's thread (the rule above);
//   - epoch f for each thread u whose kept sources in u's top epoch f
//     are every persist of u's epoch f, once u has closed it (a source
//     in an epoch above M[u], below, is never dropped).
//
// Each claim holds: a set claims only what one of its members'
// labels claims (below), and ancestry is transitive. A frontier set's
// label is the join of its members' labels, kept per version (one
// version names one set of ids), so a published copy shares its
// original's label, and a union's label is the join of its operands'.
// The one exception is a thread's pending set after a persist scrubbed
// its own sources out of it: its label keeps what the scrubbed
// members claimed, which the scrubbing persist's label covers, and the
// persist sits in the thread's EpochMax; pending is only ever bound
// together with EpochMax (Bind), so the bound set's label again claims
// only what its members provide.
//
// persistLabeled joins the labels of a persist's operand sets into M and
// drops a candidate source x of thread u and epoch f whenever
// M[u] ≥ f: some other source has x as a proper ancestor, so the edge
// from x is transitively redundant and every path through it survives.
// Reachability, and with it every cut, critical path and checker
// verdict, is that of the unpruned graph; the frontier sets themselves
// are unchanged, so Barriers' redundancy flags are too. Fig 2's class
// counts are taken from the unpruned candidates as they are marked
// (Graph.EdgeCounts).
//
// The labels follow agamotto's PersistInterval/isOrderedBefore
// (mod_epoch/persist_epoch per address range), kept per node and per
// thread. A label costs four bytes per thread that persists, so traces
// with more than maxCoverThreads persisting threads are built without
// labels, unpruned.

// maxCoverThreads bounds the label width: past it a trace builds
// without labels, so a label, made per persist and per set change,
// takes at most a kibibyte. A trace whose threads rarely share data
// never repays labels that wide: at this width a KV trace of one write
// per thread builds 1.4 times slower labeled, in 40% of the memory
// (BenchmarkGraphBuildKVWide runs on each side of the bound).
const maxCoverThreads = 256

// nodeKey is a persist's thread (its dense label index) and epoch.
type nodeKey struct{ th, ep int32 }

// labels is the builder's cover-label state for one build. The slices
// are kept across builds by the builder pool.
type labels struct {
	// on reports that the build labels (an epoch model, and between 1
	// and maxCoverThreads persisting threads).
	on bool
	// stride is the label width: the number of persisting threads.
	stride int
	// slab holds label k at slab[k*stride:(k+1)*stride]; label 0 claims
	// nothing and is never written.
	slab []int32
	// ofVer is the label of each version drawn this build: version v's
	// label is ofVer[v-verBase-1].
	ofVer   []int32
	verBase uint64
	// key and nodeLab are each persist's thread and epoch and label.
	key     []nodeKey
	nodeLab []int32
	// tidx maps a TID to its label index plus one (0: the thread does
	// not persist); tids is its inverse.
	tidx []int32
	tids []int32
	// epochLen[u][f] counts thread u's persists in its epoch f.
	epochLen [][]int32
	// Per-persist scratch: m is the join of the operand sets' labels
	// (M above) and mLab the label equal to it (-1: none), tmp the
	// label under construction, top and cnt the top epoch and its
	// source count per thread, touched the threads with a count.
	m, tmp, top, cnt, touched []int32
	mLab                      int32
	// surv[u] holds the members of thread u's active set of version
	// survVer[u] that the set's own label leaves undominated
	// (addActive).
	surv    [][]NodeID
	survVer []uint64
}

// reset readies l for a build of tr, which holds persists persists
// and annotations annotations, under model spec spec; ver is the
// builder's last drawn version.
func (l *labels) reset(tr *trace.Trace, persists, annotations int, spec core.Spec, ver uint64) {
	for _, tid := range l.tids {
		l.tidx[tid] = 0
	}
	l.tids = l.tids[:0]
	l.on = spec.Barriers && !spec.Strands && tr.Len() <= math.MaxInt32
	if !l.on {
		return
	}
	// Pre-pass over the kind, address and thread planes: number the
	// threads that persist, in order of their first persist.
	for _, c := range tr.Chunks() {
		kinds, addrs, tids := c.Kinds(), c.Addrs(), c.TIDs()
		for i, k := range kinds {
			if !k.HasStoreSemantics() || !memory.IsPersistent(addrs[i]) {
				continue
			}
			tid := tids[i]
			if uint32(tid) >= trace.MaxThreads {
				continue // Feed rejects the event
			}
			if int(tid) >= len(l.tidx) {
				l.tidx = append(l.tidx, make([]int32, int(tid)+1-len(l.tidx))...)
			}
			if l.tidx[tid] == 0 {
				l.tids = append(l.tids, tid)
				l.tidx[tid] = int32(len(l.tids))
			}
		}
	}
	s := len(l.tids)
	if l.on = s > 0 && s <= maxCoverThreads; !l.on {
		return
	}
	l.stride, l.verBase = s, ver
	// Most labels are a persist's or a barrier's, so the slab starts
	// with room for one each.
	if want := (1 + persists + annotations) * s; cap(l.slab) < want {
		l.slab = make([]int32, 0, want)
	}
	l.slab = fill(l.slab, s, -1)
	l.ofVer = l.ofVer[:0]
	l.key = resize(l.key, persists)
	l.nodeLab = resize(l.nodeLab, persists)
	l.m, l.tmp = resize(l.m, s), resize(l.tmp, s)
	l.top, l.cnt = resize(l.top, s), fill(l.cnt, s, 0)
	l.touched = l.touched[:0]
	l.epochLen, l.surv = resize(l.epochLen, s), resize(l.surv, s)
	for u := range l.epochLen {
		l.epochLen[u], l.surv[u] = l.epochLen[u][:0], l.surv[u][:0]
	}
	l.survVer = resize(l.survVer, s)
	clear(l.survVer)
}

// resize returns s with length n, reusing its storage when it can.
// Kept elements hold stale values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill returns s with length n and every element v.
func fill(s []int32, n int, v int32) []int32 {
	s = resize(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// label returns label k's entries.
func (l *labels) label(k int32) []int32 {
	return l.slab[int(k)*l.stride : int(k+1)*l.stride]
}

// labelOf returns set v's label: 0 for the empty set and for every set
// of an unlabeled build.
func (b *builder) labelOf(v vset) int32 {
	if !b.lab.on || v.ver == 0 {
		return 0
	}
	return b.lab.ofVer[v.ver-b.lab.verBase-1]
}

// intern stores the label v and returns its number; a label that
// claims nothing is 0.
func (l *labels) intern(v []int32) int32 {
	for _, f := range v {
		if f >= 0 {
			k := len(l.slab) / l.stride
			l.slab = append(l.slab, v...)
			return int32(k)
		}
	}
	return 0
}

// fold joins label k into v and reports whether that raised v.
func (l *labels) fold(v []int32, k int32) bool {
	if k == 0 {
		return false
	}
	lk, raised := l.label(k), false
	v = v[:len(lk)]
	for i, f := range lk {
		if f > v[i] {
			v[i], raised = f, true
		}
	}
	return raised
}

// joinOf returns the label of the union of sets a and c.
func (b *builder) joinOf(a, c vset) int32 {
	if !b.lab.on {
		return 0
	}
	return b.lab.join(b.labelOf(a), b.labelOf(c))
}

// join returns the label joining labels a and c, reusing either when it
// already covers the other.
func (l *labels) join(a, c int32) int32 {
	switch {
	case c == 0 || a == c:
		return a
	case a == 0:
		return c
	}
	la, lc := l.label(a), l.label(c)
	lc = lc[:len(la)]
	geA, geC := true, true
	for i, f := range la {
		geA = geA && f >= lc[i]
		geC = geC && lc[i] >= f
	}
	switch {
	case geA:
		return a
	case geC:
		return c
	}
	v := l.tmp
	copy(v, la)
	l.fold(v, c)
	return l.intern(v)
}

// cover returns M, the join of the labels of a persist's operand sets:
// its thread's active set and its blocks' writer and reader sets.
func (b *builder) cover(t *core.Thread[vset], blocks []*core.Block[vset]) []int32 {
	l := &b.lab
	m, act := l.m, b.labelOf(t.Active)
	copy(m, l.label(act))
	l.mLab = act
	join := func(k int32) {
		switch {
		case k == act || !l.fold(m, k):
		case l.mLab == 0:
			l.mLab = k
		default:
			l.mLab = -1
		}
	}
	for _, bs := range blocks {
		join(b.labelOf(bs.Writer))
		join(b.labelOf(bs.Reader))
	}
	return m
}

// nodeLabel records persist id of event e (thread state t) and returns
// its label: M, raised by the closed-epoch rule over its kept sources
// in and by its own thread's earlier epochs.
func (b *builder) nodeLabel(e trace.Event, t *core.Thread[vset], id NodeID, in []Edge) int32 {
	l := &b.lab
	u, ep := l.tidx[e.TID]-1, int32(t.Epoch)
	l.key[id] = nodeKey{u, ep}
	el := l.epochLen[u]
	if int(ep) >= len(el) {
		for int(ep) >= len(el) {
			el = append(el, 0)
		}
		l.epochLen[u] = el
	}
	el[ep]++

	// The label is M, raised in place (cover makes M afresh for each
	// persist). Every kept source lies above M; per thread, count those
	// in its top epoch. The own thread's closed epochs are all covered
	// below.
	v, raised := l.m, false
	for _, ed := range in {
		k := l.key[ed.From]
		switch {
		case k.th == u:
		case l.cnt[k.th] == 0:
			l.touched = append(l.touched, k.th)
			fallthrough
		case k.ep > l.top[k.th]:
			l.top[k.th], l.cnt[k.th] = k.ep, 1
		case k.ep == l.top[k.th]:
			l.cnt[k.th]++
		}
	}
	for _, w := range l.touched {
		f := l.top[w]
		if int64(f) < b.k.Thread(l.tids[w]).Epoch && l.cnt[w] == l.epochLen[w][f] && f > v[w] {
			v[w], raised = f, true
		}
		l.cnt[w] = 0
	}
	l.touched = l.touched[:0]
	if ep-1 > v[u] {
		v[u], raised = ep-1, true
	}
	k := l.mLab
	if raised || k < 0 {
		k = l.intern(v)
	}
	l.nodeLab[id] = k
	return k
}

// epochLabel returns the join of the labels of the persists in ids, a
// thread's EpochMax.
func (b *builder) epochLabel(ids nodeVec) int32 {
	l := &b.lab
	if !l.on || len(ids) == 0 {
		return 0
	}
	if len(ids) == 1 {
		return l.nodeLab[ids[0]]
	}
	v := l.tmp
	for i := range v {
		v[i] = -1
	}
	for _, id := range ids {
		l.fold(v, l.nodeLab[id])
	}
	return l.intern(v)
}

// persistLabeled is Persist in a labeled build. It counts every
// distinct source, for Fig 2's class counts, but keeps an edge only
// from the sources the cover M leaves undominated; then it labels the
// persist. The kept edges gather in scratch and are copied into the
// slab at their final count, so the slab is not reserved for the far
// more numerous candidates. The epoch models bind at barriers, so the
// Immediate branch of Persist never applies.
func (b *builder) persistLabeled(e trace.Event, t *core.Thread[vset], blocks []*core.Block[vset]) vset {
	id := b.g.AddNode("", e)
	b.nextStamp()
	cover := b.cover(t, blocks)
	// A dense active set is served by addActive and left unmarked; act
	// is then that set, and inAct counts the block sources in it.
	act, inAct := t.Active.ids, 0
	if !act.dense() {
		act = nil
	}
	buf, mark, stamp, classes, keys := b.stage[:0], b.mark, b.stamp, &b.g.classes, b.lab.key
	add := func(from NodeID, class EdgeClass) {
		if mark[from] != stamp {
			mark[from] = stamp
			classes[class]++
			if act != nil && act.has(from) {
				inAct++
			}
			if k := keys[from]; k.ep > cover[k.th] {
				buf = append(buf, Edge{From: from, Class: class})
			}
		}
	}
	each := func(v nodeVec, class EdgeClass) {
		if v.dense() {
			var n int
			buf, n = b.addDenseCovered(buf, v, class, cover, act)
			inAct += n
			return
		}
		for _, from := range v {
			add(from, class)
		}
	}
	// The classes and their order are Persist's.
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
		buf = b.addActive(buf, e.TID, t.Active, cover, inAct)
	} else {
		each(t.Active.ids, ProgramOrder)
	}
	b.stage = buf
	in := b.commitEdges(append(b.reserveEdges(len(buf)), buf...))
	b.g.Nodes[id].In = in
	lab := b.nodeLabel(e, t, id, in)
	b.settle(t, id, act)
	return b.fresh(b.single(id), lab)
}

// addDenseCovered is addDense for a labeled build: it marks and counts
// every new source of the dense vec v, but appends an edge only from
// those the cover M leaves undominated. It also returns how many of
// the new sources are members of act (nil: none).
func (b *builder) addDenseCovered(buf []Edge, v nodeVec, class EdgeClass, cover []int32, act nodeVec) ([]Edge, int) {
	mark, stamp, keys := b.mark, b.stamp, b.lab.key
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
				if k := keys[from]; k.ep > cover[k.th] {
					buf = append(buf, Edge{From: from, Class: class})
				}
			}
		}
		base += 1 << wordShift
	}
	b.g.classes[class] += found
	return buf, inAct
}

// addActive appends to buf the program-order edges of a persist by
// thread tid from its dense active set act: one from every member that
// is not a marked block source (inAct of the members are) and that the
// cover M does not dominate. A thread's active set changes only at its
// barriers, so every persist of an epoch shares it, and every cover M
// of those persists includes the set's own label: the members that
// label leaves undominated are found once per version, and the rest
// are only counted, for Fig 2. On write-only KV traces, where active
// sets hold thousands of members, this walk-once is what keeps a build
// from scanning every member at every persist (EXPERIMENTS.md, "Cover
// labels").
func (b *builder) addActive(buf []Edge, tid int32, act vset, cover []int32, inAct int) []Edge {
	l := &b.lab
	u := l.tidx[tid] - 1
	if l.survVer[u] != act.ver {
		lab, surv := l.label(b.labelOf(act)), l.surv[u][:0]
		base := NodeID(act.ids.lo() << wordShift)
		for _, w := range act.ids.words() {
			for bs := uint32(w); bs != 0; bs &= bs - 1 {
				id := base + NodeID(bits.TrailingZeros32(bs))
				if k := l.key[id]; k.ep > lab[k.th] {
					surv = append(surv, id)
				}
			}
			base += 1 << wordShift
		}
		l.surv[u], l.survVer[u] = surv, act.ver
	}
	b.g.classes[ProgramOrder] += act.ids.size() - inAct
	for _, id := range l.surv[u] {
		if k := l.key[id]; b.mark[id] != b.stamp && k.ep > cover[k.th] {
			buf = append(buf, Edge{From: id, Class: ProgramOrder})
		}
	}
	return buf
}
