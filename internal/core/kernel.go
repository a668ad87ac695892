package core

import (
	"fmt"
	"slices"

	"repro/internal/memory"
	"repro/internal/trace"
)

// The ordering kernel: §5's persist-ordering rules, written once for
// both consumers of an SC trace. core.Sim propagates scalar dependence
// contexts (Ctx) to time persists; the graph builder propagates sets of
// node ids to emit constraint edges. Both feed events through a Kernel,
// which validates each event, keeps per-thread and per-tracking-block
// state, and applies every rule that does not depend on what the value
// is: loads, volatile stores, barriers and syncs, new strands. What a
// persist does, and how values join, the consumer supplies as Rules.
//
// A Kernel walks one or more lanes. A lane is one model's run over the
// trace: its own Spec, Rules value and per-thread table, and its own
// Block in every tracking block's entry. The kernel validates, counts
// and resolves each event's tracking blocks once, then applies the
// rules lane by lane, so several models share one walk of a trace:
// SimulateAll runs the four models as four lanes, while Simulate, a
// streaming Sim and the graph builder run one.

// Spec is one model's row of the rule table: the switches that
// distinguish the persistency models.
type Spec struct {
	// Immediate: conflicts and own persists bind the thread's active
	// dependence immediately (strict persistency couples persistency to
	// SC program order). When false, they bind at the next barrier.
	Immediate bool
	// Barriers: persist barriers separate epochs (epoch/strand).
	Barriers bool
	// Strands: NewStrand clears thread dependence state.
	Strands bool
	// LoadBeforeStore: track reader contexts so a store after a remote
	// load is ordered (SC conflict ordering). BPFS cannot (§5.2).
	LoadBeforeStore bool
	// VolatileConflicts: conflicts on volatile addresses propagate
	// persist order. BPFS tracks only the persistent space (§5.2).
	VolatileConflicts bool
}

// specs is the rule table, indexed by Model.
var specs = [...]Spec{
	Strict:   {Immediate: true, LoadBeforeStore: true, VolatileConflicts: true},
	Epoch:    {Barriers: true, LoadBeforeStore: true, VolatileConflicts: true},
	EpochTSO: {Barriers: true},
	Strand:   {Barriers: true, Strands: true, LoadBeforeStore: true, VolatileConflicts: true},
}

// spec returns the model's rule-table row; Params.normalize rejects
// models outside the table.
func (m Model) spec() Spec { return specs[m] }

// Thread is one thread's ordering state.
type Thread[V any] struct {
	// Active holds dependences that bind new persists immediately:
	// under strict persistency everything lands here; under epoch and
	// strand persistency it advances only at persist barriers.
	Active V
	// Pending holds conflict-observed dependences within the current
	// epoch; they bind persists only after the next barrier (§5.2:
	// same-epoch persists after a conflicting load are *not* ordered —
	// the "astonishing" semantics racing epochs exploit).
	Pending V
	// EpochMax holds the persists issued in the current epoch; program
	// order across a barrier orders them before the next epoch's.
	EpochMax V
	// Epoch counts the thread's PersistBarrier and PersistSync events
	// and Strand its NewStrand events, under every model, so probes see
	// the annotation structure even where the model ignores it.
	Epoch, Strand int64
}

// Block is one tracking block's ordering state.
type Block[V any] struct {
	// Writer is what stores to this block made visible: a conflicting
	// later access is ordered after it. In the persistent space only a
	// persist sets it, to that persist alone, so there it is also the
	// block's most recent persist: the source of strong persist
	// atomicity, which orders same-block persists under every model
	// (and makes coarse tracking false sharing).
	Writer V
	// Reader accumulates what threads that loaded this block since the
	// last store depended on; a subsequent store conflicts with those
	// loads (load-before-store, the SC-vs-TSO distinction).
	Reader V
}

// Rules supplies a kernel's value-specific steps. Values a thread owns
// (its Thread fields) may be updated in place; values stored in a
// Block are shared and must not be.
type Rules[V any] interface {
	// Import joins src into the thread-owned *dst.
	Import(dst *V, src V)
	// Export returns block value v joined with thread-owned value t,
	// as a block value that shares no storage with t.
	Export(v, t V) V
	// Join returns the join of two block values.
	Join(a, b V) V
	// Bind folds the thread's Pending and EpochMax into Active at a
	// persist barrier or sync, leaving them empty.
	Bind(t *Thread[V])
	// Clear empties the thread's dependences at a NewStrand under
	// strand persistency.
	Clear(t *Thread[V])
	// Persist applies a store or RMW to the persistent space and
	// returns the persist's own value. blocks are the tracking blocks
	// it spans, in ascending order; the slice is the kernel's scratch,
	// valid until the next event.
	Persist(e trace.Event, t *Thread[V], blocks []*Block[V]) V
	// EpochMark observes a PersistBarrier or PersistSync after the
	// kernel applied it, StrandMark a NewStrand, and WorkMark a
	// BeginWork or EndWork.
	EpochMark(e trace.Event, t *Thread[V])
	StrandMark(e trace.Event, t *Thread[V])
	WorkMark(e trace.Event)
}

// lane is one model's run in a Kernel: its rule-table row, its rules
// and its thread table, dense per-thread state indexed by TID (the
// execution engine numbers threads from zero; Event.Validate bounds
// TIDs).
type lane[V any, R Rules[V]] struct {
	rules   R
	spec    Spec
	threads []Thread[V]
}

// Kernel applies the ordering rules of one or more models to a trace,
// event by event, for rules R over values V, one lane per model. The
// zero Kernel is ready for Reset.
type Kernel[V any, R Rules[V]] struct {
	lanes []lane[V, R]
	empty V
	gran  uint64
	// volatile is set when some lane tracks volatile conflicts, so
	// volatile accesses need their tracking blocks.
	volatile bool
	// trackV/trackP hold per-tracking-block state for the volatile and
	// persistent address spaces, one Block per lane in each entry.
	trackV, trackP table[Block[V]]
	// span is per-access scratch: the tracking blocks it spans, lane
	// by lane (see blocks).
	span []*Block[V]
	// events counts the events fed since Reset.
	events int64
}

// Reset readies k for a fresh trace with one lane, running p.Model
// with rules r and empty value empty; it validates and normalizes *p.
// Allocated tables are kept for reuse.
func (k *Kernel[V, R]) Reset(p *Params, r R, empty V) error {
	if err := k.reset(p, empty, 1); err != nil {
		return err
	}
	k.setLane(0, p.Model, r)
	return nil
}

// reset readies k for a fresh trace of n lanes under *p's
// granularities, which it validates and normalizes; setLane then gives
// each lane its model and rules. n is at most chunkLen.
func (k *Kernel[V, R]) reset(p *Params, empty V, n int) error {
	if err := p.normalize(); err != nil {
		return err
	}
	k.empty, k.gran, k.volatile = empty, p.TrackingGranularity, false
	// Reslicing within the capacity keeps earlier lanes' thread tables.
	if n > cap(k.lanes) {
		k.lanes = append(k.lanes[:cap(k.lanes)], make([]lane[V, R], n-cap(k.lanes))...)
	}
	k.lanes = k.lanes[:n]
	for i := range k.lanes {
		k.lanes[i].threads = k.lanes[i].threads[:0]
	}
	init := Block[V]{Writer: empty, Reader: empty}
	k.trackV.reset(memory.BlockOf(memory.VolatileBase, k.gran), init, n)
	k.trackP.reset(memory.BlockOf(memory.PersistentBase, k.gran), init, n)
	k.events = 0
	return nil
}

// setLane makes lane i run model m with rules r.
func (k *Kernel[V, R]) setLane(i int, m Model, r R) {
	l := &k.lanes[i]
	l.rules, l.spec = r, m.spec()
	k.volatile = k.volatile || l.spec.VolatileConflicts
}

// Spec returns the rule-table row of the model k's first lane runs.
func (k *Kernel[V, R]) Spec() Spec { return k.lanes[0].spec }

// Thread returns thread tid's state in k's first lane, or nil while
// the table has not grown to tid (no event of tid or a higher TID has
// been fed, so tid's state is empty). The pointer is valid until the
// next Feed.
func (k *Kernel[V, R]) Thread(tid int32) *Thread[V] {
	t := k.lanes[0].threads
	if uint(tid) >= uint(len(t)) {
		return nil
	}
	return &t[tid]
}

// thread returns thread tid's state in lane l, growing the lane's
// dense table on first sight. The pointer is valid until the next
// thread call.
func (k *Kernel[V, R]) thread(l *lane[V, R], tid int32) *Thread[V] {
	for int(tid) >= len(l.threads) {
		l.threads = append(l.threads, Thread[V]{Active: k.empty, Pending: k.empty, EpochMax: k.empty})
	}
	return &l.threads[tid]
}

// block returns tracking block b's values, one per lane.
func (k *Kernel[V, R]) block(b memory.BlockID) []Block[V] {
	if b >= k.trackP.base {
		return k.trackP.at(b)
	}
	return k.trackV.at(b)
}

// blocks finds the n tracking blocks an access spans, once for every
// lane, and returns n; lane i's blocks are then k.span[i*n:(i+1)*n],
// in ascending order. The whole span lies in one address space
// (Event.Validate checks the range).
func (k *Kernel[V, R]) blocks(e trace.Event) int {
	first, last := memory.BlockSpan(e.Addr, int(e.Size), k.gran)
	tb := &k.trackV
	if first >= k.trackP.base {
		tb = &k.trackP
	}
	if first == last && len(k.lanes) == 1 {
		// One lane, one block: the common access of a one-model run.
		k.span = append(k.span[:0], &tb.at(first)[0])
		return 1
	}
	n := int(last-first) + 1
	k.span = slices.Grow(k.span[:0], n*len(k.lanes))[:n*len(k.lanes)]
	for j := range n {
		vals := tb.at(first + memory.BlockID(j))
		for i := range vals {
			k.span[i*n+j] = &vals[i]
		}
	}
	return n
}

// Feed validates one event and applies it in SC order in every lane.
// The state indexers rely on Validate's range checks.
func (k *Kernel[V, R]) Feed(e trace.Event) error {
	if !e.Valid() {
		return e.Validate()
	}
	return k.step(e)
}

// step is Feed for an event that passed Event.Validate.
func (k *Kernel[V, R]) step(e trace.Event) error {
	k.events++
	switch e.Kind {
	case trace.Load:
		if k.volatile || memory.IsPersistent(e.Addr) {
			k.load(e, k.blocks(e))
		}
	case trace.Store, trace.RMW:
		// An RMW has load semantics too, but its store semantics absorb
		// a superset of what the load would (reader and writer contexts
		// both), so one path covers it.
		if memory.IsPersistent(e.Addr) {
			k.persist(e, k.blocks(e))
		} else if k.volatile {
			k.volatileStore(e, k.blocks(e))
		}
	case trace.PersistBarrier, trace.PersistSync:
		// A sync (buffered strict persistency, §4.1) makes execution
		// wait for all of the thread's outstanding persists, so
		// everything the thread has observed binds under every model.
		for i := range k.lanes {
			l := &k.lanes[i]
			t := k.thread(l, e.TID)
			if l.spec.Barriers || e.Kind == trace.PersistSync {
				l.rules.Bind(t)
			}
			t.Epoch++
			l.rules.EpochMark(e, t)
		}
	case trace.NewStrand:
		for i := range k.lanes {
			l := &k.lanes[i]
			t := k.thread(l, e.TID)
			if l.spec.Strands {
				l.rules.Clear(t)
			}
			t.Strand++
			l.rules.StrandMark(e, t)
		}
	case trace.BeginWork, trace.EndWork:
		for i := range k.lanes {
			k.lanes[i].rules.WorkMark(e)
		}
	case trace.Malloc, trace.Free:
		// No ordering significance. (Reusing freed persistent memory
		// legitimately inherits the old block's persist state: addresses
		// are physical.)
	default:
		return fmt.Errorf("core: unhandled event kind %v", e.Kind)
	}
	return nil
}

// load imports the writer of each spanned block into the thread
// (immediately under strict, pending-until-barrier otherwise) and
// records the thread's active dependences as the block's reader, for
// later load-before-store conflicts.
func (k *Kernel[V, R]) load(e trace.Event, n int) {
	persistent := memory.IsPersistent(e.Addr)
	for i := range k.lanes {
		l := &k.lanes[i]
		if !l.spec.VolatileConflicts && !persistent {
			continue
		}
		t := k.thread(l, e.TID)
		dst := &t.Pending
		if l.spec.Immediate {
			dst = &t.Active
		}
		for _, bs := range k.span[i*n : (i+1)*n] {
			l.rules.Import(dst, bs.Writer)
			if l.spec.LoadBeforeStore {
				bs.Reader = l.rules.Export(bs.Reader, t.Active)
			}
		}
	}
}

// persist applies a store or RMW to the persistent space. The persist
// is ordered after every dependence its blocks carried, so it alone is
// each spanned block's new writer — keeping the writer single-sourced,
// which also makes it the block's last persist.
func (k *Kernel[V, R]) persist(e trace.Event, n int) {
	for i := range k.lanes {
		l := &k.lanes[i]
		blocks := k.span[i*n : (i+1)*n]
		w := l.rules.Persist(e, k.thread(l, e.TID), blocks)
		for _, bs := range blocks {
			// Field by field: a Block[V] composite literal compiles to
			// a stack copy that stalls on store forwarding.
			bs.Writer, bs.Reader = w, k.empty
		}
	}
}

// volatileStore handles stores and RMWs to the volatile space: they
// create no persist but conflict with earlier accesses, propagating
// persist ordering through memory (this is how lock-protected persists
// become ordered across threads under strict and non-racing epoch).
func (k *Kernel[V, R]) volatileStore(e trace.Event, n int) {
	for i := range k.lanes {
		l := &k.lanes[i]
		if !l.spec.VolatileConflicts {
			continue
		}
		t := k.thread(l, e.TID)
		dst := &t.Pending
		if l.spec.Immediate {
			dst = &t.Active
		}
		for _, bs := range k.span[i*n : (i+1)*n] {
			// The store inherits the block's dependences and exports
			// them, with the thread's own, to later conflicting
			// accesses.
			inherit := l.rules.Join(bs.Writer, bs.Reader)
			l.rules.Import(dst, inherit)
			bs.Writer = l.rules.Export(inherit, t.Active)
			bs.Reader = k.empty
		}
	}
}

// Per-block state lives in dense storage behind a sparse index. The
// index is a memory.Pages of 8-byte slots: a block-id offset's low
// pageBits pick the slot within a fixed page and the rest number the
// page. A slot numbers its block's first value; a block's lanes values
// are consecutive in one chunk of chunkLen values, handed out as blocks
// are first touched, so storage follows the blocks a trace touches,
// not the pages they fall in. A 16k-op kv-read trace touches 15,867
// tracking blocks, a third of the slots of the 8-slot pages they fall
// in: four lanes of 64-byte blocks kept in such pages would take about
// 12 MB (5,809 pages of 264-byte slots), while a fresh four-lane
// simulator's tables take 5.9 MB here, atoms included, and a one-lane
// simulator's 2.3 MB (4.4 MB in the 72-byte slots of 8-slot pages).
// Pages and chunks never move, so a value pointer stays valid for the
// table's lifetime; small pages do not cost an allocation each, since
// memory.Pages hands them out of slabs.
const (
	pageBits = 4 // 16 slots per page
	pageMask = 1<<pageBits - 1
	chunkLen = 256 // values per chunk: 16 KiB of 64-byte blocks
)

// slot is one block's index entry: its values start at number idx of
// the table's value storage. gen is the table generation that last
// filled it: a slot whose stamp is not the table's current generation
// is stale, and takes fresh values on first touch, so a run writes
// only the slots it touches.
type slot struct{ idx, gen uint32 }

// table holds per-block state of one address space, indexed by
// block-id offset from the space's base, lanes values per block.
type table[S any] struct {
	base  memory.BlockID
	init  S
	lanes int
	// gen is the current generation: reset bumps it, invalidating
	// every slot in O(1) without clearing or reallocating the index.
	gen   uint32
	index memory.Pages[[1 << pageBits]slot]
	// chunks is the value storage, kept across resets: value number n
	// is chunks[n/chunkLen][n%chunkLen], and the current run has handed
	// out the first next values.
	chunks []*[chunkLen]S
	next   uint32
}

// reset readies tb for a fresh run of lanes values per block, each
// starting at init.
func (tb *table[S]) reset(base memory.BlockID, init S, lanes int) {
	tb.base, tb.init, tb.lanes, tb.next = base, init, lanes, 0
	tb.gen++
	if tb.gen == 0 {
		// Wrapped: slots stamped with the generations to come may
		// still be in the index.
		tb.index.Each(func(_ uint64, pg *[1 << pageBits]slot) { *pg = [1 << pageBits]slot{} })
		tb.gen = 1
	}
}

// at returns block b's values for the current generation, one per
// lane, filling them afresh if the block is new or left over from an
// earlier generation.
func (tb *table[S]) at(b memory.BlockID) []S {
	i := uint64(b - tb.base)
	pg := tb.index.Get(i >> pageBits)
	if pg == nil {
		pg = tb.index.Add(i >> pageBits)
	}
	sl := &pg[i&pageMask]
	if sl.gen != tb.gen {
		return tb.fill(sl)
	}
	off := sl.idx % chunkLen
	return tb.chunks[sl.idx/chunkLen][off : off+uint32(tb.lanes)]
}

// fill points sl at the next lanes values of storage, in one chunk,
// sets them to the table's initial value and returns them.
func (tb *table[S]) fill(sl *slot) []S {
	n := uint32(tb.lanes)
	if tb.next%chunkLen+n > chunkLen {
		tb.next += chunkLen - tb.next%chunkLen
	}
	if int(tb.next/chunkLen) == len(tb.chunks) {
		tb.chunks = append(tb.chunks, new([chunkLen]S))
	}
	off := tb.next % chunkLen
	vals := tb.chunks[tb.next/chunkLen][off : off+n]
	for i := range vals {
		vals[i] = tb.init
	}
	sl.idx, sl.gen = tb.next, tb.gen
	tb.next += n
	return vals
}
