package core

import (
	"fmt"

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

// Kernel applies the ordering rules of one model to a trace, event by
// event, for rules R over values V. The zero Kernel is ready for Reset.
type Kernel[V any, R Rules[V]] struct {
	rules R
	spec  Spec
	empty V
	gran  uint64
	// gen stamps the block tables' slots: a slot is live iff its stamp
	// equals gen. Reset bumps gen, invalidating all per-run state in
	// O(1) without clearing or reallocating the tables.
	gen uint64
	// threads is dense per-thread state indexed by TID (the execution
	// engine numbers threads from zero; Event.Validate bounds TIDs).
	threads []Thread[V]
	// trackV/trackP hold per-tracking-block state for the volatile and
	// persistent address spaces, indexed by block-id offset from each
	// space's base block.
	trackV, trackP table[Block[V]]
	// span is per-access scratch: the tracking blocks it spans.
	span []*Block[V]
	// events counts the events fed since Reset.
	events int64
}

// Reset readies k for a fresh trace under *p, which it validates and
// normalizes, with rules r and empty value empty. Allocated tables are
// kept for reuse.
func (k *Kernel[V, R]) Reset(p *Params, r R, empty V) error {
	if err := p.normalize(); err != nil {
		return err
	}
	k.rules, k.spec, k.empty, k.gran = r, p.Model.spec(), empty, p.TrackingGranularity
	k.gen++
	k.threads = k.threads[:0]
	init := Block[V]{Writer: empty, Reader: empty}
	k.trackV.reset(memory.BlockOf(memory.VolatileBase, k.gran), init)
	k.trackP.reset(memory.BlockOf(memory.PersistentBase, k.gran), init)
	k.events = 0
	return nil
}

// Spec returns the rule-table row of the model k runs.
func (k *Kernel[V, R]) Spec() Spec { return k.spec }

// Thread returns thread tid's state, or nil while the table has not
// grown to tid (no event of tid or a higher TID has been fed, so tid's
// state is empty). The pointer is valid until the next Feed.
func (k *Kernel[V, R]) Thread(tid int32) *Thread[V] {
	if uint(tid) >= uint(len(k.threads)) {
		return nil
	}
	return &k.threads[tid]
}

// thread returns thread tid's state, growing the dense table on first
// sight. The pointer is valid until the next thread call.
func (k *Kernel[V, R]) thread(tid int32) *Thread[V] {
	for int(tid) >= len(k.threads) {
		k.threads = append(k.threads, Thread[V]{Active: k.empty, Pending: k.empty, EpochMax: k.empty})
	}
	return &k.threads[tid]
}

// block returns the state of tracking block b.
func (k *Kernel[V, R]) block(b memory.BlockID) *Block[V] {
	if b >= k.trackP.base {
		return k.trackP.at(b, k.gen)
	}
	return k.trackV.at(b, k.gen)
}

// blocks returns the tracking blocks an access spans. The whole span
// lies in one address space (Event.Validate checks the range).
func (k *Kernel[V, R]) blocks(e trace.Event) []*Block[V] {
	first, last := memory.BlockSpan(e.Addr, int(e.Size), k.gran)
	tb := &k.trackV
	if first >= k.trackP.base {
		tb = &k.trackP
	}
	k.span = k.span[:0]
	for b := first; b <= last; b++ {
		k.span = append(k.span, tb.at(b, k.gen))
	}
	return k.span
}

// Feed validates one event and applies it in SC order. The state
// indexers rely on Validate's range checks.
func (k *Kernel[V, R]) Feed(e trace.Event) error { return k.feed(e, true) }

// feed is Feed, validating e only if validate is set; otherwise e must
// have passed Event.Validate. SimulateAll validates a trace in its
// first pass and replays it unvalidated in the others.
func (k *Kernel[V, R]) feed(e trace.Event, validate bool) error {
	if validate {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	k.events++
	switch e.Kind {
	case trace.Load:
		k.load(e)
	case trace.Store, trace.RMW:
		// An RMW has load semantics too, but its store semantics absorb
		// a superset of what the load would (reader and writer contexts
		// both), so one path covers it.
		if memory.IsPersistent(e.Addr) {
			k.persist(e)
		} else {
			k.volatileStore(e)
		}
	case trace.PersistBarrier, trace.PersistSync:
		// A sync (buffered strict persistency, §4.1) makes execution
		// wait for all of the thread's outstanding persists, so
		// everything the thread has observed binds under every model.
		t := k.thread(e.TID)
		if k.spec.Barriers || e.Kind == trace.PersistSync {
			k.rules.Bind(t)
		}
		t.Epoch++
		k.rules.EpochMark(e, t)
	case trace.NewStrand:
		t := k.thread(e.TID)
		if k.spec.Strands {
			k.rules.Clear(t)
		}
		t.Strand++
		k.rules.StrandMark(e, t)
	case trace.BeginWork, trace.EndWork:
		k.rules.WorkMark(e)
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
func (k *Kernel[V, R]) load(e trace.Event) {
	if !k.spec.VolatileConflicts && !memory.IsPersistent(e.Addr) {
		return
	}
	t := k.thread(e.TID)
	dst := &t.Pending
	if k.spec.Immediate {
		dst = &t.Active
	}
	for _, bs := range k.blocks(e) {
		k.rules.Import(dst, bs.Writer)
		if k.spec.LoadBeforeStore {
			bs.Reader = k.rules.Export(bs.Reader, t.Active)
		}
	}
}

// persist applies a store or RMW to the persistent space. The persist
// is ordered after every dependence its blocks carried, so it alone is
// each spanned block's new writer — keeping the writer single-sourced,
// which also makes it the block's last persist.
func (k *Kernel[V, R]) persist(e trace.Event) {
	blocks := k.blocks(e)
	w := k.rules.Persist(e, k.thread(e.TID), blocks)
	for _, bs := range blocks {
		// Field by field: a Block[V] composite literal compiles to a
		// stack copy that stalls on store forwarding.
		bs.Writer, bs.Reader = w, k.empty
	}
}

// volatileStore handles stores and RMWs to the volatile space: they
// create no persist but conflict with earlier accesses, propagating
// persist ordering through memory (this is how lock-protected persists
// become ordered across threads under strict and non-racing epoch).
func (k *Kernel[V, R]) volatileStore(e trace.Event) {
	if !k.spec.VolatileConflicts {
		return
	}
	t := k.thread(e.TID)
	dst := &t.Pending
	if k.spec.Immediate {
		dst = &t.Active
	}
	for _, bs := range k.blocks(e) {
		// The store inherits the block's dependences and exports them,
		// with the thread's own, to later conflicting accesses.
		inherit := k.rules.Join(bs.Writer, bs.Reader)
		k.rules.Import(dst, inherit)
		bs.Writer = k.rules.Export(inherit, t.Active)
		bs.Reader = k.empty
	}
}

// Per-block tables are paged through a memory.Pages: a block-id
// offset's low pageBits pick the slot within a fixed page and the rest
// number the page. Pages are allocated on first touch and never move,
// so a slot pointer stays valid for the table's lifetime and storage
// grows with the pages a trace touches. Pages are small because KV
// traces scatter their blocks over a large store: a fresh simulator
// fed a 16k-op kv-read trace (about 16k tracking blocks) allocated
// 26.6 MB of tables at 256 slots a page, 8.5 MB at 32 and 4.4 MB at 8,
// and the dense queue traces run no slower at 8; the graph builder's
// KV build allocates a tenth less at 8 slots than at 32. Small pages
// do not cost an allocation each: memory.Pages hands them out of slabs.
const (
	pageBits = 3 // 8 slots per page
	pageMask = 1<<pageBits - 1
)

// slot is one table entry with the generation that last initialized
// it: a slot whose stamp is not the table's current generation is
// stale and reinitializes on first touch, so a run writes only the
// slots it touches and each access reads one slot's memory.
type slot[S any] struct {
	val S
	gen uint64
}

// table holds per-block slots of one address space, indexed by
// block-id offset from the space's base.
type table[S any] struct {
	base  memory.BlockID
	init  S
	pages memory.Pages[[1 << pageBits]slot[S]]
}

func (tb *table[S]) reset(base memory.BlockID, init S) {
	tb.base, tb.init = base, init
}

// at returns block b's slot for generation gen, set to the table's
// initial value if it is new or left over from an earlier generation.
func (tb *table[S]) at(b memory.BlockID, gen uint64) *S {
	i := uint64(b - tb.base)
	pg := tb.pages.Get(i >> pageBits)
	if pg == nil {
		pg = tb.pages.Add(i >> pageBits)
	}
	e := &pg[i&pageMask]
	if e.gen != gen {
		e.val, e.gen = tb.init, gen
	}
	return &e.val
}
