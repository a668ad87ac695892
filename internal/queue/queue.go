// Package queue implements the paper's motivating microbenchmark: a
// thread-safe persistent queue (§6, Algorithm 1), in both designs —
// Copy While Locked (CWL) and Two-Lock Concurrent (2LC) — annotated for
// each persistency model, plus the recovery procedure and a native
// (non-simulated) variant used to measure instruction execution rate.
//
// The queue is a circular buffer in the persistent address space with
// persistent head and tail pointers holding monotonically increasing
// byte offsets. An entry occupies a 64-byte-aligned slot (the paper
// pads inserts to 64 bytes to avoid false sharing, §7):
//
//	[ length 8B | payload … | checksum 8B | pad to 64B ]
//
// The checksum (FNV-1a over the monotonic offset, length, and payload)
// is this reproduction's addition: the recovery observer uses it to
// *detect* states that violate recovery correctness, which the paper
// argues about but does not mechanically check. An entry is recoverable
// iff the head pointer encompasses its slot — exactly the paper's
// recovery rule ("an entry is not valid and recoverable until the head
// pointer encompasses the associated portion of the data segment").
package queue

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/locks"
	"repro/internal/memory"
)

// Design selects the queue implementation from §6.
type Design uint8

const (
	// CWL is Copy While Locked: one lock serializes inserts; each
	// insert persists the entry then the head pointer.
	CWL Design = iota
	// TwoLock is Two-Lock Concurrent: a reserve lock allocates data
	// segment space, entries persist outside any lock, and an update
	// lock orders head-pointer advancement via a volatile insert list.
	TwoLock
)

// String names the design as in the paper.
func (d Design) String() string {
	switch d {
	case CWL:
		return "copy-while-locked"
	case TwoLock:
		return "two-lock-concurrent"
	default:
		return fmt.Sprintf("design(%d)", uint8(d))
	}
}

const (
	// SlotAlign is the entry slot alignment (§7: 64-byte padding).
	SlotAlign = 64
	// headerBytes is the entry length word.
	headerBytes = 8
	// checksumBytes trails the payload.
	checksumBytes = 8
	// wrapMarker in a length word tells recovery the writer skipped to
	// the start of the buffer because the entry would have straddled the
	// wrap point.
	wrapMarker = ^uint64(0)
	// MaxPayload bounds payload length (keeps length words sane for
	// recovery validation).
	MaxPayload = 1 << 20
)

// checksumOffset returns the entry-relative offset of the checksum
// word. It is 8-byte aligned so the checksum persist never shares a
// word with the payload's tail — word sharing would order the two
// persists through strong persist atomicity, an avoidable intra-entry
// false dependence (§8.2's false-sharing effect at layout scale).
func checksumOffset(payloadLen int) uint64 {
	return uint64(memory.AlignUp(memory.Addr(headerBytes+payloadLen), memory.WordSize))
}

// SlotBytes returns the aligned slot size for a payload length.
func SlotBytes(payloadLen int) uint64 {
	return uint64(memory.AlignUp(memory.Addr(checksumOffset(payloadLen)+checksumBytes), SlotAlign))
}

// Config parameterizes a queue.
type Config struct {
	// DataBytes is the data segment capacity; multiple of SlotAlign.
	DataBytes uint64
	// Design selects CWL or TwoLock.
	Design Design
	// Policy selects the annotation discipline.
	Policy core.Policy
	// MaxThreads bounds concurrent inserters (sizes the 2LC insert
	// list). Zero means 16.
	MaxThreads int
	// BreakDataHeadOrder omits the data→head persist barrier
	// (Algorithm 1 lines 8 and 27). For negative testing only: under
	// relaxed persistency the recovery observer can then see a head
	// pointer covering an entry that never persisted.
	BreakDataHeadOrder bool
	// Fences emits a store-visibility fence (exec.Thread.Fence) at each
	// annotation point. Required for recovery correctness on
	// relaxed-consistency (PSO) machines: persist barriers constrain
	// persists with respect to *visible* store order (§4.2), so a head
	// store that becomes visible before the entry's stores defeats the
	// barrier. No-ops under SC.
	Fences bool
	// Overwrite runs the queue as an unbounded log, as the paper's
	// insert-only evaluation does (100M inserts through a circular
	// buffer): the capacity check is skipped and old entries are
	// overwritten once the buffer wraps. Remove and Recover are only
	// meaningful while head−tail ≤ DataBytes, so overwrite mode is for
	// throughput benchmarking, not crash testing.
	Overwrite bool
	// OmitCompletionBarrier omits the completion barrier this
	// reproduction adds to Two-Lock Concurrent between the entry copy
	// and the update-lock acquisition. Algorithm 1 as printed has no
	// barrier there, but without one a *non-oldest* insert's data
	// persists are never bound into persistent memory order before its
	// insert-list "done" store, so another thread's head persist can
	// cover the entry while its data is still buffered — a reachable
	// corruption our crash tests demonstrate (see EXPERIMENTS.md).
	OmitCompletionBarrier bool
	// Integrity hardens the durable format against media corruption
	// (internal/durable): head and tail become dual-copy durable words
	// behind corruption-detecting booleans, and entries become
	// CRC64-framed records. Recovery then *detects* silent bit errors
	// instead of trusting them. Costs extra persists per pointer update
	// (the copy + CDB flip) and per entry (CRC64 vs the light checksum);
	// the simulator's persist counts expose the overhead.
	Integrity bool
}

// Meta locates a queue's persistent structures; recovery needs it after
// a crash (a real system would store it at a well-known NVRAM address).
// With Integrity set, Head and Tail are the bases of 40-byte durable
// words (dual copies behind a CDB) rather than plain 8-byte offsets,
// and entries carry CRC64 frame checksums.
type Meta struct {
	Head      memory.Addr
	Tail      memory.Addr
	Data      memory.Addr
	DataBytes uint64
	Integrity bool
}

// Queue is the simulated-machine persistent queue.
type Queue struct {
	cfg  Config
	meta Meta

	// CWL lock.
	queueLock *locks.MCS
	// 2LC locks and volatile insert list.
	reserveLock *locks.MCS
	updateLock  *locks.MCS
	list        *insertList
	// headV is the 2LC volatile head reservation cursor.
	headV memory.Addr
}

// New allocates and initializes a queue using a setup thread. The
// initializing persists (head and tail zero) are part of the trace.
func New(s *exec.Thread, cfg Config) (*Queue, error) {
	if cfg.DataBytes == 0 || cfg.DataBytes%SlotAlign != 0 {
		return nil, fmt.Errorf("queue: DataBytes %d must be a positive multiple of %d", cfg.DataBytes, SlotAlign)
	}
	if cfg.DataBytes < 2*SlotAlign {
		return nil, fmt.Errorf("queue: DataBytes %d too small", cfg.DataBytes)
	}
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 16
	}
	q := &Queue{cfg: cfg}
	ptrBytes := int(memory.WordSize)
	if cfg.Integrity {
		ptrBytes = durable.WordBytes
	}
	q.meta = Meta{
		Head:      s.MallocPersistent(ptrBytes, SlotAlign),
		Tail:      s.MallocPersistent(ptrBytes, SlotAlign),
		Data:      s.MallocPersistent(int(cfg.DataBytes), SlotAlign),
		DataBytes: cfg.DataBytes,
		Integrity: cfg.Integrity,
	}
	if cfg.Integrity {
		durable.Word{Base: q.meta.Head}.Init(s, 0)
		durable.Word{Base: q.meta.Tail}.Init(s, 0)
	} else {
		s.Store8(q.meta.Head, 0)
		s.Store8(q.meta.Tail, 0)
	}
	s.PersistBarrier()
	switch cfg.Design {
	case CWL:
		q.queueLock = locks.NewMCS(s)
	case TwoLock:
		q.reserveLock = locks.NewMCS(s)
		q.updateLock = locks.NewMCS(s)
		q.list = newInsertList(s, 2*cfg.MaxThreads)
		q.headV = s.MallocVolatile(memory.WordSize, SlotAlign)
		s.Store8(q.headV, 0)
	default:
		return nil, fmt.Errorf("queue: unknown design %v", cfg.Design)
	}
	return q, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(s *exec.Thread, cfg Config) *Queue {
	q, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Meta returns the queue's persistent layout for recovery.
func (q *Queue) Meta() Meta { return q.meta }

// Config returns the queue's configuration.
func (q *Queue) Config() Config { return q.cfg }

// annotation helpers: which Algorithm 1 barriers each core.Policy
// emits. Under racing epochs, entries race but head-pointer persists
// stay ordered through strong persist atomicity.
// With Fences set, each annotation point also fences store visibility
// (needed on PSO machines; strict persistency relies on the fences
// alone there, since visible order is all it has).

func (q *Queue) fence(t *exec.Thread) {
	if q.cfg.Fences {
		t.Fence()
	}
}

func (q *Queue) barrierOuter(t *exec.Thread) { // lines 3 and 13
	q.fence(t)
	if q.cfg.Policy != core.PolicyStrict {
		t.PersistBarrier()
	}
}

func (q *Queue) barrierInner(t *exec.Thread) { // lines 5 and 11 ("removing allows race")
	q.fence(t)
	if q.cfg.Policy == core.PolicyEpoch || q.cfg.Policy == core.PolicyStrand {
		t.PersistBarrier()
	}
}

func (q *Queue) barrierMid(t *exec.Thread) { // lines 8 and 27 (data → head)
	q.fence(t)
	if q.cfg.Policy != core.PolicyStrict && !q.cfg.BreakDataHeadOrder {
		t.PersistBarrier()
	}
}

func (q *Queue) barrierCompletion(t *exec.Thread) { // 2LC, between lines 22 and 23
	q.fence(t)
	if q.cfg.Policy != core.PolicyStrict && !q.cfg.OmitCompletionBarrier {
		t.PersistBarrier()
	}
}

func (q *Queue) newStrand(t *exec.Thread) { // lines 6 and 21
	if q.cfg.Policy == core.PolicyStrand {
		t.NewStrand()
	}
}

// Pointer accessors: with integrity enabled, head and tail live in
// dual-copy durable words whose commit point is the CDB flip at the
// word's base — the same address the plain layout keeps the offset at,
// so the strand-ordering read below needs no dispatch. The durable
// store emits its own internal barriers under every non-strict policy
// (including racing-epochs, whose entries otherwise rely on same-word
// persist atomicity that a multi-word pointer no longer has).

func (q *Queue) relaxed() bool { return q.cfg.Policy != core.PolicyStrict }

func (q *Queue) loadHead(t *exec.Thread) uint64 {
	if q.cfg.Integrity {
		return durable.Word{Base: q.meta.Head}.Load(t)
	}
	return t.Load8(q.meta.Head)
}

func (q *Queue) storeHead(t *exec.Thread, v uint64) {
	if q.cfg.Integrity {
		durable.Word{Base: q.meta.Head}.Store(t, v, q.relaxed())
		return
	}
	t.Store8(q.meta.Head, v)
}

func (q *Queue) loadTail(t *exec.Thread) uint64 {
	if q.cfg.Integrity {
		return durable.Word{Base: q.meta.Tail}.Load(t)
	}
	return t.Load8(q.meta.Tail)
}

func (q *Queue) storeTail(t *exec.Thread, v uint64) {
	if q.cfg.Integrity {
		durable.Word{Base: q.meta.Tail}.Store(t, v, q.relaxed())
		return
	}
	t.Store8(q.meta.Tail, v)
}

// strandOrderingRead applies §5.3's recipe after NewStrand: every
// persist of this insert — the entry overwrites slots freed by Remove,
// and the head pointer widens the live window — must stay ordered
// after the tail persist whose space it reuses, or a crash can expose
// head−tail beyond the buffer capacity or stale-tail scans over
// overwritten slots. The read imports the dependence; the barrier
// binds it before the entry's persists.
func (q *Queue) strandOrderingRead(t *exec.Thread) {
	if q.cfg.Policy == core.PolicyStrand {
		t.Load8(q.meta.Tail)
		t.PersistBarrier()
	}
}

// Insert appends payload to the queue, following Algorithm 1 for the
// configured design. It returns the entry's monotonic offset. Insert
// panics if the queue is full (callers size DataBytes for the
// workload; a bounded-blocking variant would simply retry).
func (q *Queue) Insert(t *exec.Thread, payload []byte) uint64 {
	if len(payload) == 0 || len(payload) > MaxPayload {
		panic(fmt.Sprintf("queue: bad payload length %d", len(payload)))
	}
	switch q.cfg.Design {
	case CWL:
		return q.insertCWL(t, payload)
	default:
		return q.insert2LC(t, payload)
	}
}

// insertCWL is Algorithm 1's InsertCWL. The head read and the capacity
// check run between the lock acquire and the inner barrier — a
// non-persisting epoch — so the persist-ordering context they import
// binds at the line 5 barrier and the insert stays free of
// persist-epoch races under the non-racing discipline (core's race
// detector verifies this).
func (q *Queue) insertCWL(t *exec.Thread, payload []byte) uint64 {
	q.barrierOuter(t)      // line 3
	q.queueLock.Acquire(t) // line 4
	head := q.loadHead(t)
	pos := q.skipWrap(t, head, SlotBytes(len(payload)), false)
	newHead := pos + SlotBytes(len(payload))
	q.checkCapacity(t, newHead)
	q.barrierInner(t) // line 5
	q.newStrand(t)    // line 6
	q.strandOrderingRead(t)
	if pos != head {
		// Persist the wrap marker alongside the entry's persists.
		t.Store8(q.meta.Data+memory.Addr(head%q.cfg.DataBytes), wrapMarker)
	}
	q.writeEntryAt(t, pos, payload) // line 7: COPY(data[head], ...)
	q.barrierMid(t)                 // line 8
	q.storeHead(t, newHead)         // line 9: head persist
	q.barrierInner(t)               // line 11
	q.queueLock.Release(t)          // line 12
	q.barrierOuter(t)               // line 13
	return pos
}

// insert2LC is Algorithm 1's Insert2LC.
func (q *Queue) insert2LC(t *exec.Thread, payload []byte) uint64 {
	slot := SlotBytes(len(payload))

	q.reserveLock.Acquire(t) // line 17
	start := t.Load8(q.headV)
	// Pre-skip the wrap filler while reserving so offsets stay exact.
	start = q.skipWrap(t, start, slot, true)
	end := start + slot
	t.Store8(q.headV, end) // line 18
	node := q.list.append(t, end)
	q.checkCapacity(t, end)
	q.reserveLock.Release(t) // line 20

	q.newStrand(t) // line 21
	q.strandOrderingRead(t)
	q.writeEntryAt(t, start, payload) // line 22
	q.barrierCompletion(t)            // binds this entry's persists before "done"

	q.updateLock.Acquire(t) // line 23
	oldest, newHead := q.list.remove(t, node)
	if oldest { // line 26
		q.barrierMid(t)         // line 27
		q.storeHead(t, newHead) // line 28
	}
	q.updateLock.Release(t) // line 31
	return start
}

// checkCapacity panics when an insert would overwrite live entries
// (unless the queue runs as an overwriting log).
func (q *Queue) checkCapacity(t *exec.Thread, newHead uint64) {
	if q.cfg.Overwrite {
		return
	}
	tail := q.loadTail(t)
	if newHead-tail > q.cfg.DataBytes {
		panic(fmt.Sprintf("queue: full (head %d, tail %d, capacity %d)", newHead, tail, q.cfg.DataBytes))
	}
}

// skipWrap advances pos past the buffer end when an entry of slot bytes
// would straddle it, writing a wrap marker for recovery. When persist
// is false the marker store is skipped (the caller only reserves).
func (q *Queue) skipWrap(t *exec.Thread, pos, slot uint64, persist bool) uint64 {
	idx := pos % q.cfg.DataBytes
	if idx+slot <= q.cfg.DataBytes {
		return pos
	}
	if persist {
		t.Store8(q.meta.Data+memory.Addr(idx), wrapMarker)
	}
	return pos + (q.cfg.DataBytes - idx)
}

// writeEntryAt persists one entry at monotonic offset pos: length word,
// payload bytes, checksum word.
func (q *Queue) writeEntryAt(t *exec.Thread, pos uint64, payload []byte) {
	base := q.meta.Data + memory.Addr(pos%q.cfg.DataBytes)
	if q.cfg.Integrity {
		// Same layout (durable.CRCOffset == checksumOffset), CRC64 trailer
		// bound to the monotonic offset.
		durable.SealFrame(t, base, pos, payload)
		return
	}
	t.Store8(base, uint64(len(payload)))
	t.StoreBytes(base+headerBytes, payload)
	t.Store8(base+memory.Addr(checksumOffset(len(payload))), Checksum(pos, payload))
}

// Remove dequeues the oldest entry, returning its payload, or ok=false
// when the queue is empty. The tail persist is ordered after the entry
// is consumed via a persist barrier (under non-strict policies), so a
// crash can only duplicate, never lose, a delivery.
func (q *Queue) Remove(t *exec.Thread) (payload []byte, ok bool) {
	lock := q.queueLock
	if q.cfg.Design == TwoLock {
		lock = q.updateLock
	}
	lock.Acquire(t)
	defer lock.Release(t)
	tail := q.loadTail(t)
	head := q.loadHead(t)
	if tail >= head {
		return nil, false
	}
	idx := tail % q.cfg.DataBytes
	length := t.Load8(q.meta.Data + memory.Addr(idx))
	if length == wrapMarker {
		tail += q.cfg.DataBytes - idx
		idx = 0
		length = t.Load8(q.meta.Data + memory.Addr(idx))
	}
	if length == 0 || length > MaxPayload {
		panic(fmt.Sprintf("queue: corrupt length %d at offset %d", length, tail))
	}
	payload = make([]byte, length)
	t.LoadBytes(q.meta.Data+memory.Addr(idx)+headerBytes, payload)
	q.barrierMid(t)
	q.storeTail(t, tail+SlotBytes(int(length)))
	return payload, true
}
