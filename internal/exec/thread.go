package exec

import (
	"errors"
	"fmt"
	"iter"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Thread is a simulated hardware thread. Under Run it is a coroutine:
// its methods must be called from its own workload body, which runs
// only while the scheduler has resumed it. A SetupThread's methods run
// directly on the caller's goroutine, outside Run.
//
// Loads and stores are sequentially consistent: the scheduler serializes
// every operation machine-wide. Store and RMW to the persistent address
// space are persists. PersistBarrier, NewStrand, and PersistSync are the
// paper's persistency annotations; they have no effect on simulated
// execution, only on the downstream persistency-model analysis, exactly
// like the paper's trace annotations.
type Thread struct {
	m      *Machine
	tid    int32
	direct bool // SetupThread: execute without scheduler handoff
	// The scheduler sets grant and resumes the coroutine with next; step
	// spends budget from it and hands control back with yield.
	grant, budget int
	began         bool // the first operation takes its grant without yielding
	next          func() (struct{}, bool)
	stop          func()
	yield         func(struct{}) bool
	stopped       bool // yield returned false: Run is unwinding
	// buf is the PSO store buffer: stores issued but not yet visible.
	buf []bufStore
}

var errStopped = errors.New("exec: thread stopped")

// seq is the thread's coroutine: body, then a drain of the store buffer
// while the thread still owns the machine. Once Run has stopped it, the
// unwind ends here, so Run re-raises the original failure.
func (t *Thread) seq(body Workload) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			if t.stopped {
				recover()
			}
		}()
		body(t)
		if !t.stopped {
			t.drainAll()
		}
	}
}

// bufStore is one buffered (not yet visible) store.
type bufStore struct {
	addr memory.Addr
	size int
	val  uint64
}

func overlaps(a memory.Addr, asz int, b memory.Addr, bsz int) bool {
	return a < b+memory.Addr(bsz) && b < a+memory.Addr(asz)
}

// TID returns the simulated thread id.
func (t *Thread) TID() int { return int(t.tid) }

// step performs the scheduler handshake for one operation, and under
// PSO gives buffered stores a chance to drain.
func (t *Thread) step() {
	if t.direct {
		if t.m.running {
			panic("exec: SetupThread used while Run is in progress")
		}
		return
	}
	if t.budget == 0 {
		if t.began && !t.yield(struct{}{}) {
			t.stopped = true
			panic(errStopped)
		}
		t.budget = t.grant
		t.began = true
	}
	t.budget--
	if len(t.buf) > 0 && t.m.rng.Intn(2) == 0 {
		t.drainOne()
	}
}

// pso reports whether this thread buffers stores.
func (t *Thread) pso() bool {
	return t.m.cfg.Consistency == PSO && !t.direct
}

// drainOne makes one randomly chosen buffered store visible: it writes
// memory and emits the Store event — the store's position in the
// visibility (trace) order.
func (t *Thread) drainOne() {
	i := t.m.rng.Intn(len(t.buf))
	s := t.buf[i]
	t.buf = append(t.buf[:i], t.buf[i+1:]...)
	t.m.storeRaw(s.addr, s.size, s.val)
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.Store, Addr: s.addr, Size: uint8(s.size), Val: s.val})
}

// drainAll flushes the store buffer (fences, atomics, thread exit).
func (t *Thread) drainAll() {
	for len(t.buf) > 0 {
		t.drainOne()
	}
}

// drainThrough flushes buffered stores up to and including the last
// one overlapping [a, a+size) — used before a load so the thread reads
// coherent visible memory.
func (t *Thread) drainThrough(a memory.Addr, size int) {
	last := -1
	for i, s := range t.buf {
		if overlaps(a, size, s.addr, s.size) {
			last = i
		}
	}
	if last < 0 {
		return
	}
	// Drain a prefix containing every overlapping store: drain the
	// first `last+1` entries in random order (indices shift as entries
	// leave, so re-scan).
	for {
		idx := -1
		for i, s := range t.buf {
			if overlaps(a, size, s.addr, s.size) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		s := t.buf[idx]
		t.buf = append(t.buf[:idx], t.buf[idx+1:]...)
		t.m.storeRaw(s.addr, s.size, s.val)
		t.m.emit(trace.Event{TID: t.tid, Kind: trace.Store, Addr: s.addr, Size: uint8(s.size), Val: s.val})
	}
}

// Fence drains the thread's store buffer: a consistency (store) fence.
// It is deliberately distinct from PersistBarrier — the paper separates
// consistency and persistency barriers (§4.2): persists may reorder
// across store fences and store visibility may reorder across persist
// barriers. Under SC it is a no-op.
func (t *Thread) Fence() {
	if !t.pso() || len(t.buf) == 0 {
		return
	}
	t.step()
	t.drainAll()
}

// Yield relinquishes the rest of the thread's scheduling quantum
// without emitting an event. Spin loops call it (the analogue of the
// PAUSE instruction) so waiters do not flood the trace with spin loads.
func (t *Thread) Yield() {
	if t.direct {
		return
	}
	t.budget = 0
}

// Load reads size bytes (1..8) at a and returns them zero-extended.
// Under PSO the thread first drains its own overlapping buffered
// stores, so every load reads coherent visible memory.
func (t *Thread) Load(a memory.Addr, size int) uint64 {
	t.step()
	if t.pso() {
		t.drainThrough(a, size)
	}
	v := t.m.loadRaw(a, size)
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.Load, Addr: a, Size: uint8(size), Val: v})
	return v
}

// Store writes the low size bytes (1..8) of v at a. Under PSO the
// store enters the thread's store buffer and becomes visible (and is
// traced) at its later drain point.
func (t *Thread) Store(a memory.Addr, size int, v uint64) {
	t.step()
	if t.pso() {
		t.bufferStore(a, size, v)
		return
	}
	t.m.storeRaw(a, size, v)
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.Store, Addr: a, Size: uint8(size), Val: v})
}

// bufferStore enqueues a PSO store: exact same-range rewrites merge in
// place (write combining, which also keeps per-address drain order);
// partial overlaps conservatively drain first; a full buffer drains to
// make room.
func (t *Thread) bufferStore(a memory.Addr, size int, v uint64) {
	if _, err := memory.CheckRange(a, size); err != nil {
		panic("exec: " + err.Error())
	}
	for i := len(t.buf) - 1; i >= 0; i-- {
		s := &t.buf[i]
		if s.addr == a && s.size == size {
			s.val = v
			return
		}
		if overlaps(a, size, s.addr, s.size) {
			t.drainThrough(a, size)
			break
		}
	}
	max := t.m.cfg.StoreBuffer
	if max <= 0 {
		max = 8
	}
	for len(t.buf) >= max {
		t.drainOne()
	}
	t.buf = append(t.buf, bufStore{addr: a, size: size, val: v})
}

// Load8 reads the 8-byte word at a.
func (t *Thread) Load8(a memory.Addr) uint64 { return t.Load(a, memory.WordSize) }

// Store8 writes the 8-byte word at a.
func (t *Thread) Store8(a memory.Addr, v uint64) { t.Store(a, memory.WordSize, v) }

// CAS8 atomically compares the word at a with old and, if equal, writes
// new. It reports whether the swap happened. A successful CAS is traced
// as an RMW (load and store semantics); a failed CAS as a Load, since it
// writes nothing.
func (t *Thread) CAS8(a memory.Addr, old, new uint64) bool {
	t.step()
	if t.pso() {
		t.drainAll() // atomics fence the store buffer
	}
	cur := t.m.loadRaw(a, memory.WordSize)
	if cur != old {
		t.m.emit(trace.Event{TID: t.tid, Kind: trace.Load, Addr: a, Size: memory.WordSize, Val: cur})
		return false
	}
	t.m.storeRaw(a, memory.WordSize, new)
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.RMW, Addr: a, Size: memory.WordSize, Val: new})
	return true
}

// Swap8 atomically writes v at a and returns the previous word.
func (t *Thread) Swap8(a memory.Addr, v uint64) uint64 {
	t.step()
	if t.pso() {
		t.drainAll()
	}
	old := t.m.loadRaw(a, memory.WordSize)
	t.m.storeRaw(a, memory.WordSize, v)
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.RMW, Addr: a, Size: memory.WordSize, Val: v})
	return old
}

// Add8 atomically adds delta to the word at a and returns the new value.
func (t *Thread) Add8(a memory.Addr, delta uint64) uint64 {
	t.step()
	if t.pso() {
		t.drainAll()
	}
	v := t.m.loadRaw(a, memory.WordSize) + delta
	t.m.storeRaw(a, memory.WordSize, v)
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.RMW, Addr: a, Size: memory.WordSize, Val: v})
	return v
}

// StoreBytes writes b starting at a as a sequence of maximal
// word-aligned stores (how a memcpy of a queue entry appears in the
// trace). Each constituent store is a separate event, hence a separate
// potential persist.
func (t *Thread) StoreBytes(a memory.Addr, b []byte) {
	for len(b) > 0 {
		n := memory.WordSize - int(a%memory.WordSize) // to next word boundary
		if n > len(b) {
			n = len(b)
		}
		// Round down to a power-of-two access size so accesses look like
		// machine stores (8,4,2,1).
		for n&(n-1) != 0 {
			n &^= n & (-n) // clear lowest set bit
		}
		var v uint64
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		t.Store(a, n, v)
		a += memory.Addr(n)
		b = b[n:]
	}
}

// LoadBytes reads len(b) bytes starting at a into b using maximal
// word-aligned loads.
func (t *Thread) LoadBytes(a memory.Addr, b []byte) {
	for len(b) > 0 {
		n := memory.WordSize - int(a%memory.WordSize)
		if n > len(b) {
			n = len(b)
		}
		for n&(n-1) != 0 {
			n &^= n & (-n)
		}
		v := t.Load(a, n)
		for i := 0; i < n; i++ {
			b[i] = byte(v >> (8 * i))
		}
		a += memory.Addr(n)
		b = b[n:]
	}
}

// PersistBarrier emits a persist barrier (epoch and strand persistency;
// a no-op under strict persistency, which needs no annotations).
func (t *Thread) PersistBarrier() {
	t.step()
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.PersistBarrier})
}

// NewStrand begins a new persist strand (strand persistency only).
func (t *Thread) NewStrand() {
	t.step()
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.NewStrand})
}

// PersistSync drains outstanding persists under buffered strict
// persistency (§4.1) before execution proceeds.
func (t *Thread) PersistSync() {
	t.step()
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.PersistSync})
}

// BeginWork brackets the start of logical operation id (a queue insert).
func (t *Thread) BeginWork(id uint64) {
	t.step()
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.BeginWork, Val: id})
}

// EndWork brackets the end of logical operation id.
func (t *Thread) EndWork(id uint64) {
	t.step()
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.EndWork, Val: id})
}

// MallocPersistent allocates from the persistent heap (traced, like the
// paper's instrumented persistent malloc). align 0 means the 64-byte
// default.
func (t *Thread) MallocPersistent(size int, align uint64) memory.Addr {
	return t.malloc(t.m.PerHeap, size, align)
}

// MallocVolatile allocates from the volatile heap (traced).
func (t *Thread) MallocVolatile(size int, align uint64) memory.Addr {
	return t.malloc(t.m.VolHeap, size, align)
}

func (t *Thread) malloc(h *memory.Heap, size int, align uint64) memory.Addr {
	t.step()
	a, err := h.Alloc(size, align)
	if err != nil {
		panic("exec: " + err.Error())
	}
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.Malloc, Addr: a, Val: h.SizeOf(a)})
	return a
}

// FreeHeap releases an allocation from whichever heap owns a.
func (t *Thread) FreeHeap(a memory.Addr) {
	t.step()
	var h *memory.Heap
	switch memory.SpaceOf(a) {
	case memory.Persistent:
		h = t.m.PerHeap
	case memory.Volatile:
		h = t.m.VolHeap
	default:
		panic(fmt.Sprintf("exec: Free of unmapped address %#x", uint64(a)))
	}
	if err := h.Free(a); err != nil {
		panic("exec: " + err.Error())
	}
	t.m.emit(trace.Event{TID: t.tid, Kind: trace.Free, Addr: a})
}
