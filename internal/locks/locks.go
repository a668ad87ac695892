// Package locks provides spin locks implemented on the simulated
// machine's memory, so that all lock traffic appears in the memory
// trace exactly as pthread/MCS lock traffic appeared in the paper's PIN
// traces. The persistency models propagate persist ordering constraints
// through these volatile lock words; that propagation is the whole
// point of the paper's "Epoch" vs. "Racing Epochs" distinction, so the
// locks must be real memory algorithms, not Go mutexes.
//
// The paper's benchmarks use MCS queue locks (§7, [20]), the one lock
// here. Locks live in the volatile address space, following the paper's
// guidance to "only place locks in the volatile address space" (§5.2).
package locks

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/memory"
)

// MCS is the Mellor-Crummey/Scott queue-based spin lock: threads
// enqueue a per-thread node and spin on their own cache line, giving
// FIFO order and local spinning. Acquire and Release must be called
// from the owning simulated thread, in pairs.
//
// Layout: the lock itself is one volatile word holding the tail node
// address (0 = free). Each thread's node is two volatile words:
// next (+0) and locked (+8).
type MCS struct {
	tail memory.Addr
	// nodes maps TID -> node base. The engine serializes simulated
	// operations, but a thread's *first* node lookup can run before its
	// first operation (threads start concurrently), so the map needs a
	// host-level mutex. It guards only this Go map, not simulated state.
	mu    sync.Mutex
	nodes map[int]memory.Addr
}

const (
	mcsNext   = 0
	mcsLocked = 8
	mcsNode   = 16
)

// NewMCS allocates the lock word using t (a setup thread).
func NewMCS(t *exec.Thread) *MCS {
	l := &MCS{
		tail:  t.MallocVolatile(memory.WordSize, memory.DefaultAlign),
		nodes: make(map[int]memory.Addr),
	}
	t.Store8(l.tail, 0)
	return l
}

// node returns the calling thread's queue node, allocating on first use.
func (l *MCS) node(t *exec.Thread) memory.Addr {
	l.mu.Lock()
	n, ok := l.nodes[t.TID()]
	l.mu.Unlock()
	if ok {
		return n
	}
	n = t.MallocVolatile(mcsNode, memory.DefaultAlign)
	l.mu.Lock()
	l.nodes[t.TID()] = n
	l.mu.Unlock()
	return n
}

// Acquire takes the lock, spinning on the thread's own node. The
// fences order store visibility on relaxed-consistency (PSO) machines;
// under SC they are no-ops.
func (l *MCS) Acquire(t *exec.Thread) {
	n := l.node(t)
	t.Store8(n+mcsNext, 0)
	pred := t.Swap8(l.tail, uint64(n)) // atomics drain the store buffer
	if pred == 0 {
		return
	}
	t.Store8(n+mcsLocked, 1)
	// locked=1 must be visible before the predecessor can find us and
	// clear it, or the handoff is lost and we spin forever.
	t.Fence()
	t.Store8(memory.Addr(pred)+mcsNext, uint64(n))
	for t.Load8(n+mcsLocked) != 0 {
		t.Yield()
	}
}

// Release passes the lock to the queue successor, if any.
func (l *MCS) Release(t *exec.Thread) {
	n := l.node(t)
	if t.Load8(n+mcsNext) == 0 {
		if t.CAS8(l.tail, uint64(n), 0) {
			return
		}
		// A successor is enqueueing; wait for it to link itself.
		for t.Load8(n+mcsNext) == 0 {
			t.Yield()
		}
	}
	succ := memory.Addr(t.Load8(n + mcsNext))
	// Critical-section stores must be visible before the handoff.
	t.Fence()
	t.Store8(succ+mcsLocked, 0)
}
