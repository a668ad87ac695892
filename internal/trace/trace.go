// Package trace defines the memory-access event model that the rest of
// the reproduction is built around.
//
// The paper instruments its queue benchmarks with PIN to produce memory
// access traces that observe sequential consistency, annotated with
// persist barriers and persistent malloc/free (§7). Package trace is the
// Go-side equivalent of that trace format: a totally ordered sequence of
// Events (the SC order), produced by internal/exec and consumed by the
// persistency-model timing simulator in internal/core and by the
// recovery observer in internal/observer.
package trace

import (
	"fmt"
	"iter"
	"sync"

	"repro/internal/memory"
)

// Kind enumerates memory-trace event types.
type Kind uint8

const (
	// Invalid is the zero Kind; it never appears in valid traces.
	Invalid Kind = iota
	// Load is a data read of up to eight bytes.
	Load
	// Store is a data write of up to eight bytes. A Store to the
	// persistent address space is a persist in the paper's terminology.
	Store
	// RMW is a successful atomic read-modify-write (compare-and-swap,
	// swap, fetch-and-add). It has both load and store semantics for
	// conflict detection; a failed CAS is traced as a plain Load.
	RMW
	// PersistBarrier divides a thread's execution into persist epochs
	// (§5.2). Under strand persistency it orders persists within the
	// current strand (§5.3). Strict persistency ignores it.
	PersistBarrier
	// NewStrand begins a new persist strand (§5.3): it clears all
	// previously observed persist dependences on the issuing thread.
	NewStrand
	// PersistSync synchronizes instruction execution with persistent
	// state under buffered strict persistency (§4.1): all prior persists
	// must complete before execution proceeds.
	PersistSync
	// Malloc records a heap allocation; Addr is the base and Val the
	// reserved size. Allocations in the persistent space delimit the
	// persistent data structures, as in the paper's tracing framework.
	Malloc
	// Free records a heap release of the allocation based at Addr.
	Free
	// BeginWork and EndWork bracket one logical operation (one queue
	// insert); Val carries the operation id. The harness uses them for
	// per-insert critical-path accounting and for the paper's
	// insert-distance tracing validation (§7).
	BeginWork
	// EndWork closes the bracket opened by BeginWork.
	EndWork
)

// String returns the event-kind name used in dumps.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case RMW:
		return "rmw"
	case PersistBarrier:
		return "persist-barrier"
	case NewStrand:
		return "new-strand"
	case PersistSync:
		return "persist-sync"
	case Malloc:
		return "malloc"
	case Free:
		return "free"
	case BeginWork:
		return "begin-work"
	case EndWork:
		return "end-work"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// IsAccess reports whether the kind reads or writes memory.
func (k Kind) IsAccess() bool { return k == Load || k == Store || k == RMW }

// IsAnnotation reports whether the kind is a persistency annotation
// (PersistBarrier, NewStrand, PersistSync): an event with no memory
// effect that only constrains the downstream persist-order analysis.
func (k Kind) IsAnnotation() bool {
	return k == PersistBarrier || k == NewStrand || k == PersistSync
}

// HasStoreSemantics reports whether the kind writes memory (Store, RMW).
func (k Kind) HasStoreSemantics() bool { return k == Store || k == RMW }

// HasLoadSemantics reports whether the kind reads memory (Load, RMW).
func (k Kind) HasLoadSemantics() bool { return k == Load || k == RMW }

// Event is one entry of a memory trace. Events are totally ordered by
// Seq; because the execution engine serializes simulated instructions,
// this total order is the trace's sequentially consistent memory order.
type Event struct {
	// Seq is the event's position in the SC total order, assigned by the
	// sink. The first event of a trace has Seq 0.
	Seq uint64
	// TID identifies the issuing simulated thread, starting at 0.
	TID int32
	// Kind is the event type.
	Kind Kind
	// Size is the access width in bytes (1..8) for Load/Store/RMW;
	// 0 otherwise.
	Size uint8
	// Addr is the accessed address for Load/Store/RMW, the allocation
	// base for Malloc/Free, and 0 otherwise.
	Addr memory.Addr
	// Val is the value written (Store/RMW), the reserved size (Malloc),
	// or the operation id (BeginWork/EndWork).
	Val uint64
}

// IsPersist reports whether the event durably writes NVRAM: a store or
// RMW targeting the persistent address space.
func (e Event) IsPersist() bool {
	return e.Kind.HasStoreSemantics() && memory.IsPersistent(e.Addr)
}

// String renders the event for dumps and test failures.
func (e Event) String() string {
	switch {
	case e.Kind.IsAccess():
		return fmt.Sprintf("#%d t%d %s %#x/%d = %#x", e.Seq, e.TID, e.Kind, uint64(e.Addr), e.Size, e.Val)
	case e.Kind == Malloc:
		return fmt.Sprintf("#%d t%d malloc %#x size %d", e.Seq, e.TID, uint64(e.Addr), e.Val)
	case e.Kind == Free:
		return fmt.Sprintf("#%d t%d free %#x", e.Seq, e.TID, uint64(e.Addr))
	case e.Kind == BeginWork || e.Kind == EndWork:
		return fmt.Sprintf("#%d t%d %s op %d", e.Seq, e.TID, e.Kind, e.Val)
	default:
		return fmt.Sprintf("#%d t%d %s", e.Seq, e.TID, e.Kind)
	}
}

// Validate checks structural invariants of a single event.
func (e Event) Validate() error {
	switch {
	case e.Kind.IsAccess():
		if e.Size == 0 || e.Size > memory.WordSize {
			return fmt.Errorf("trace: %s with size %d", e.Kind, e.Size)
		}
		if _, err := memory.CheckRange(e.Addr, int(e.Size)); err != nil {
			return fmt.Errorf("trace: %s: %w", e.Kind, err)
		}
	case e.Kind == Malloc, e.Kind == Free:
		if memory.SpaceOf(e.Addr) == memory.Unmapped {
			return fmt.Errorf("trace: %s of unmapped address %#x", e.Kind, uint64(e.Addr))
		}
	case e.Kind == Invalid:
		return fmt.Errorf("trace: invalid event kind")
	}
	if e.TID < 0 || e.TID >= MaxThreads {
		return fmt.Errorf("trace: thread id %d outside [0, %d)", e.TID, MaxThreads)
	}
	return nil
}

// MaxThreads bounds thread ids. Consumers index per-thread state
// densely by TID, so without the bound one corrupt record in a trace
// file could size that state at 2^31 threads.
const MaxThreads = 1 << 16

// Sink receives trace events in SC order. Implementations must not
// retain the event beyond the call (it is a value type, so copying is
// free anyway).
type Sink interface {
	Emit(Event)
}

// Discard is a Sink that drops all events; the execution engine uses it
// when only native-speed execution is wanted.
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Emit(Event) {}

// Chunked structure-of-arrays event storage. Traces routinely hold
// millions of events; a single flat []Event pays a reallocation-and-copy
// tax every time it grows, leaves the allocator with one huge object
// per trace, and — at 32 bytes per AoS event, padding included — drags
// every analysis pass through fields it never reads. Instead events
// live in fixed-capacity column chunks (one plane per field: op, size,
// thread, address, value) recycled through a sync.Pool, so growth never
// copies, sweep-style pipelines reuse the same memory, and kernels that
// only need one or two planes (persist counting reads op+addr; epoch
// segmentation reads op+thread) walk dense slabs at ~22 B/event.
//
// Seq is not stored at all: for traces built through Emit it equals the
// event's position, so each chunk carries only its base. The one caller
// that pushes events with explicit sequence numbers (codec.ReadAll,
// preserving decoded streams) triggers a rare per-chunk overflow plane.
const (
	chunkShift = 13
	// chunkCap is the number of events per chunk (~176 KiB of planes).
	chunkCap  = 1 << chunkShift
	chunkMask = chunkCap - 1
)

// Chunk is one fixed-capacity block of column storage. All planes share
// one length; every chunk of a trace except the last is full. Callers
// must treat the planes as read-only; they remain owned by the trace.
type Chunk struct {
	n    int
	base uint64 // Seq of element 0 (the chunk's position in the trace)
	kind *[chunkCap]Kind
	size *[chunkCap]uint8
	tid  *[chunkCap]int32
	addr *[chunkCap]memory.Addr
	val  *[chunkCap]uint64
	// seq overrides the implicit base+i sequence numbers; nil (always,
	// for machine-emitted traces) means implicit.
	seq []uint64
}

// Len returns the number of events in the chunk.
func (c *Chunk) Len() int { return c.n }

// Kinds returns the op plane (event kinds), one entry per event.
func (c *Chunk) Kinds() []Kind { return c.kind[:c.n] }

// Sizes returns the access-size plane.
func (c *Chunk) Sizes() []uint8 { return c.size[:c.n] }

// TIDs returns the thread plane.
func (c *Chunk) TIDs() []int32 { return c.tid[:c.n] }

// Addrs returns the address plane.
func (c *Chunk) Addrs() []memory.Addr { return c.addr[:c.n] }

// Vals returns the value plane.
func (c *Chunk) Vals() []uint64 { return c.val[:c.n] }

// Event assembles the i'th event of the chunk from its planes.
func (c *Chunk) Event(i int) Event {
	e := Event{
		Seq:  c.base + uint64(i),
		TID:  c.tid[i],
		Kind: c.kind[i],
		Size: c.size[i],
		Addr: c.addr[i],
		Val:  c.val[i],
	}
	if c.seq != nil {
		e.Seq = c.seq[i]
	}
	return e
}

var chunkPool sync.Pool // of *Chunk with all planes allocated

func newChunk(base uint64) *Chunk {
	if c, ok := chunkPool.Get().(*Chunk); ok {
		c.n, c.base, c.seq = 0, base, nil
		return c
	}
	return &Chunk{
		base: base,
		kind: new([chunkCap]Kind),
		size: new([chunkCap]uint8),
		tid:  new([chunkCap]int32),
		addr: new([chunkCap]memory.Addr),
		val:  new([chunkCap]uint64),
	}
}

// Trace is an in-memory event sequence. The zero value is an empty
// trace ready to use.
//
// Storage is chunked SoA (see Chunk): every chunk except the last holds
// exactly chunkCap events, which keeps At O(1) and lets hot loops walk
// Chunks directly.
type Trace struct {
	chunks []*Chunk
	n      int
}

// push appends an event, preserving an explicit Seq that differs from
// the event's position (decoded streams only).
func (t *Trace) push(e Event) {
	c := t.emit(e)
	if e.Seq != uint64(t.n-1) && c.seq == nil {
		// Materialize the override plane for the whole chunk.
		c.seq = make([]uint64, c.n-1, chunkCap)
		for i := range c.seq {
			c.seq[i] = c.base + uint64(i)
		}
	}
	if c.seq != nil {
		c.seq = append(c.seq, e.Seq)
	}
}

// emit appends an event's planes and returns the receiving chunk.
func (t *Trace) emit(e Event) *Chunk {
	k := len(t.chunks)
	if k == 0 || t.chunks[k-1].n == chunkCap {
		t.chunks = append(t.chunks, newChunk(uint64(t.n)))
		k++
	}
	c := t.chunks[k-1]
	i := c.n
	c.kind[i] = e.Kind
	c.size[i] = e.Size
	c.tid[i] = e.TID
	c.addr[i] = e.Addr
	c.val[i] = e.Val
	c.n++
	t.n++
	return c
}

// Emit appends an event, assigning its Seq; Trace implements Sink.
func (t *Trace) Emit(e Event) {
	c := t.emit(e)
	if c.seq != nil {
		c.seq = append(c.seq, uint64(t.n-1))
	}
}

// Len returns the number of events.
func (t *Trace) Len() int { return t.n }

// At returns the event at position i (which equals its Seq for traces
// built through Emit).
func (t *Trace) At(i int) Event {
	return t.chunks[i>>chunkShift].Event(i & chunkMask)
}

// All iterates the events in SC order.
func (t *Trace) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for _, c := range t.chunks {
			for i := 0; i < c.n; i++ {
				if !yield(c.Event(i)) {
					return
				}
			}
		}
	}
}

// Chunks exposes the underlying SoA storage for hot replay loops:
// events in order, grouped into contiguous column blocks. Callers must
// treat the planes as read-only; they remain owned by the trace.
func (t *Trace) Chunks() []*Chunk { return t.chunks }

// Release returns the trace's storage to the chunk pool and empties the
// trace. Only an exclusive owner may call it: any plane or chunk view
// previously obtained from the trace becomes invalid.
func (t *Trace) Release() {
	for i, c := range t.chunks {
		chunkPool.Put(c)
		t.chunks[i] = nil
	}
	t.chunks = nil
	t.n = 0
}

// Equal reports whether two traces hold identical event sequences.
func (t *Trace) Equal(o *Trace) bool {
	if t.n != o.n {
		return false
	}
	for i := 0; i < t.n; i++ {
		if t.At(i) != o.At(i) {
			return false
		}
	}
	return true
}

// Validate checks every event and the Seq numbering.
func (t *Trace) Validate() error {
	i := 0
	for e := range t.All() {
		if e.Seq != uint64(i) {
			return fmt.Errorf("trace: event %d has seq %d", i, e.Seq)
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		i++
	}
	return nil
}

// Threads returns the number of distinct thread ids (max TID + 1).
func (t *Trace) Threads() int {
	max := int32(-1)
	for e := range t.All() {
		if e.TID > max {
			max = e.TID
		}
	}
	return int(max + 1)
}

// Filter returns the events satisfying keep, preserving order.
func (t *Trace) Filter(keep func(Event) bool) []Event {
	var out []Event
	for e := range t.All() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Persists returns the events that durably write NVRAM.
func (t *Trace) Persists() []Event {
	return t.Filter(Event.IsPersist)
}

// CountPersists returns the number of events that durably write NVRAM,
// touching only the op and address planes.
func (t *Trace) CountPersists() int {
	n := 0
	for _, c := range t.chunks {
		kinds, addrs := c.Kinds(), c.Addrs()
		for i, k := range kinds {
			if k.HasStoreSemantics() && memory.IsPersistent(addrs[i]) {
				n++
			}
		}
	}
	return n
}

// SplitByThread partitions the trace into per-thread subsequences
// (program orders), indexed by TID. Events keep their global Seq so
// positions in the SC order remain recoverable.
func (t *Trace) SplitByThread() map[int32][]Event {
	out := make(map[int32][]Event)
	for e := range t.All() {
		out[e.TID] = append(out[e.TID], e)
	}
	return out
}

// Slice returns the events with Seq in [from, to) as a new Trace with
// renumbered Seqs — a window for scoped analysis. Bounds are clamped.
func (t *Trace) Slice(from, to uint64) *Trace {
	if to > uint64(t.n) {
		to = uint64(t.n)
	}
	if from > to {
		from = to
	}
	out := &Trace{}
	for i := from; i < to; i++ {
		out.Emit(t.At(int(i)))
	}
	return out
}

// Tee is a Sink that forwards every event to all of its children.
type Tee []Sink

// Emit forwards e to each child sink.
func (t Tee) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}
