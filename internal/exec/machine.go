// Package exec is the reproduction's stand-in for the paper's PIN-based
// tracing framework (§7).
//
// The paper traces native pthread benchmarks with PIN, using a bank of
// locks to guarantee analysis atomicity so that "the traced memory order
// ... accurately reflect[s] execution's memory order"; the resulting
// trace observes sequential consistency. We achieve the same guarantee
// by construction: each simulated thread is a coroutine (iter.Pull)
// that a seeded scheduler on the caller's goroutine resumes for one
// quantum of memory operations at a time, so exactly one thread ever
// runs. Every operation appends one event to the trace sink, so the
// trace *is* the SC memory order. The seed varies thread interleavings
// the way rerunning a native benchmark would.
//
// Every event the Machine emits passes trace.Event.Validate by
// construction: each operation checks its input where it enters, before
// it emits anything, and panics with an "exec:" message on misuse, so
// no per-event check runs on the way to the sink. Thread.Load and Store
// check the access size (1..8) on entry, ahead of the scheduler step,
// so a bad PSO store fails at its call and not at its drain; loadRaw,
// storeRaw and the PSO store buffer check the address range
// (memory.CheckRange); NewMachine bounds the thread count by
// trace.MaxThreads; the heaps hand out mapped addresses and FreeHeap
// rejects unmapped ones; every other event carries only a kind and a
// thread id.
//
// Simulated programs perform all shared-state communication through the
// Machine's simulated memory (Thread's Load/Store/CAS/... operations).
// Plain Go variables captured by a workload closure must be thread-local.
package exec

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math/rand"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Consistency selects the simulated machine's memory consistency
// model. The paper builds its persistency models on SC (§5) but
// discusses strict persistency over relaxed consistency in §4.1; the
// PSO mode makes that discussion executable.
type Consistency uint8

const (
	// SC is sequential consistency: every operation becomes visible in
	// the order executed (the default, and the paper's base model).
	SC Consistency = iota
	// PSO is a partial-store-order-style relaxed model: stores enter a
	// per-thread store buffer and drain to visible memory in a random
	// (seeded) order; loads forward from the issuing thread's buffer;
	// RMWs and Fence drain the buffer. Store visibility can therefore
	// reorder within a thread — exactly the hazard of Figure 1 — while
	// loads still execute in program order and store atomicity holds.
	PSO
)

// String names the consistency model.
func (c Consistency) String() string {
	switch c {
	case SC:
		return "sc"
	case PSO:
		return "pso"
	default:
		return fmt.Sprintf("consistency(%d)", uint8(c))
	}
}

// Config parameterizes a simulated machine.
type Config struct {
	// Threads is the number of simulated threads Run will spawn.
	Threads int
	// Seed drives the scheduler's interleaving choices. Equal seeds and
	// workloads produce byte-identical traces.
	Seed int64
	// Slice is the maximum number of operations a thread executes per
	// scheduling quantum. Zero means DefaultSlice. A slice of 1
	// interleaves at single-instruction granularity.
	Slice int
	// Sink receives the event stream; nil means trace.Discard.
	Sink trace.Sink
	// MaxOps aborts (panics) runaway workloads; zero means no limit.
	MaxOps uint64
	// Consistency selects SC (default) or PSO store visibility.
	Consistency Consistency
	// StoreBuffer caps the PSO per-thread store buffer; zero means 8.
	StoreBuffer int
}

// DefaultSlice is the default scheduling quantum in operations. Small
// enough to exercise fine interleavings, large enough to amortize
// scheduler handoffs.
const DefaultSlice = 8

// Machine is a simulated shared-memory multiprocessor with volatile and
// persistent address spaces. Create one with NewMachine, set up shared
// state through SetupThread, then execute a workload with Run. A
// Machine is single-use: after Run returns, read results out of the
// simulated memory with SetupThread and discard the Machine.
type Machine struct {
	cfg  Config
	sink trace.Sink
	rng  *rand.Rand

	// volWords/perWords store memory contents for the two address
	// spaces, in demand-allocated pages of word-aligned values; absent
	// pages read as zero.
	volWords wordStore
	perWords wordStore

	// PerHeap and VolHeap allocate from the persistent and volatile
	// spaces. They are exported for direct inspection; allocation during
	// simulation should go through Thread.MallocPersistent/Volatile so
	// the trace records it.
	PerHeap *memory.Heap
	VolHeap *memory.Heap

	ops     uint64
	running bool
}

// Paged simulated memory: pages of pageWords 8-byte words, allocated on
// first store. Workloads such as the sharded KV store scatter their
// stores over a large heap, so a small page keeps resident memory near
// the data actually written: a 16k-op kv-read run fills 273 4 KiB pages
// (1.1 MB) where 32 KiB pages took 3.1 MB.
const (
	pageShift = 9
	// pageWords is the number of words per page (4 KiB of data).
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// wordStore holds one address space's contents: a sparse page table
// of demand-allocated pages. Only touched pages exist, so cost is
// proportional to resident data, not to the highest address written:
// a store at base+1TiB costs one page and a few index nodes.
type wordStore struct {
	base  memory.Addr
	pages memory.Pages[[pageWords]uint64]
}

// load reads the word at the 8-byte-aligned address w; absent pages
// read as zero, matching the map semantics this replaces — loadRaw's
// cross-word slow path may probe one word past the end of an access's
// space.
func (ws *wordStore) load(w memory.Addr) uint64 {
	off := uint64(w-ws.base) / memory.WordSize
	page := ws.pages.Get(off >> pageShift)
	if page == nil {
		return 0
	}
	return page[off&pageMask]
}

// ptr returns the storage slot for the word at w, allocating its page
// on demand.
func (ws *wordStore) ptr(w memory.Addr) *uint64 {
	off := uint64(w-ws.base) / memory.WordSize
	page := ws.pages.Get(off >> pageShift)
	if page == nil {
		page = ws.pages.Add(off >> pageShift)
	}
	return &page[off&pageMask]
}

// resident reports the store's page count and extent count (maximal
// runs of contiguous resident pages).
func (ws *wordStore) resident() (pages, extents int) {
	next := uint64(0)
	ws.pages.Each(func(n uint64, _ *[pageWords]uint64) {
		pages++
		if n != next || extents == 0 {
			extents++
		}
		next = n + 1
	})
	return pages, extents
}

// wordsOf selects the store owning the word at w. Word addresses from
// the volatile space stay below PersistentBase even after the +8 probe
// of a cross-word access (the spaces are far apart).
func (m *Machine) wordsOf(w memory.Addr) *wordStore {
	if w >= memory.PersistentBase {
		return &m.perWords
	}
	return &m.volWords
}

// NewMachine creates a machine per cfg. It panics when cfg.Threads
// exceeds trace.MaxThreads, the bound on a traced thread id.
func NewMachine(cfg Config) *Machine {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Threads > trace.MaxThreads {
		panic(fmt.Sprintf("exec: %d threads, more than trace.MaxThreads (%d)", cfg.Threads, trace.MaxThreads))
	}
	if cfg.Slice <= 0 {
		cfg.Slice = DefaultSlice
	}
	sink := cfg.Sink
	if sink == nil {
		sink = trace.Discard
	}
	return &Machine{
		cfg:      cfg,
		sink:     sink,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		volWords: wordStore{base: memory.VolatileBase},
		perWords: wordStore{base: memory.PersistentBase},
		PerHeap:  memory.NewHeap(memory.Persistent),
		VolHeap:  memory.NewHeap(memory.Volatile),
	}
}

// Ops returns the number of trace operations executed so far.
func (m *Machine) Ops() uint64 { return m.ops }

// SetupThread returns a Thread bound to TID 0 that executes directly on
// the caller's goroutine. Use it before Run to allocate and initialize
// shared structures (those events belong in the trace: initialization
// persists are real persists) and after Run to read results back. It
// must not be used while Run is in progress.
func (m *Machine) SetupThread() *Thread {
	if m.running {
		panic("exec: SetupThread while Run is in progress")
	}
	return &Thread{m: m, tid: 0, direct: true}
}

// Workload is the body executed by each simulated thread.
type Workload func(t *Thread)

// Run spawns cfg.Threads simulated threads executing body and returns
// when all have finished. The caller's goroutine acts as the scheduler
// and resumes one thread coroutine at a time. A panic in a thread body
// (MaxOps included) unwinds every other thread without running another
// operation and is re-raised on the caller's goroutine.
func (m *Machine) Run(body Workload) {
	if m.running {
		panic("exec: concurrent Run")
	}
	m.running = true
	defer func() { m.running = false }()

	threads := make([]*Thread, m.cfg.Threads)
	for i := range threads {
		t := &Thread{m: m, tid: int32(i)}
		t.next, t.stop = iter.Pull(t.seq(body))
		threads[i] = t
	}
	defer func() {
		for _, t := range threads {
			t.stop() // a parked thread unwinds from its yield (Thread.step)
		}
	}()
	m.schedule(threads)
}

// schedule runs the cooperative scheduler until every thread exits.
// Exactly one thread executes operations at any time, so the emitted
// event order is a sequentially consistent total order.
func (m *Machine) schedule(threads []*Thread) {
	runnable := append([]*Thread(nil), threads...)
	for len(runnable) > 0 {
		i := 0
		if len(runnable) == 1 && m.cfg.Consistency == SC {
			// Sole runnable thread under SC: every later draw would be
			// Intn(1) (runnable never grows), so grant one huge slice
			// instead of a resume per quantum. SC draws randomness only
			// here (store-buffer draws are PSO-only), so the trace is
			// the same as with per-quantum grants.
			runnable[0].grant = 1 << 30
		} else {
			i = m.rng.Intn(len(runnable))
			runnable[i].grant = m.cfg.Slice
		}
		if _, ok := runnable[i].next(); !ok {
			runnable = append(runnable[:i], runnable[i+1:]...)
		}
	}
}

// emit counts and forwards one event. Every event is valid by
// construction (see the package comment), so emit checks none.
func (m *Machine) emit(e trace.Event) {
	m.ops++
	if m.cfg.MaxOps != 0 && m.ops > m.cfg.MaxOps {
		panic(fmt.Sprintf("exec: exceeded MaxOps=%d; runaway workload?", m.cfg.MaxOps))
	}
	m.sink.Emit(e)
}

// loadRaw reads size bytes at a from simulated memory (little-endian).
// Accesses may cross word boundaries; they are assembled bytewise.
func (m *Machine) loadRaw(a memory.Addr, size int) uint64 {
	if _, err := memory.CheckRange(a, size); err != nil {
		panic("exec: " + err.Error())
	}
	w := memory.AlignDown(a, memory.WordSize)
	ws := m.wordsOf(w)
	if a == w && size == memory.WordSize {
		return ws.load(w)
	}
	var buf [2 * memory.WordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], ws.load(w))
	binary.LittleEndian.PutUint64(buf[8:], ws.load(w+memory.WordSize))
	off := int(a - w)
	var out [memory.WordSize]byte
	copy(out[:], buf[off:off+size])
	return binary.LittleEndian.Uint64(out[:])
}

// storeRaw writes the low size bytes of v at a (little-endian).
func (m *Machine) storeRaw(a memory.Addr, size int, v uint64) {
	if _, err := memory.CheckRange(a, size); err != nil {
		panic("exec: " + err.Error())
	}
	w := memory.AlignDown(a, memory.WordSize)
	ws := m.wordsOf(w)
	if a == w && size == memory.WordSize {
		*ws.ptr(w) = v
		return
	}
	var buf [2 * memory.WordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], ws.load(w))
	binary.LittleEndian.PutUint64(buf[8:], ws.load(w+memory.WordSize))
	var src [memory.WordSize]byte
	binary.LittleEndian.PutUint64(src[:], v)
	off := int(a - w)
	copy(buf[off:off+size], src[:size])
	*ws.ptr(w) = binary.LittleEndian.Uint64(buf[0:])
	if off+size > memory.WordSize {
		// CheckRange guarantees the access stays in one space, so the
		// second word is a valid address of the same store.
		*ws.ptr(w + memory.WordSize) = binary.LittleEndian.Uint64(buf[8:])
	}
}

// PersistentImage captures current persistent-space contents as an
// Image (the "no failure" final state). The observer compares recovered
// states against prefixes of this.
func (m *Machine) PersistentImage() *memory.Image {
	im := memory.NewImage()
	m.perWords.pages.Each(func(n uint64, page *[pageWords]uint64) {
		base := m.perWords.base + memory.Addr(n*pageWords*memory.WordSize)
		for si, w := range page {
			if w != 0 {
				im.WriteWord(base+memory.Addr(si*memory.WordSize), w)
			}
		}
	})
	return im
}

// MemStats describes the machine's resident simulated memory: what the
// sparse page index actually materialized, per address space. Bytes
// count page payloads (resident pages × page size); extents are maximal
// runs of contiguous pages, the fragmentation view the CLIs report.
type MemStats struct {
	VolPages, PerPages     int
	VolBytes, PerBytes     uint64
	VolExtents, PerExtents int
}

// MemStats snapshots resident-memory statistics.
func (m *Machine) MemStats() MemStats {
	const pageBytes = pageWords * memory.WordSize
	vp, ve := m.volWords.resident()
	pp, pe := m.perWords.resident()
	return MemStats{
		VolPages: vp, PerPages: pp,
		VolBytes: uint64(vp) * pageBytes, PerBytes: uint64(pp) * pageBytes,
		VolExtents: ve, PerExtents: pe,
	}
}
