// Package journal implements the paper's second motivating workload
// class: journaled metadata updates ("file systems must constrain the
// order of disk operations to metadata to preserve a consistent file
// system image", §9; WAL-style redo journaling per ARIES).
//
// A Store holds a table of fixed-size metadata blocks in persistent
// memory plus a redo journal ring. A transaction updates several
// blocks atomically:
//
//  1. append one redo record per block to the journal    (persists)
//  2. persist barrier                                     — records before commit
//  3. advance the persistent CommittedHead word           (persist: commit point)
//  4. persist barrier                                     — commit before in-place
//  5. apply the new values in place to the table          (persists)
//  6. persist barrier; advance the checkpoint when the ring fills
//
// The commit point is a single persistent word, so strong persist
// atomicity serializes commits under *every* model — the same design
// trick as the queue's head pointer (§6). Recovery redoes all records
// between the checkpoint and CommittedHead; anything beyond is an
// uncommitted tail that, by construction, never touched the table.
//
// Unlike the queue, the *racing epochs* discipline is NOT safe for
// this structure: checkpoint truncation must be ordered after other
// threads' in-place applies, which only the barriers around the lock
// provide. The crash tests demonstrate the reachable corruption —
// an executable illustration that relaxed-persistency annotation is a
// per-algorithm contract, not a global switch.
package journal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/locks"
	"repro/internal/memory"
)

const (
	// BlockBytes is the metadata block size (one cache line).
	BlockBytes = 64
	// recordBytes is a redo record slot: kind, txn, block index,
	// payload, checksum, padded to two lines.
	recordBytes = 128
	// kindData marks a redo record slot.
	kindData = 0xda7a
	// wrapKind marks a skipped ring tail.
	wrapKind = ^uint64(0)
	// recordPayloadBytes is the integrity-mode frame payload: txn id,
	// block index, block data. The frame (96 bytes) fits the 128-byte
	// record slot; its length word doubles as the wrap-marker word.
	recordPayloadBytes = 16 + BlockBytes
)

// Config parameterizes a Store.
type Config struct {
	// Blocks is the metadata table size in blocks.
	Blocks int
	// JournalBytes is the redo ring capacity (multiple of 64).
	JournalBytes uint64
	// Policy selects annotations.
	Policy core.Policy
	// BreakRecordCommitOrder omits the barrier between the redo records
	// and the commit persist (stage 1 → stage 2). For negative testing
	// only: under relaxed persistency the commit record can then persist
	// before its payload, so recovery redoes garbage.
	BreakRecordCommitOrder bool
	// OmitStrandRecipe omits §5.3's read-then-barrier recipe after
	// NewStrand under core.PolicyStrand. For negative testing only: the
	// transaction's persists are then unordered after the checkpoint
	// truncation the thread observed, so a crash can expose a stale
	// checkpoint alongside newer ring contents.
	OmitStrandRecipe bool
	// Integrity hardens the durable format (internal/durable): the
	// commit point and checkpoint become dual-copy durable words,
	// redo records become CRC64 frames bound to their ring offset, and
	// every in-place apply maintains a per-block shadow checksum, so
	// recovery detects silent media corruption anywhere it reads.
	Integrity bool
}

// Meta locates the Store's persistent structures for recovery.
type Meta struct {
	Table        memory.Addr
	Blocks       int
	Journal      memory.Addr
	JournalBytes uint64
	// CommittedHead is the persistent commit point: a monotonic ring
	// offset covering all committed records. With Integrity it is the
	// base of a 40-byte durable word.
	CommittedHead memory.Addr
	// Checkpoint is the persistent truncation point: records below it
	// are already applied in place. With Integrity it is the base of a
	// 40-byte durable word.
	Checkpoint memory.Addr
	// Integrity marks the hardened layout (durable-word pointers,
	// CRC-framed records, per-block shadow checksums).
	Integrity bool
	// BlockCRC is the shadow checksum array (one word per table block),
	// maintained alongside every in-place apply. Zero unless Integrity.
	BlockCRC memory.Addr
}

// Store is the journaled metadata store.
type Store struct {
	cfg  Config
	meta Meta
	lock *locks.MCS
	// headV is the volatile journal append cursor (monotonic).
	headV memory.Addr
	// txnSeq is the volatile transaction id counter.
	txnSeq memory.Addr
}

// New allocates and initializes a Store via a setup thread.
func New(s *exec.Thread, cfg Config) (*Store, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("journal: need at least one block")
	}
	if cfg.JournalBytes == 0 || cfg.JournalBytes%64 != 0 {
		return nil, fmt.Errorf("journal: JournalBytes %d must be a positive multiple of 64", cfg.JournalBytes)
	}
	if cfg.JournalBytes < 4*recordBytes {
		return nil, fmt.Errorf("journal: ring too small")
	}
	st := &Store{cfg: cfg}
	ptrBytes := 8
	if cfg.Integrity {
		ptrBytes = durable.WordBytes
	}
	st.meta = Meta{
		Table:         s.MallocPersistent(cfg.Blocks*BlockBytes, 64),
		Blocks:        cfg.Blocks,
		Journal:       s.MallocPersistent(int(cfg.JournalBytes), 64),
		JournalBytes:  cfg.JournalBytes,
		CommittedHead: s.MallocPersistent(ptrBytes, 64),
		Checkpoint:    s.MallocPersistent(ptrBytes, 64),
		Integrity:     cfg.Integrity,
	}
	if cfg.Integrity {
		st.meta.BlockCRC = s.MallocPersistent(cfg.Blocks*8, 64)
		durable.Word{Base: st.meta.CommittedHead}.Init(s, 0)
		durable.Word{Base: st.meta.Checkpoint}.Init(s, 0)
	} else {
		s.Store8(st.meta.CommittedHead, 0)
		s.Store8(st.meta.Checkpoint, 0)
	}
	s.PersistBarrier()
	st.lock = locks.NewMCS(s)
	st.headV = s.MallocVolatile(8, 64)
	st.txnSeq = s.MallocVolatile(8, 64)
	s.Store8(st.headV, 0)
	s.Store8(st.txnSeq, 0)
	return st, nil
}

// MustNew is New that panics on config errors.
func MustNew(s *exec.Thread, cfg Config) *Store {
	st, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return st
}

// Meta returns the persistent layout for recovery.
func (st *Store) Meta() Meta { return st.meta }

// Annotation helpers: which barriers each core.Policy emits here.
// Epoch surrounds the lock with barriers and keeps the record, commit
// and apply stages in separate epochs; strand also begins a new strand
// per transaction after the checkpoint bookkeeping. Racing epochs drops
// the barriers around the lock (barrierInner), which is unsafe for this
// structure (see the package comment); it exists for the negative crash
// tests.

func (st *Store) barrierOuter(t *exec.Thread) {
	if st.cfg.Policy != core.PolicyStrict {
		t.PersistBarrier()
	}
}

func (st *Store) barrierInner(t *exec.Thread) {
	if st.cfg.Policy == core.PolicyEpoch || st.cfg.Policy == core.PolicyStrand {
		t.PersistBarrier()
	}
}

func (st *Store) barrierStage(t *exec.Thread) {
	if st.cfg.Policy != core.PolicyStrict {
		t.PersistBarrier()
	}
}

// Pointer accessors: integrity mode stores the commit point and the
// checkpoint in dual-copy durable words whose commit point is the CDB
// flip at the word's base address — the same address the plain layout
// uses, so the strand recipe's Load8 keeps importing the right
// dependence either way.

func (st *Store) relaxed() bool { return st.cfg.Policy != core.PolicyStrict }

func (st *Store) loadCheckpoint(t *exec.Thread) uint64 {
	if st.cfg.Integrity {
		return durable.Word{Base: st.meta.Checkpoint}.Load(t)
	}
	return t.Load8(st.meta.Checkpoint)
}

func (st *Store) storeCheckpoint(t *exec.Thread, v uint64) {
	if st.cfg.Integrity {
		durable.Word{Base: st.meta.Checkpoint}.Store(t, v, st.relaxed())
		return
	}
	t.Store8(st.meta.Checkpoint, v)
}

func (st *Store) storeCommitted(t *exec.Thread, v uint64) {
	if st.cfg.Integrity {
		durable.Word{Base: st.meta.CommittedHead}.Store(t, v, st.relaxed())
		return
	}
	t.Store8(st.meta.CommittedHead, v)
}

// Write is one block update within a transaction.
type Write struct {
	// Block is the table index.
	Block int
	// Data is exactly BlockBytes of new content.
	Data []byte
}

// Update applies a multi-block transaction atomically with respect to
// failure. It returns the transaction id.
func (st *Store) Update(t *exec.Thread, writes []Write) uint64 {
	if len(writes) == 0 {
		panic("journal: empty transaction")
	}
	need := uint64(len(writes)+1) * recordBytes // +1 slot of wrap slack
	if need > st.cfg.JournalBytes/2 {
		panic("journal: transaction larger than half the ring")
	}
	for _, w := range writes {
		if w.Block < 0 || w.Block >= st.cfg.Blocks {
			panic(fmt.Sprintf("journal: block %d out of range", w.Block))
		}
		if len(w.Data) != BlockBytes {
			panic(fmt.Sprintf("journal: block data must be %d bytes, got %d", BlockBytes, len(w.Data)))
		}
	}

	st.barrierOuter(t)
	st.lock.Acquire(t)
	txn := t.Add8(st.txnSeq, 1)
	head := t.Load8(st.headV)
	ckpt := st.loadCheckpoint(t)
	st.barrierInner(t)

	// Make room before starting a new strand. Truncation must stay
	// ordered after prior transactions' in-place applies; the inner
	// barrier just bound them (every prior transaction bound its
	// applies before releasing the lock), which is why the racing
	// discipline — which drops that barrier — is unsafe for this
	// structure (the crash tests demonstrate it).
	if head+need-ckpt > st.cfg.JournalBytes {
		st.storeCheckpoint(t, head)
		st.barrierStage(t)
	}

	if st.cfg.Policy == core.PolicyStrand {
		t.NewStrand()
		if !st.cfg.OmitStrandRecipe {
			// §5.3's recipe: "a persist strand begins by reading persisted
			// memory locations after which new persists must be ordered",
			// followed by a persist barrier. Every persist of this
			// transaction — the records overwrite freed ring slots, and the
			// commit word widens the live window — must follow the latest
			// checkpoint truncation, or a crash can expose a stale
			// checkpoint alongside newer ring contents.
			t.Load8(st.meta.Checkpoint)
			t.PersistBarrier()
		}
	}

	// Stage 1: redo records (concurrent persists within the epoch).
	for _, w := range writes {
		head = st.appendRecord(t, head, txn, uint64(w.Block), w.Data)
	}
	if !st.cfg.BreakRecordCommitOrder {
		st.barrierStage(t) // records before commit
	}

	// Stage 2: commit — a single word; strong persist atomicity
	// serializes commits under every model. (In integrity mode the
	// CDB flip plays that single-word role.)
	st.storeCommitted(t, head)
	st.barrierStage(t) // commit before in-place applies

	// Stage 3: in-place applies (redone at recovery if torn). With
	// integrity each apply refreshes the block's shadow checksum in the
	// same epoch, so truncation retires a block's redo records only
	// after both content and shadow are bound.
	for _, w := range writes {
		addr := st.meta.Table + memory.Addr(w.Block*BlockBytes)
		t.StoreBytes(addr, w.Data)
		if st.cfg.Integrity {
			t.Store8(st.meta.BlockCRC+memory.Addr(w.Block*8), durable.Checksum(uint64(addr), w.Data))
		}
	}
	st.barrierInner(t) // applies bound before the lock release exports

	t.Store8(st.headV, head)
	st.lock.Release(t)
	st.barrierOuter(t)
	return txn
}

// appendRecord persists one redo record at monotonic offset pos and
// returns the next offset, skipping the ring tail with a wrap marker
// when the slot would straddle the end.
func (st *Store) appendRecord(t *exec.Thread, pos uint64, txn, blk uint64, data []byte) uint64 {
	idx := pos % st.cfg.JournalBytes
	if idx+recordBytes > st.cfg.JournalBytes {
		t.Store8(st.meta.Journal+memory.Addr(idx), wrapKind)
		pos += st.cfg.JournalBytes - idx
		idx = 0
	}
	base := st.meta.Journal + memory.Addr(idx)
	if st.cfg.Integrity {
		// CRC64 frame bound to the ring offset: [len | txn blk data | crc].
		payload := make([]byte, recordPayloadBytes)
		binary.LittleEndian.PutUint64(payload[0:8], txn)
		binary.LittleEndian.PutUint64(payload[8:16], blk)
		copy(payload[16:], data)
		durable.SealFrame(t, base, pos, payload)
		return pos + recordBytes
	}
	t.Store8(base, kindData)
	t.Store8(base+8, txn)
	t.Store8(base+16, blk)
	t.StoreBytes(base+24, data)
	t.Store8(base+24+BlockBytes, recordChecksum(pos, txn, blk, data))
	return pos + recordBytes
}

// Read returns the current content of a table block (runtime read, not
// recovery).
func (st *Store) Read(t *exec.Thread, block int) []byte {
	out := make([]byte, BlockBytes)
	t.LoadBytes(st.meta.Table+memory.Addr(block*BlockBytes), out)
	return out
}

// recordChecksum binds a journal slot to its monotonic offset and
// content, so stale ring eras and partial writes are detectable.
func recordChecksum(pos, txn, blk uint64, data []byte) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(pos)
	mix(txn)
	mix(blk)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
