// Package pstm layers durable transactions on top of the persistency
// API — the direction the paper's related work surveys ("transactions
// are a common and powerful paradigm for handling both concurrency
// control and durability, so many authors have proposed layering
// transactions on top of nonvolatile memory", §9; Mnemosyne, NV-heaps,
// Kiln). It is a word-granular undo-log STM:
//
//   - the first write to each word in a transaction persists an undo
//     record (index, old value), then a persist barrier orders the
//     record before the in-place update;
//   - updates happen in place, so reads trivially see own writes;
//   - commit persists all in-place updates (barrier), then seals the
//     transaction by persisting its id into a single Done word — the
//     strong-persist-atomicity commit point used throughout this
//     reproduction;
//   - recovery rolls back an unsealed transaction from its undo
//     records, which are self-validating (checksums bound to the
//     transaction id and slot), and leaves sealed transactions alone.
//
// Annotation disciplines mirror the other workloads. As with the
// journal, the racing-epochs discipline is unsafe: a new transaction's
// undo records overwrite the previous transaction's slots and must be
// ordered after its seal, which only the barriers around the lock
// provide. Strand persistency uses §5.3's read-then-barrier recipe on
// the Done word.
package pstm

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
	// recordBytes is one undo slot: word index, old value, checksum,
	// padded to half a line. The integrity format reuses the same slot
	// size: an 8-byte length word, the 16-byte (index, old) payload, and
	// a CRC64 trailer bound to the transaction id and slot.
	recordBytes = 32
	// recordPayloadBytes is the framed undo payload: word index and old
	// value, little-endian.
	recordPayloadBytes = 16
)

// recSalt binds an integrity undo frame to its transaction and slot,
// the same role recChecksum's (txn, slot) inputs play for the legacy
// format: a stale record from an earlier transaction in a reused slot
// fails to open.
func recSalt(txn uint64, slot int) uint64 {
	return durable.ChecksumWord(txn, uint64(slot))
}

// The legacy format finds the arming frontier by scanning for the
// first record that fails its checksum — which makes a bit flip in the
// armed transaction's newest record indistinguishable from the
// frontier, the documented silent-corruption hole. The integrity
// format closes it by making the frontier explicit: the armed durable
// word carries the record count alongside the id, advanced only after
// each record's frame is bound and before its in-place update. Any
// frame below the count that fails to open is then detected
// corruption, never a frontier.
const armCountBits = 16

// armedVal packs a transaction id and its sealed-record count into the
// armed word's integrity encoding.
func armedVal(id uint64, n int) uint64 { return id<<armCountBits | uint64(n) }

// armedSplit undoes armedVal.
func armedSplit(v uint64) (id uint64, n int) {
	return v >> armCountBits, int(v & (1<<armCountBits - 1))
}

// Config parameterizes a Heap.
type Config struct {
	// Words is the persistent data array size (8-byte words).
	Words int
	// UndoCap bounds the write set of one transaction.
	UndoCap int
	// Policy selects annotations.
	Policy core.Policy
	// Integrity enables the corruption-detecting durable format
	// (internal/durable): the arm and seal words become dual-copy
	// durable words behind corruption-detecting booleans, undo records
	// are CRC64-framed, and every data word keeps a shadow checksum.
	// Costs extra persists per transaction; recovery then detects (and
	// where possible rides out) silent media corruption instead of
	// trusting it.
	Integrity bool
}

// Meta locates the persistent structures for recovery.
type Meta struct {
	Data  memory.Addr
	Words int
	// TxnID is the persistent word holding the armed transaction id.
	// With Integrity it is the base of a durable.Word (40 bytes).
	TxnID memory.Addr
	// Done is the persistent seal: holds the id of the last committed
	// transaction. With Integrity it is a durable.Word base.
	Done memory.Addr
	// Undo is the undo record array.
	Undo    memory.Addr
	UndoCap int
	// Integrity mirrors Config.Integrity for recovery.
	Integrity bool
	// ShadowCRC is the per-data-word shadow checksum array (Integrity
	// only): word i's checksum, salted with its address, lives at
	// ShadowCRC + i*8 and is written alongside every in-place store.
	ShadowCRC memory.Addr
}

// Heap is a durable-transactional array of words.
type Heap struct {
	cfg  Config
	meta Meta
	lock *locks.MCS
	// seqV is the volatile transaction id counter.
	seqV memory.Addr
}

// New allocates and initializes a Heap via a setup thread.
func New(s *exec.Thread, cfg Config) (*Heap, error) {
	if cfg.Words <= 0 {
		return nil, fmt.Errorf("pstm: need at least one word")
	}
	if cfg.UndoCap <= 0 {
		cfg.UndoCap = 16
	}
	if cfg.Integrity && cfg.UndoCap >= 1<<armCountBits {
		return nil, fmt.Errorf("pstm: UndoCap %d exceeds the armed word's count field", cfg.UndoCap)
	}
	h := &Heap{cfg: cfg}
	ptrBytes := int(memory.WordSize)
	if cfg.Integrity {
		ptrBytes = durable.WordBytes
	}
	h.meta = Meta{
		Data:      s.MallocPersistent(cfg.Words*8, 64),
		Words:     cfg.Words,
		TxnID:     s.MallocPersistent(ptrBytes, 64),
		Done:      s.MallocPersistent(ptrBytes, 64),
		Undo:      s.MallocPersistent(cfg.UndoCap*recordBytes, 64),
		UndoCap:   cfg.UndoCap,
		Integrity: cfg.Integrity,
	}
	if cfg.Integrity {
		// Shadow checksums come last so the earlier offsets match the
		// plain layout. Zero shadows over zero data words are the valid
		// never-written initial state, so no seeding is needed.
		h.meta.ShadowCRC = s.MallocPersistent(cfg.Words*8, 64)
		durable.Word{Base: h.meta.TxnID}.Init(s, 0)
		durable.Word{Base: h.meta.Done}.Init(s, 0)
	} else {
		s.Store8(h.meta.TxnID, 0)
		s.Store8(h.meta.Done, 0)
	}
	s.PersistBarrier()
	h.lock = locks.NewMCS(s)
	h.seqV = s.MallocVolatile(8, 64)
	s.Store8(h.seqV, 0)
	return h, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(s *exec.Thread, cfg Config) *Heap {
	h, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Meta returns the persistent layout for recovery.
func (h *Heap) Meta() Meta { return h.meta }

func (h *Heap) relaxed() bool { return h.cfg.Policy != core.PolicyStrict }

func (h *Heap) storeTxnID(t *exec.Thread, v uint64) {
	if h.cfg.Integrity {
		durable.Word{Base: h.meta.TxnID}.Store(t, v, h.relaxed())
		return
	}
	t.Store8(h.meta.TxnID, v)
}

func (h *Heap) storeDone(t *exec.Thread, v uint64) {
	if h.cfg.Integrity {
		durable.Word{Base: h.meta.Done}.Store(t, v, h.relaxed())
		return
	}
	t.Store8(h.meta.Done, v)
}

// storeData writes data word i in place, keeping its shadow checksum
// current under the integrity format. Both stores sit between the same
// barriers, so wherever the in-place update is bound, so is its shadow.
func (h *Heap) storeData(t *exec.Thread, i uint64, v uint64) {
	a := h.meta.Data + memory.Addr(i*8)
	t.Store8(a, v)
	if h.cfg.Integrity {
		t.Store8(h.meta.ShadowCRC+memory.Addr(i*8), durable.ChecksumWord(uint64(a), v))
	}
}

// Annotation helpers: which barriers each core.Policy emits here.
// Epoch puts persist barriers around the lock and between transaction
// stages; strand runs each transaction in its own persist strand.
// Racing epochs drops the barriers around the lock (barrierInner),
// which is unsafe for this structure (see the package comment); it
// exists for the negative tests.

func (h *Heap) barrierOuter(t *exec.Thread) {
	if h.cfg.Policy != core.PolicyStrict {
		t.PersistBarrier()
	}
}

func (h *Heap) barrierInner(t *exec.Thread) {
	if h.cfg.Policy == core.PolicyEpoch || h.cfg.Policy == core.PolicyStrand {
		t.PersistBarrier()
	}
}

func (h *Heap) barrierStage(t *exec.Thread) {
	if h.cfg.Policy != core.PolicyStrict {
		t.PersistBarrier()
	}
}

// Tx is one durable transaction. Use it only inside Atomic's body.
type Tx struct {
	h       *Heap
	t       *exec.Thread
	id      uint64
	written map[int]bool
	n       int
	aborted bool
}

// Load reads word i, seeing the transaction's own writes.
func (tx *Tx) Load(i int) uint64 {
	tx.check(i)
	return tx.t.Load8(tx.h.meta.Data + memory.Addr(i*8))
}

// Store writes word i. The first write to each word persists an undo
// record before the in-place update.
func (tx *Tx) Store(i int, v uint64) {
	tx.check(i)
	if !tx.written[i] {
		if tx.n >= tx.h.cfg.UndoCap {
			panic(fmt.Sprintf("pstm: transaction exceeds UndoCap %d", tx.h.cfg.UndoCap))
		}
		old := tx.t.Load8(tx.h.meta.Data + memory.Addr(i*8))
		rec := tx.h.meta.Undo + memory.Addr(tx.n*recordBytes)
		if tx.h.cfg.Integrity {
			var payload [recordPayloadBytes]byte
			binary.LittleEndian.PutUint64(payload[0:8], uint64(i))
			binary.LittleEndian.PutUint64(payload[8:16], old)
			durable.SealFrame(tx.t, rec, recSalt(tx.id, tx.n), payload[:])
		} else {
			tx.t.Store8(rec, uint64(i))
			tx.t.Store8(rec+8, old)
			tx.t.Store8(rec+16, recChecksum(tx.id, tx.n, uint64(i), old))
		}
		// The record must persist before the in-place update it makes
		// undoable.
		tx.h.barrierStage(tx.t)
		tx.written[i] = true
		tx.n++
		if tx.h.cfg.Integrity {
			// Advance the explicit frontier: the count moves only after
			// the record is bound and before the in-place update it
			// covers, so recovery never has to guess where records end.
			tx.h.storeTxnID(tx.t, armedVal(tx.id, tx.n))
			tx.h.barrierStage(tx.t)
		}
	}
	tx.h.storeData(tx.t, uint64(i), v)
}

// Abort rolls the transaction back in place and marks it aborted; the
// enclosing Atomic returns false.
func (tx *Tx) Abort() {
	tx.aborted = true
}

func (tx *Tx) check(i int) {
	if i < 0 || i >= tx.h.cfg.Words {
		panic(fmt.Sprintf("pstm: word %d out of range", i))
	}
}

// Atomic runs fn as one durable transaction and reports whether it
// committed (false when fn called Abort). Transactions serialize on
// the heap's lock.
func (h *Heap) Atomic(t *exec.Thread, fn func(tx *Tx)) bool {
	h.barrierOuter(t)
	h.lock.Acquire(t)
	id := t.Add8(h.seqV, 1)
	h.barrierInner(t)
	if h.cfg.Policy == core.PolicyStrand {
		t.NewStrand()
		// §5.3: this transaction's persists (records overwrite the
		// previous transaction's slots; the arm and seal words chain)
		// must follow the previous seal.
		t.Load8(h.meta.Done)
		t.PersistBarrier()
	}

	// Arm: the transaction id validates this transaction's records.
	armID := id
	if h.cfg.Integrity {
		armID = armedVal(id, 0)
	}
	h.storeTxnID(t, armID)
	h.barrierStage(t) // arm before records and updates

	tx := &Tx{h: h, t: t, id: id, written: make(map[int]bool)}
	fn(tx)

	if tx.aborted {
		// Roll back in place (reverse order; each word recorded once).
		for k := tx.n - 1; k >= 0; k-- {
			rec := h.meta.Undo + memory.Addr(k*recordBytes)
			var w, old uint64
			if h.cfg.Integrity {
				// Framed slot: payload [index, old] starts after the
				// length word.
				w = t.Load8(rec + 8)
				old = t.Load8(rec + 16)
			} else {
				w = t.Load8(rec)
				old = t.Load8(rec + 8)
			}
			h.storeData(t, w, old)
		}
	}
	// Updates (or the rollback) must persist before the seal declares
	// the transaction finished.
	h.barrierStage(t)
	h.storeDone(t, id) // commit point: single-word seal
	h.barrierInner(t)
	h.lock.Release(t)
	h.barrierOuter(t)
	return !tx.aborted
}

// recChecksum binds an undo record to its transaction and slot.
func recChecksum(txn uint64, slot int, word, old uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(txn)
	mix(uint64(slot))
	mix(word)
	mix(old)
	return h
}
