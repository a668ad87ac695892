package durable

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/memory"
	"repro/internal/persistcheck"
)

// Word: a crash-atomic, corruption-detecting persistent uint64 cell.
//
// The plain structures commit through a single persistent word because
// strong persist atomicity serializes same-word persists under every
// model — but a single word has no redundancy: a silent bit flip in
// the queue's head or the journal's commit point re-frames the whole
// structure with a clean report. Word trades one cell for a dual-copy
// layout selected by a corruption-detecting boolean:
//
//	[ cdb 8B | aVal 8B | aCrc 8B | bVal 8B | bCrc 8B ]   (40 bytes)
//
// Store writes the *inactive* copy (value + CRC salted with the copy's
// address), orders it with a persist barrier, then flips the CDB — so
// the single-word CDB flip remains the atomic commit point, and any
// crash state shows a CDB whose active copy is fully persisted.
// Recovery (ReadWord) validates the active copy's CRC and falls back
// to the other copy when the CDB or the active copy is corrupt,
// reporting exactly what it detected.
//
// Because the commit metadata now spans several words, same-word
// atomicity alone no longer orders one Store against the next thread's
// — so Store opens with §5.3's read-then-barrier recipe: loading the
// CDB imports a dependence on the previous flip, and the barrier binds
// this Store's copy persists after it under every relaxed model. Word
// is meant for monotonic recovery metadata (ring offsets, transaction
// ids): when both copies validate but the CDB is corrupt, ReadWord
// prefers the larger value, which a monotonic protocol has always
// published safely.
const (
	// WordBytes is the persistent footprint of one durable Word.
	WordBytes = 40

	offCDB  = 0
	offAVal = 8
	offACRC = 16
	offBVal = 24
	offBCRC = 32
)

// Word locates one durable word by its base address (the CDB word).
type Word struct {
	Base memory.Addr
}

// NewWord allocates and initializes a durable word holding v. Both
// copies are written valid, a barrier orders them before the CDB, and
// the CDB selects copy A. The caller owns any trailing barrier (as
// with other setup-time persists).
func NewWord(s *exec.Thread, v uint64) Word {
	w := Word{Base: s.MallocPersistent(WordBytes, 64)}
	w.Init(s, v)
	return w
}

// Init (re)initializes the word in place to hold v with copy A active.
func (w Word) Init(s *exec.Thread, v uint64) {
	s.Store8(w.Base+offAVal, v)
	s.Store8(w.Base+offACRC, ChecksumWord(uint64(w.Base+offAVal), v))
	s.Store8(w.Base+offBVal, v)
	s.Store8(w.Base+offBCRC, ChecksumWord(uint64(w.Base+offBVal), v))
	// The copies must be bound before the CDB persist publishes them
	// (the same data→publication ordering every commit word needs).
	s.PersistBarrier()
	s.Store8(w.Base+offCDB, CDBFalse)
}

// Load reads the current value at runtime (trusted execution, no
// validation). The CDB is re-read after the copy to close the seqlock
// race with a concurrent Store by the copy's owner: a torn read is
// retried rather than returned.
func (w Word) Load(t *exec.Thread) uint64 {
	for {
		cdb := t.Load8(w.Base + offCDB)
		off := memory.Addr(offAVal)
		if b, _ := DecodeCDB(cdb); b {
			off = offBVal
		}
		v := t.Load8(w.Base + off)
		if t.Load8(w.Base+offCDB) == cdb {
			return v
		}
	}
}

// Store publishes v crash-atomically: write the inactive copy, bind
// it, flip the CDB. With relaxed true (any non-strict annotation
// discipline) Store emits the §5.3 recipe barrier after its CDB read
// and a barrier between the copy persists and the flip; under strict
// persistency execution order itself provides both.
func (w Word) Store(t *exec.Thread, v uint64, relaxed bool) {
	cdb := t.Load8(w.Base + offCDB)
	if relaxed {
		// Bind the imported dependence on the previous flip: this
		// Store's persists must be ordered after it (multi-word commit
		// metadata has no same-word atomicity chain to lean on).
		t.PersistBarrier()
	}
	valOff, next := memory.Addr(offBVal), CDBTrue // A active: write B
	if b, _ := DecodeCDB(cdb); b {
		valOff, next = offAVal, CDBFalse // B active: write A
	}
	t.Store8(w.Base+valOff, v)
	t.Store8(w.Base+valOff+8, ChecksumWord(uint64(w.Base+valOff), v))
	if relaxed {
		t.PersistBarrier() // copy before flip: the flip is the commit point
	}
	t.Store8(w.Base+offCDB, next)
}

// WordRead is the recovery-side outcome of reading a durable word.
type WordRead struct {
	// Val is the recovered value (meaningful only when OK).
	Val uint64
	// OK is false when no copy could be trusted.
	OK bool
	// CRCDetected counts copy CRC mismatches encountered.
	CRCDetected int
	// CDBDetected counts corrupt (non-constant) CDB reads.
	CDBDetected int
	// PoisonedWords counts poisoned cells encountered.
	PoisonedWords int
	// Fallback reports that the returned value came from the non-active
	// or heuristically chosen copy.
	Fallback bool
}

// Absorb merges the read's detections into a recovery report,
// labeling notes with the word's role (e.g. "head", "committed").
func (r WordRead) Absorb(rep *fault.RecoveryReport, name string) {
	rep.CRCDetected += r.CRCDetected
	rep.CDBDetected += r.CDBDetected
	rep.PoisonedWords += r.PoisonedWords
	rep.BytesScanned += WordBytes
	if r.CRCDetected > 0 || r.PoisonedWords > 0 {
		rep.Note("%s copy corrupt (fallback %v)", name, r.Fallback)
	}
	if r.CDBDetected > 0 {
		rep.Note("%s cdb corrupt", name)
	}
	if !r.OK {
		rep.Note("%s unrecoverable", name)
	}
}

// ReadWord reads a durable word from a post-crash image, validating
// CDB and copy CRCs and falling back as the layout allows.
func ReadWord(im *memory.Image, base memory.Addr) WordRead {
	var r WordRead
	readCopy := func(valOff memory.Addr) (v uint64, valid bool) {
		if im.Poisoned(base+valOff) || im.Poisoned(base+valOff+8) {
			r.PoisonedWords++
			return 0, false
		}
		v = im.ReadWord(base + valOff)
		if im.ReadWord(base+valOff+8) != ChecksumWord(uint64(base+valOff), v) {
			r.CRCDetected++
			return 0, false
		}
		return v, true
	}

	cdbKnown := false
	var active bool
	if im.Poisoned(base + offCDB) {
		r.PoisonedWords++
	} else if cdb := im.ReadWord(base + offCDB); cdb == 0 {
		// Never persisted: a crash can cut the word's initialization
		// before the first CDB flip, leaving all-zero state. A single-bit
		// flip of either CDB constant cannot produce zero, and the store
		// recipe orders every copy write after the preceding flip, so the
		// copies hold at most the zero-valued Init state — the word reads
		// as value 0, no corruption evidence.
		r.OK = true
		return r
	} else if b, ok := DecodeCDB(cdb); ok {
		cdbKnown, active = true, b
	} else {
		r.CDBDetected++
	}

	if cdbKnown {
		actOff, othOff := memory.Addr(offAVal), memory.Addr(offBVal)
		if active {
			actOff, othOff = offBVal, offAVal
		}
		if v, valid := readCopy(actOff); valid {
			r.Val, r.OK = v, true
			return r
		}
		if v, valid := readCopy(othOff); valid {
			r.Val, r.OK, r.Fallback = v, true, true
		}
		return r
	}
	// Corrupt CDB: trust whichever copies validate; with both valid,
	// prefer the larger value (monotonic metadata: the larger value was
	// published with everything it covers already bound).
	av, aok := readCopy(offAVal)
	bv, bok := readCopy(offBVal)
	switch {
	case aok && bok:
		r.Val = av
		if bv > av {
			r.Val = bv
		}
		r.OK, r.Fallback = true, true
	case aok:
		r.Val, r.OK, r.Fallback = av, true, true
	case bok:
		r.Val, r.OK, r.Fallback = bv, true, true
	}
	return r
}

// Checks returns the persistency-checker annotations for a durable
// word whose value publishes the given data extents (the same scope
// semantics as persistcheck.Publication: valueCovers for monotonic
// offsets over data[0], allThreads for global-summary words, plain
// otherwise). Both value copies carry the publication obligation, and
// the CDB word is itself a plain publication over the copy region —
// the flip must be ordered after the copy persists it activates.
func (w Word) Checks(name string, data []persistcheck.Extent, valueCovers, allThreads bool) []persistcheck.Publication {
	pubs := []persistcheck.Publication{{
		Name:        fmt.Sprintf("%s-copy-a", name),
		Word:        w.Base + offAVal,
		Data:        data,
		ValueCovers: valueCovers,
		AllThreads:  allThreads,
	}, {
		Name:        fmt.Sprintf("%s-copy-b", name),
		Word:        w.Base + offBVal,
		Data:        data,
		ValueCovers: valueCovers,
		AllThreads:  allThreads,
	}, {
		Name: fmt.Sprintf("%s-cdb", name),
		Word: w.Base + offCDB,
		Data: []persistcheck.Extent{{Addr: w.Base + offAVal, Size: WordBytes - 8}},
	}}
	return pubs
}

// Extent returns the word's persistent footprint (for Protected
// declarations).
func (w Word) Extent() persistcheck.Extent {
	return persistcheck.Extent{Addr: w.Base, Size: WordBytes}
}
