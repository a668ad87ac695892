package pstm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/memory"
)

// Recovery: if the armed transaction id is not sealed, roll back its
// valid undo records. Records are self-validating. On a clean crash
// state records persist strictly in slot order, so every slot past the
// last valid one is the arming frontier (nothing at or beyond it
// reached the in-place stage, because each in-place store is ordered
// after its record by a barrier) and the report stays clean. A faulty
// device can tear record k while record k+1 survives; treating k as
// the frontier would silently skip k+1's rollback. Recover therefore
// scans every slot: invalid slots *below the last valid slot* are torn
// current-transaction records (quarantined, rollback degraded to
// best-effort), while invalid slots beyond the last valid one are the
// normal arming frontier.
//
// Under the integrity format the arm and seal are durable words
// (detections land in the report), records are CRC64 frames, and every
// untouched data word is checked against its shadow checksum — a
// silent flip anywhere recovery trusts is detected rather than served.
// A caller that wants the strict reading treats a report whose
// Detected() is true as a failed recovery (observer.Strict).

// State is the recovered heap.
type State struct {
	// Words holds the recovered data.
	Words []uint64
	// RolledBack reports whether an unsealed transaction was undone.
	RolledBack bool
	// Undone counts rolled-back records.
	Undone int
}

// Recover rebuilds the heap from a post-crash image and reports what
// it quarantined. The error is non-nil only for unusable metadata.
func Recover(im *memory.Image, meta Meta) (*State, fault.RecoveryReport, error) {
	var rep fault.RecoveryReport
	if meta.Words <= 0 || meta.UndoCap <= 0 {
		return nil, rep, fmt.Errorf("pstm: bad recovery metadata")
	}
	st := &State{Words: make([]uint64, meta.Words)}
	dataPoisoned := make([]bool, meta.Words)
	for i := 0; i < meta.Words; i++ {
		a := meta.Data + memory.Addr(i*8)
		st.Words[i] = im.ReadWord(a)
		if im.Poisoned(a) {
			rep.PoisonedWords++
			dataPoisoned[i] = true
			rep.Note("data word %d poisoned", i)
		}
	}
	rep.BytesScanned += uint64(meta.Words) * memory.WordSize

	var armed, done uint64
	count := -1 // integrity: explicit record count; legacy: scan frontier
	if meta.Integrity {
		ar := durable.ReadWord(im, meta.TxnID)
		dr := durable.ReadWord(im, meta.Done)
		ar.Absorb(&rep, "armed")
		dr.Absorb(&rep, "seal")
		armed, count = armedSplit(ar.Val)
		done = dr.Val
		if !ar.OK || !dr.OK {
			rep.HeaderQuarantined = true
			rep.Note("armed/seal words unrecoverable")
		}
		if count > meta.UndoCap {
			rep.HeaderQuarantined = true
			rep.Note("record count %d exceeds undo capacity %d", count, meta.UndoCap)
		}
	} else {
		armed = im.ReadWord(meta.TxnID)
		done = im.ReadWord(meta.Done)
		rep.BytesScanned += 2 * memory.WordSize
		if im.Poisoned(meta.TxnID) || im.Poisoned(meta.Done) {
			if im.Poisoned(meta.TxnID) {
				rep.PoisonedWords++
			}
			if im.Poisoned(meta.Done) {
				rep.PoisonedWords++
			}
			rep.HeaderQuarantined = true
			rep.Note("armed/seal words poisoned")
		}
	}
	if done > armed {
		rep.HeaderQuarantined = true
		rep.Note("seal %d beyond armed id %d", done, armed)
	}
	if rep.HeaderQuarantined {
		// No way to tell whether a transaction was in flight; the data
		// words are returned as-is, disclosed as degraded.
		return st, rep, nil
	}

	rolledBack := make([]bool, meta.Words)
	type undoRec struct {
		word, old uint64
	}
	if meta.Integrity && armed != 0 && done != armed {
		// The armed word's count says exactly how many records exist, so
		// there is no frontier to guess: every slot below it either
		// opens (rolled back) or is detected corruption (rollback
		// incomplete, disclosed).
		valid := make([]bool, count)
		recs := make([]undoRec, count)
		for k := 0; k < count; k++ {
			base := meta.Undo + memory.Addr(k*recordBytes)
			rep.BytesScanned += recordBytes
			if im.RangePoisoned(base, recordBytes) {
				rep.PoisonedWords++
				rep.Quarantined++
				rep.Note("undo record %d poisoned; rollback incomplete", k)
				continue
			}
			payload, ok := durable.OpenFrame(im, base, recSalt(armed, k), recordPayloadBytes)
			if !ok || len(payload) != recordPayloadBytes {
				rep.CRCDetected++
				rep.Quarantined++
				rep.Note("undo record %d frame CRC mismatch; rollback incomplete", k)
				continue
			}
			w := binary.LittleEndian.Uint64(payload[0:8])
			old := binary.LittleEndian.Uint64(payload[8:16])
			if w >= uint64(meta.Words) {
				rep.Quarantined++
				rep.Note("undo record %d targets word %d out of range", k, w)
				continue
			}
			valid[k], recs[k] = true, undoRec{w, old}
		}
		for k := count - 1; k >= 0; k-- {
			if valid[k] {
				st.Words[recs[k].word] = recs[k].old
				rolledBack[recs[k].word] = true
				st.Undone++
				rep.Recovered++
			}
		}
		st.RolledBack = st.Undone > 0
	} else if armed != 0 && done != armed {
		// Transaction `armed` is unsealed: collect every slot that
		// validates against it.
		valid := make([]bool, meta.UndoCap)
		recs := make([]undoRec, meta.UndoCap)
		poisoned := make([]bool, meta.UndoCap)
		last := -1
		for k := 0; k < meta.UndoCap; k++ {
			base := meta.Undo + memory.Addr(k*recordBytes)
			rep.BytesScanned += recordBytes
			if im.RangePoisoned(base, 24) {
				rep.PoisonedWords++
				poisoned[k] = true
				continue
			}
			w := im.ReadWord(base)
			old := im.ReadWord(base + 8)
			if im.ReadWord(base+16) != recChecksum(armed, k, w, old) {
				continue
			}
			if w >= uint64(meta.Words) {
				// A validating checksum over an out-of-range target is
				// corruption beyond doubt, not a frontier.
				rep.Quarantined++
				rep.Note("undo record %d targets word %d out of range", k, w)
				continue
			}
			valid[k], recs[k] = true, undoRec{w, old}
			last = k
		}
		// Slots at or below the last valid one that failed to validate
		// are torn/rotted records of the armed transaction.
		for k := 0; k < last; k++ {
			if !valid[k] {
				rep.Quarantined++
				if poisoned[k] {
					rep.Note("undo record %d poisoned; rollback incomplete", k)
				} else {
					rep.Note("undo record %d torn; rollback incomplete", k)
				}
			}
		}
		// Best-effort rollback, newest first.
		for k := last; k >= 0; k-- {
			if valid[k] {
				st.Words[recs[k].word] = recs[k].old
				rolledBack[recs[k].word] = true
				st.Undone++
				rep.Recovered++
			}
		}
		st.RolledBack = st.Undone > 0
	}

	if meta.Integrity {
		// Shadow checksums: every word the in-flight transaction did not
		// roll back must match (rolled-back words were restored from
		// verified frames; poisoned words are already disclosed).
		rep.BytesScanned += uint64(meta.Words) * memory.WordSize
		for i := 0; i < meta.Words; i++ {
			if rolledBack[i] || dataPoisoned[i] {
				continue
			}
			if im.Poisoned(meta.ShadowCRC + memory.Addr(i*8)) {
				rep.PoisonedWords++
				rep.Note("shadow word %d poisoned", i)
				continue
			}
			if shadowMismatch(im, meta, i) {
				rep.CRCDetected++
				rep.Quarantined++
				rep.Note("data word %d shadow checksum mismatch", i)
			}
		}
		// Detect-and-discard: a sealed transaction's undo records stay
		// behind in their slots — recovery deliberately ignores them.
		if armed != 0 && done == armed {
			for k := 0; k < count; k++ {
				base := meta.Undo + memory.Addr(k*recordBytes)
				if im.RangePoisoned(base, recordBytes) {
					break
				}
				if _, ok := durable.OpenFrame(im, base, recSalt(armed, k), recordPayloadBytes); !ok {
					break
				}
				rep.DiscardedRecords++
			}
		}
	}
	return st, rep, nil
}

// shadowMismatch reports whether data word i fails its shadow
// checksum. A zero word with a zero shadow is the never-written
// initial state and passes.
func shadowMismatch(im *memory.Image, meta Meta, i int) bool {
	a := meta.Data + memory.Addr(i*8)
	v := im.ReadWord(a)
	shadow := im.ReadWord(meta.ShadowCRC + memory.Addr(i*8))
	if shadow == 0 && v == 0 {
		return false
	}
	return shadow != durable.ChecksumWord(uint64(a), v)
}
