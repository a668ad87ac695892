package journal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/memory"
)

// Recovery: rebuilding the metadata table from a post-crash image by
// redoing all journal records between the checkpoint and the
// persistent CommittedHead. The commit point only advances after its
// records persisted, so on a clean crash state every record in that
// window parses and verifies and the report stays clean. An invalid
// record there means an ordering bug or device corruption; records are
// fixed-size, so the scan quarantines it and resynchronizes at the
// next slot instead of failing. A quarantined record leaves its table
// block un-redone (possibly stale or torn in place) — that degradation
// is exactly what the report discloses; a later valid record for the
// same block heals it. A caller that wants the strict reading treats a
// report whose Detected() is true as a failed recovery
// (observer.Strict).

// State is the recovered store.
type State struct {
	// Table holds the recovered blocks.
	Table [][]byte
	// Records counts redo records replayed.
	Records int
	// Txns counts distinct transactions replayed.
	Txns int
}

// Block returns block i's recovered content.
func (s *State) Block(i int) []byte { return s.Table[i] }

// Recover rebuilds the table from a post-crash image and reports what
// it quarantined. The error is non-nil only for unusable metadata.
func Recover(im *memory.Image, meta Meta) (*State, fault.RecoveryReport, error) {
	var rep fault.RecoveryReport
	if meta.Blocks <= 0 || meta.JournalBytes == 0 || meta.JournalBytes%64 != 0 {
		return nil, rep, fmt.Errorf("journal: bad recovery metadata")
	}
	st := &State{Table: make([][]byte, meta.Blocks)}
	for i := 0; i < meta.Blocks; i++ {
		b := make([]byte, BlockBytes)
		base := meta.Table + memory.Addr(i*BlockBytes)
		im.ReadBytes(base, b)
		st.Table[i] = b
		if im.RangePoisoned(base, BlockBytes) {
			rep.PoisonedWords++
			rep.Note("table block %d poisoned", i)
		}
	}
	rep.BytesScanned += uint64(meta.Blocks * BlockBytes)

	var committed, ckpt uint64
	if meta.Integrity {
		// Durable-word pointers: detections land in the report; a
		// fallback read (older value) still anchors a safe redo — the
		// window only shrinks, and shadow checksums cover what a
		// regressed commit point leaves un-redone.
		hr := durable.ReadWord(im, meta.CommittedHead)
		cr := durable.ReadWord(im, meta.Checkpoint)
		hr.Absorb(&rep, "committed-head")
		cr.Absorb(&rep, "checkpoint")
		committed, ckpt = hr.Val, cr.Val
		if !hr.OK || !cr.OK {
			rep.HeaderQuarantined = true
			rep.Note("committed/checkpoint unrecoverable")
		}
	} else {
		committed = im.ReadWord(meta.CommittedHead)
		ckpt = im.ReadWord(meta.Checkpoint)
		if im.Poisoned(meta.CommittedHead) || im.Poisoned(meta.Checkpoint) {
			if im.Poisoned(meta.CommittedHead) {
				rep.PoisonedWords++
			}
			if im.Poisoned(meta.Checkpoint) {
				rep.PoisonedWords++
			}
			rep.HeaderQuarantined = true
			rep.Note("committed/checkpoint poisoned")
		}
	}
	// Both pointers advance in record-slot steps, so they stay
	// word-aligned; a torn persist of either shows up as misalignment
	// or an implausible window.
	if committed%memory.WordSize != 0 || ckpt%memory.WordSize != 0 ||
		ckpt > committed || committed-ckpt > meta.JournalBytes {
		rep.HeaderQuarantined = true
		rep.Note("implausible committed %d / checkpoint %d", committed, ckpt)
	}
	if rep.HeaderQuarantined {
		// Without a trustworthy redo window nothing can be replayed;
		// the table is returned as-is, disclosed as degraded.
		return st, rep, nil
	}

	txns := make(map[uint64]bool)
	redone := make(map[uint64]bool)
	for pos := ckpt; pos < committed; {
		idx := pos % meta.JournalBytes
		base := meta.Journal + memory.Addr(idx)
		if idx+recordBytes > meta.JournalBytes {
			// Writers always wrap here; the marker's actual value only
			// tells us whether the wrap word itself survived.
			if !im.Poisoned(base) && im.ReadWord(base) != wrapKind {
				rep.Quarantined++
				rep.Note("corrupt wrap marker at offset %d", pos)
			} else if im.Poisoned(base) {
				rep.PoisonedWords++
			}
			rep.BytesScanned += memory.WordSize
			pos += meta.JournalBytes - idx
			continue
		}
		rep.BytesScanned += recordBytes
		quarantine := func(reason string) {
			rep.Quarantined++
			rep.Note("record at offset %d: %s", pos, reason)
			pos += recordBytes
		}
		if im.RangePoisoned(base, recordBytes) {
			rep.PoisonedWords++
			quarantine("poisoned")
			continue
		}
		kind := im.ReadWord(base)
		if kind == wrapKind {
			// A wrap marker where a record fits: the writer never does
			// that, so the slot is corrupt; skip one record slot.
			quarantine("unexpected wrap marker")
			continue
		}
		if meta.Integrity {
			payload, ok := durable.OpenFrame(im, base, pos, recordPayloadBytes)
			if !ok || len(payload) != recordPayloadBytes {
				rep.CRCDetected++
				quarantine("frame CRC mismatch")
				continue
			}
			txn := binary.LittleEndian.Uint64(payload[0:8])
			blk := binary.LittleEndian.Uint64(payload[8:16])
			if blk >= uint64(meta.Blocks) {
				quarantine(fmt.Sprintf("block %d out of range", blk))
				continue
			}
			copy(st.Table[blk], payload[16:])
			redone[blk] = true
			st.Records++
			rep.Recovered++
			txns[txn] = true
			pos += recordBytes
			continue
		}
		if kind != kindData {
			quarantine(fmt.Sprintf("bad kind %#x", kind))
			continue
		}
		txn := im.ReadWord(base + 8)
		blk := im.ReadWord(base + 16)
		data := make([]byte, BlockBytes)
		im.ReadBytes(base+24, data)
		if im.ReadWord(base+24+BlockBytes) != recordChecksum(pos, txn, blk, data) {
			quarantine("checksum mismatch")
			continue
		}
		if blk >= uint64(meta.Blocks) {
			quarantine(fmt.Sprintf("block %d out of range", blk))
			continue
		}
		copy(st.Table[blk], data)
		st.Records++
		rep.Recovered++
		txns[txn] = true
		redone[blk] = true
		pos += recordBytes
	}
	st.Txns = len(txns)
	if meta.Integrity {
		// Blocks outside the redo window: content and shadow were both
		// bound before truncation retired their records, so a mismatch
		// is detected media corruption (the redo above already restored
		// every block the window covers).
		for i := 0; i < meta.Blocks; i++ {
			if redone[uint64(i)] || im.RangePoisoned(meta.Table+memory.Addr(i*BlockBytes), BlockBytes) {
				continue
			}
			if shadowMismatch(im, meta, i) {
				rep.CRCDetected++
				rep.Quarantined++
				rep.Note("table block %d shadow checksum mismatch", i)
			}
		}
		// Detect-and-discard: count frames past the commit point that
		// sealed fully before the crash — an uncommitted tail recovery
		// deliberately leaves behind. Bounded by the ring; the scan
		// stops at the first slot that fails to open at its offset
		// (never-written space or a torn seal).
		for pos := committed; pos < ckpt+meta.JournalBytes; {
			idx := pos % meta.JournalBytes
			base := meta.Journal + memory.Addr(idx)
			if idx+recordBytes > meta.JournalBytes {
				if im.Poisoned(base) || im.ReadWord(base) != wrapKind {
					break
				}
				pos += meta.JournalBytes - idx
				continue
			}
			if im.RangePoisoned(base, recordBytes) {
				break
			}
			payload, ok := durable.OpenFrame(im, base, pos, recordPayloadBytes)
			if !ok || len(payload) != recordPayloadBytes {
				break
			}
			rep.DiscardedRecords++
			pos += recordBytes
		}
	}
	return st, rep, nil
}

// shadowMismatch reports whether table block i's in-place content
// fails its shadow checksum. All-zero content with a zero shadow word
// is the never-written initial state and passes.
func shadowMismatch(im *memory.Image, meta Meta, i int) bool {
	addr := meta.Table + memory.Addr(i*BlockBytes)
	b := make([]byte, BlockBytes)
	im.ReadBytes(addr, b)
	shadow := im.ReadWord(meta.BlockCRC + memory.Addr(i*8))
	if shadow == 0 {
		for _, c := range b {
			if c != 0 {
				return true
			}
		}
		return false
	}
	return shadow != durable.Checksum(uint64(addr), b)
}
