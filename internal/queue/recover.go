package queue

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/memory"
)

// Recovery: reading the queue back out of a post-crash NVRAM image.
//
// The rule is the paper's (§6): an entry is valid iff the head pointer
// encompasses its slot. On a clean crash state every entry between
// tail and head is therefore fully intact, and recovery returns them
// all with a clean report. Anything else means either the persistency
// model's ordering constraints were violated (or mis-annotated) or the
// device corrupted the image; recovery then degrades gracefully
// instead of failing: it recovers every entry it can prove intact
// (checksums bound to the monotonic offset), quarantines entries it
// can prove corrupt, resynchronizes on the 64-byte slot grid past
// corrupt regions, and reports everything in a fault.RecoveryReport.
// Poisoned words (detectable-uncorrectable media errors) are never
// trusted. A caller that wants the strict reading treats a report
// whose Detected() is true as a failed recovery (observer.Strict).

// Entry is one recovered queue entry.
type Entry struct {
	// Offset is the entry's monotonic byte offset in the queue.
	Offset uint64
	// Payload is the entry body.
	Payload []byte
}

// entry-parse status codes for parseEntry.
const (
	entOK = iota
	entWrap
	entBad
)

// parseEntry examines the slot at monotonic offset pos. When
// trustedHead is true, head bounds the entry's end. On entOK it
// returns the entry and the next offset; on entWrap only the next
// offset; on entBad the caller quarantines and resynchronizes.
// poisoned reports whether the failure involved poisoned media;
// crcFail reports an integrity-layer CRC mismatch specifically.
func parseEntry(im *memory.Image, meta Meta, pos, head uint64, trustedHead bool) (e Entry, next uint64, status int, poisoned, crcFail bool) {
	idx := pos % meta.DataBytes
	base := meta.Data + memory.Addr(idx)
	if im.Poisoned(base) {
		return Entry{}, 0, entBad, true, false
	}
	length := im.ReadWord(base)
	if length == wrapMarker {
		return Entry{}, pos + (meta.DataBytes - idx), entWrap, false, false
	}
	if length == 0 || length > MaxPayload {
		return Entry{}, 0, entBad, false, false
	}
	slot := SlotBytes(int(length))
	if idx+slot > meta.DataBytes {
		return Entry{}, 0, entBad, false, false
	}
	if trustedHead && pos+slot > head {
		return Entry{}, 0, entBad, false, false
	}
	if im.RangePoisoned(base, int(slot)) {
		return Entry{}, 0, entBad, true, false
	}
	if meta.Integrity {
		payload, ok := durable.OpenFrame(im, base, pos, MaxPayload)
		if !ok {
			return Entry{}, 0, entBad, false, true
		}
		return Entry{Offset: pos, Payload: payload}, pos + slot, entOK, false, false
	}
	payload := make([]byte, length)
	im.ReadBytes(base+headerBytes, payload)
	if im.ReadWord(base+memory.Addr(checksumOffset(int(length)))) != Checksum(pos, payload) {
		return Entry{}, 0, entBad, false, false
	}
	return Entry{Offset: pos, Payload: payload}, pos + slot, entOK, false, false
}

// Recover parses as much of the queue as the image supports, returning
// the intact entries in order plus a report of what was quarantined.
// The error is non-nil only for unusable metadata; corruption — even
// of the head/tail words themselves — degrades the scan instead of
// failing it.
func Recover(im *memory.Image, meta Meta) ([]Entry, fault.RecoveryReport, error) {
	var rep fault.RecoveryReport
	if meta.DataBytes == 0 || meta.DataBytes%SlotAlign != 0 {
		return nil, rep, fmt.Errorf("queue: bad recovery metadata: data bytes %d", meta.DataBytes)
	}
	var head, tail uint64
	var headUsable, tailUsable bool
	if meta.Integrity {
		// Durable-word pointers: CRC-validated copies behind a CDB.
		// Detections land in the report; a fallback read still anchors
		// the scan (the older value is safe — head/tail only grow).
		hr := durable.ReadWord(im, meta.Head)
		tr := durable.ReadWord(im, meta.Tail)
		hr.Absorb(&rep, "head")
		tr.Absorb(&rep, "tail")
		head, tail = hr.Val, tr.Val
		headUsable = hr.OK && head%SlotAlign == 0
		tailUsable = tr.OK && tail%SlotAlign == 0
	} else {
		head = im.ReadWord(meta.Head)
		tail = im.ReadWord(meta.Tail)
		// Both pointers only ever hold slot-aligned offsets; a torn persist
		// of either word shows up as misalignment or implausible distance.
		headUsable = !im.Poisoned(meta.Head) && head%SlotAlign == 0
		tailUsable = !im.Poisoned(meta.Tail) && tail%SlotAlign == 0
		if im.Poisoned(meta.Head) {
			rep.PoisonedWords++
		}
		if im.Poisoned(meta.Tail) {
			rep.PoisonedWords++
		}
	}
	trusted := headUsable && tailUsable
	if !trusted {
		rep.Note("head/tail unusable (poisoned or torn)")
	} else if tail > head || head-tail > meta.DataBytes {
		trusted = false
		rep.Note("implausible head %d / tail %d", head, tail)
	}
	if !trusted {
		rep.HeaderQuarantined = true
	}
	if !tailUsable {
		// Without even a tail there is no scan anchor: any offset guess
		// would misbind every offset-keyed checksum. Recover nothing,
		// loudly.
		rep.Note("no scan anchor; entries unrecoverable")
		return nil, rep, nil
	}

	// With untrusted pointers, scan from tail while entries validate —
	// checksums are bound to the monotonic offset, so stale ring eras
	// cannot masquerade — and stop at the first invalid slot (without a
	// head there is no telling live data from never-written space).
	limit := head
	if !trusted {
		limit = tail + meta.DataBytes
	}

	var out []Entry
	pos := tail
	for pos < limit {
		e, next, status, poisoned, crcFail := parseEntry(im, meta, pos, head, trusted)
		switch status {
		case entOK:
			out = append(out, e)
			rep.Recovered++
			rep.BytesScanned += next - pos
			pos = next
		case entWrap:
			rep.BytesScanned += memory.WordSize
			pos = next
		default: // entBad
			if poisoned {
				rep.PoisonedWords++
			}
			if crcFail {
				rep.CRCDetected++
			}
			rep.BytesScanned += memory.WordSize
			if !trusted {
				// End of provable data. A nonzero length word here is a
				// record the scan deliberately leaves behind (torn tail or
				// unreachable era) — visible, not corruption by itself.
				if im.ReadWord(meta.Data+memory.Addr(pos%meta.DataBytes)) != 0 {
					rep.DiscardedRecords++
				}
				return out, rep, nil
			}
			rep.Quarantined++
			// Resynchronize on the slot grid: entries and wrap markers
			// always start on SlotAlign boundaries.
			resynced := false
			for q := pos + SlotAlign; q < head; q += SlotAlign {
				rep.BytesScanned += memory.WordSize
				if _, _, st, _, _ := parseEntry(im, meta, q, head, trusted); st != entBad {
					rep.Dropped += int((q-pos)/SlotAlign) - 1
					pos, resynced = q, true
					break
				}
			}
			if !resynced {
				if lost := int((head-pos)/SlotAlign) - 1; lost > 0 {
					rep.Dropped += lost
				}
				rep.Note("no resync before head (offset %d)", pos)
				return out, rep, nil
			}
			rep.Note("resynced at offset %d", pos)
		}
	}
	return out, rep, nil
}
