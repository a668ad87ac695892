package queue

import (
	"testing"

	"repro/internal/memory"
)

// salvageMeta lays out a small hand-crafted queue region.
func salvageMeta() Meta {
	return Meta{
		Head:      memory.PersistentBase,
		Tail:      memory.PersistentBase + 8,
		Data:      memory.PersistentBase + 64,
		DataBytes: 512,
	}
}

// writeSalvageEntry serializes one valid entry at monotonic offset pos
// and returns the next offset.
func writeSalvageEntry(im *memory.Image, meta Meta, pos uint64, payload []byte) uint64 {
	base := meta.Data + memory.Addr(pos%meta.DataBytes)
	im.WriteWord(base, uint64(len(payload)))
	im.WriteBytes(base+headerBytes, payload)
	im.WriteWord(base+memory.Addr(checksumOffset(len(payload))), Checksum(pos, payload))
	return pos + SlotBytes(len(payload))
}

// salvageImage builds an image holding n valid entries from offset 0
// with head/tail set, returning the image and head offset.
func salvageImage(n int) (*memory.Image, Meta, uint64) {
	meta := salvageMeta()
	im := memory.NewImage()
	pos := uint64(0)
	for i := 0; i < n; i++ {
		pos = writeSalvageEntry(im, meta, pos, MakePayload(uint64(i+1), 24))
	}
	im.WriteWord(meta.Head, pos)
	im.WriteWord(meta.Tail, 0)
	return im, meta, pos
}

func TestQueueSalvageTable(t *testing.T) {
	// Each entry in the default image occupies one 64-byte slot.
	cases := []struct {
		name       string
		corrupt    func(im *memory.Image, meta Meta)
		recovered  int
		quarantine int
		dropped    int
		header     bool
		detected   bool
	}{
		{
			name:      "clean image is untouched",
			corrupt:   func(*memory.Image, Meta) {},
			recovered: 3,
		},
		{
			name: "torn payload quarantined with resync",
			corrupt: func(im *memory.Image, meta Meta) {
				// Clobber one payload word of entry 1 (slot at 64).
				im.WriteWord(meta.Data+64+headerBytes, 0xdeadbeef)
			},
			recovered:  2,
			quarantine: 1,
			detected:   true,
		},
		{
			name: "poisoned length word quarantined",
			corrupt: func(im *memory.Image, meta Meta) {
				im.Poison(meta.Data + 64)
			},
			recovered:  2,
			quarantine: 1,
			detected:   true,
		},
		{
			name: "two adjacent torn slots drop the gap",
			corrupt: func(im *memory.Image, meta Meta) {
				im.WriteWord(meta.Data, 3) // entry 0 length lies
				im.WriteWord(meta.Data+64, MaxPayload+1)
			},
			recovered:  1,
			quarantine: 1, // one quarantine event; resync skips slot 1
			dropped:    1,
			detected:   true,
		},
		{
			name: "poisoned head falls back to untrusted scan",
			corrupt: func(im *memory.Image, meta Meta) {
				im.Poison(meta.Head)
			},
			recovered: 3,
			header:    true,
			detected:  true,
		},
		{
			name: "untrusted scan stops at first invalid slot",
			corrupt: func(im *memory.Image, meta Meta) {
				im.Poison(meta.Head)
				im.WriteWord(meta.Data+64+headerBytes, 0xdeadbeef)
			},
			recovered: 1,
			header:    true,
			detected:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im, meta, _ := salvageImage(3)
			tc.corrupt(im, meta)
			got, rep, err := Recover(im, meta)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.recovered || rep.Recovered != tc.recovered {
				t.Fatalf("recovered %d entries (report %d), want %d\nreport: %s",
					len(got), rep.Recovered, tc.recovered, rep.String())
			}
			if rep.Quarantined != tc.quarantine || rep.Dropped != tc.dropped ||
				rep.HeaderQuarantined != tc.header {
				t.Fatalf("report %s, want quarantined=%d dropped=%d header=%v",
					rep.String(), tc.quarantine, tc.dropped, tc.header)
			}
			if rep.Detected() != tc.detected {
				t.Fatalf("Detected() = %v, want %v (%s)", rep.Detected(), tc.detected, rep.String())
			}
		})
	}
}

// TestQueueRecoverCleanOnCleanImages pins the baseline-clean invariant
// the fault campaign and the strict reading rely on: a clean image
// recovers every entry, in order, with a clean report.
func TestQueueRecoverCleanOnCleanImages(t *testing.T) {
	im, meta, _ := salvageImage(5)
	got := recoverClean(t, im, meta)
	if len(got) != 5 {
		t.Fatalf("recovered %d entries, want 5", len(got))
	}
	pos := uint64(0)
	for i, e := range got {
		want := MakePayload(uint64(i+1), 24)
		if e.Offset != pos || string(e.Payload) != string(want) {
			t.Fatalf("entry %d = (%d, %x), want (%d, %x)", i, e.Offset, e.Payload, pos, want)
		}
		pos += SlotBytes(len(want))
	}
}
