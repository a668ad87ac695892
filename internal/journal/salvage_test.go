package journal

import (
	"testing"

	"repro/internal/memory"
)

func salvageMeta() Meta {
	return Meta{
		Table:         memory.PersistentBase,
		Blocks:        4,
		Journal:       memory.PersistentBase + 4*BlockBytes,
		JournalBytes:  512, // 4 record slots
		CommittedHead: memory.PersistentBase + 4096,
		Checkpoint:    memory.PersistentBase + 4104,
	}
}

// writeSalvageRecord serializes one valid redo record at monotonic
// offset pos and returns the next offset.
func writeSalvageRecord(im *memory.Image, meta Meta, pos, txn, blk uint64, data []byte) uint64 {
	base := meta.Journal + memory.Addr(pos%meta.JournalBytes)
	im.WriteWord(base, kindData)
	im.WriteWord(base+8, txn)
	im.WriteWord(base+16, blk)
	im.WriteBytes(base+24, data)
	im.WriteWord(base+24+BlockBytes, recordChecksum(pos, txn, blk, data))
	return pos + recordBytes
}

// salvageImage builds an image with n committed records (txn i writes
// block i%Blocks with a tagged pattern).
func salvageImage(n int) (*memory.Image, Meta) {
	meta := salvageMeta()
	im := memory.NewImage()
	for i := 0; i < meta.Blocks; i++ {
		im.WriteBytes(meta.Table+memory.Addr(i*BlockBytes), MakeBlock(uint64(100+i)))
	}
	pos := uint64(0)
	for i := 0; i < n; i++ {
		blk := uint64(i % meta.Blocks)
		pos = writeSalvageRecord(im, meta, pos, uint64(i+1), blk, MakeBlock(uint64(i+1)))
	}
	im.WriteWord(meta.CommittedHead, pos)
	im.WriteWord(meta.Checkpoint, 0)
	return im, meta
}

func TestJournalSalvageTable(t *testing.T) {
	cases := []struct {
		name       string
		corrupt    func(im *memory.Image, meta Meta)
		recovered  int
		quarantine int
		header     bool
		detected   bool
		// wantTag, if non-zero, asserts table block wantBlk carries
		// txn id wantTag after replay.
		wantBlk int
		wantTag uint64
	}{
		{
			name:      "clean image replays all records",
			corrupt:   func(*memory.Image, Meta) {},
			recovered: 3,
			wantBlk:   2, wantTag: 3,
		},
		{
			name: "bit-flipped record quarantined, replay continues",
			corrupt: func(im *memory.Image, meta Meta) {
				// Flip one data bit inside record 1 (offset 128).
				im.FlipBit(meta.Journal+128+24+8, 3)
			},
			recovered:  2,
			quarantine: 1,
			detected:   true,
			// Block 1's redo was lost; block stays at its checkpointed tag.
			wantBlk: 1, wantTag: 101,
		},
		{
			name: "poisoned record quarantined",
			corrupt: func(im *memory.Image, meta Meta) {
				im.Poison(meta.Journal + 128 + 24)
			},
			recovered:  2,
			quarantine: 1,
			detected:   true,
		},
		{
			name: "record kind clobbered",
			corrupt: func(im *memory.Image, meta Meta) {
				im.WriteWord(meta.Journal+128, 0x1234)
			},
			recovered:  2,
			quarantine: 1,
			detected:   true,
		},
		{
			name: "implausible commit pointer quarantines header",
			corrupt: func(im *memory.Image, meta Meta) {
				im.WriteWord(meta.Checkpoint, 4096) // checkpoint beyond committed
			},
			header:   true,
			detected: true,
		},
		{
			name: "poisoned commit pointer quarantines header",
			corrupt: func(im *memory.Image, meta Meta) {
				im.Poison(meta.CommittedHead)
			},
			header:   true,
			detected: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im, meta := salvageImage(3)
			tc.corrupt(im, meta)
			st, rep, err := Recover(im, meta)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recovered != tc.recovered || rep.Quarantined != tc.quarantine ||
				rep.HeaderQuarantined != tc.header {
				t.Fatalf("report %s, want recovered=%d quarantined=%d header=%v",
					rep.String(), tc.recovered, tc.quarantine, tc.header)
			}
			if rep.Detected() != tc.detected {
				t.Fatalf("Detected() = %v, want %v (%s)", rep.Detected(), tc.detected, rep.String())
			}
			if tc.wantTag != 0 {
				got, intact := BlockTag(st.Table[tc.wantBlk])
				if got != tc.wantTag || !intact {
					t.Fatalf("block %d tag = %d (intact %v), want %d",
						tc.wantBlk, got, intact, tc.wantTag)
				}
			}
		})
	}
}

// TestJournalRecoverCleanOnCleanImages pins the baseline-clean
// invariant the fault campaign and the strict reading rely on: a clean
// image replays every committed record with a clean report.
func TestJournalRecoverCleanOnCleanImages(t *testing.T) {
	im, meta := salvageImage(3)
	st := recoverClean(t, im, meta)
	if st.Records != 3 || st.Txns != 3 {
		t.Fatalf("replayed %d records of %d txns, want 3 of 3", st.Records, st.Txns)
	}
	for i := range st.Table {
		want := MakeBlock(uint64(100 + i))
		if i < 3 {
			want = MakeBlock(uint64(i + 1))
		}
		if string(st.Table[i]) != string(want) {
			t.Fatalf("table block %d differs", i)
		}
	}
}
