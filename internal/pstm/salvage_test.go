package pstm

import (
	"testing"

	"repro/internal/memory"
)

func salvageMeta() Meta {
	return Meta{
		Data:    memory.PersistentBase,
		Words:   4,
		TxnID:   memory.PersistentBase + 64,
		Done:    memory.PersistentBase + 72,
		Undo:    memory.PersistentBase + 128,
		UndoCap: 4,
	}
}

func writeUndoRecord(im *memory.Image, meta Meta, txn uint64, slot int, word, old uint64) {
	base := meta.Undo + memory.Addr(slot*recordBytes)
	im.WriteWord(base, word)
	im.WriteWord(base+8, old)
	im.WriteWord(base+16, recChecksum(txn, slot, word, old))
}

// salvageImage models a crash mid-transaction: txn 5 is armed but not
// sealed, has logged undo records for words 1 and 2 (old values 0xAA,
// 0xBB), and has overwritten both in place.
func salvageImage() (*memory.Image, Meta) {
	meta := salvageMeta()
	im := memory.NewImage()
	for i := 0; i < meta.Words; i++ {
		im.WriteWord(meta.Data+memory.Addr(i*8), uint64(0x100+i))
	}
	im.WriteWord(meta.TxnID, 5)
	im.WriteWord(meta.Done, 4)
	writeUndoRecord(im, meta, 5, 0, 1, 0xAA)
	writeUndoRecord(im, meta, 5, 1, 2, 0xBB)
	return im, meta
}

func TestPSTMSalvageTable(t *testing.T) {
	cases := []struct {
		name       string
		corrupt    func(im *memory.Image, meta Meta)
		undone     int
		quarantine int
		header     bool
		detected   bool
		wantWords  map[int]uint64
	}{
		{
			name:      "clean rollback of both records",
			corrupt:   func(*memory.Image, Meta) {},
			undone:    2,
			wantWords: map[int]uint64{1: 0xAA, 2: 0xBB},
		},
		{
			name: "torn first record quarantined, later record still undone",
			corrupt: func(im *memory.Image, meta Meta) {
				// Clobber record 0's old-value word; record 1 still
				// validates, proving record 0 is torn, not the frontier.
				im.WriteWord(meta.Undo+8, 0xFFFF)
			},
			undone:     1,
			quarantine: 1,
			detected:   true,
			wantWords:  map[int]uint64{1: 0x101, 2: 0xBB},
		},
		{
			name: "poisoned record below frontier quarantined",
			corrupt: func(im *memory.Image, meta Meta) {
				im.Poison(meta.Undo + 16)
			},
			undone:     1,
			quarantine: 1,
			detected:   true,
			wantWords:  map[int]uint64{1: 0x101, 2: 0xBB},
		},
		{
			name: "sealed transaction needs no rollback",
			corrupt: func(im *memory.Image, meta Meta) {
				im.WriteWord(meta.Done, 5)
			},
			wantWords: map[int]uint64{1: 0x101, 2: 0x102},
		},
		{
			name: "poisoned armed word quarantines header",
			corrupt: func(im *memory.Image, meta Meta) {
				im.Poison(meta.TxnID)
			},
			header:   true,
			detected: true,
		},
		{
			name: "seal ahead of armed id quarantines header",
			corrupt: func(im *memory.Image, meta Meta) {
				im.WriteWord(meta.Done, 9)
			},
			header:   true,
			detected: true,
		},
		{
			name: "valid checksum over out-of-range word quarantined",
			corrupt: func(im *memory.Image, meta Meta) {
				writeUndoRecord(im, meta, 5, 1, 99, 0xBB)
			},
			undone:     1,
			quarantine: 1,
			detected:   true,
			wantWords:  map[int]uint64{1: 0xAA},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im, meta := salvageImage()
			tc.corrupt(im, meta)
			st, rep, err := Recover(im, meta)
			if err != nil {
				t.Fatal(err)
			}
			if st.Undone != tc.undone || rep.Recovered != tc.undone {
				t.Fatalf("undone %d (report %d), want %d\nreport: %s",
					st.Undone, rep.Recovered, tc.undone, rep.String())
			}
			if rep.Quarantined != tc.quarantine || rep.HeaderQuarantined != tc.header {
				t.Fatalf("report %s, want quarantined=%d header=%v",
					rep.String(), tc.quarantine, tc.header)
			}
			if rep.Detected() != tc.detected {
				t.Fatalf("Detected() = %v, want %v (%s)", rep.Detected(), tc.detected, rep.String())
			}
			for w, v := range tc.wantWords {
				if st.Words[w] != v {
					t.Fatalf("word %d = %#x, want %#x", w, st.Words[w], v)
				}
			}
		})
	}
}

// TestPSTMRecoverCleanOnCleanImages pins the baseline-clean invariant
// the fault campaign and the strict reading rely on: a clean
// mid-transaction image rolls back every record with a clean report.
func TestPSTMRecoverCleanOnCleanImages(t *testing.T) {
	im, meta := salvageImage()
	st := recoverClean(t, im, meta)
	if st.Undone != 2 || !st.RolledBack {
		t.Fatalf("rollback stats %+v, want 2 records undone", st)
	}
	for i, w := range []uint64{0x100, 0xAA, 0xBB, 0x103} {
		if st.Words[i] != w {
			t.Fatalf("word %d = %#x, want %#x", i, st.Words[i], w)
		}
	}
}
