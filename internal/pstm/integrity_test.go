package pstm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/memory"
)

// buildImageFmt commits a few paired-word transactions under the chosen
// format and returns the quiescent image + meta.
func buildImageFmt(t *testing.T, integrity bool) (*memory.Image, Meta) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	h, err := New(s, Config{Words: 4, UndoCap: 8, Policy: core.PolicyEpoch, Integrity: integrity})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		h.Atomic(s, func(tx *Tx) {
			tx.Store(0, i*10)
			tx.Store(1, i*10)
		})
		h.Atomic(s, func(tx *Tx) {
			tx.Store(2, i*100)
			tx.Store(3, i*100)
		})
	}
	return m.PersistentImage(), h.Meta()
}

func TestIntegrityPSTMRoundTrip(t *testing.T) {
	im, meta := buildImageFmt(t, true)
	st, rep, err := Recover(im, meta)
	if err != nil || rep.Detected() {
		t.Fatalf("recovery of a clean image: detected=%v, err=%v\n%+v", rep.Detected(), err, rep)
	}
	want := []uint64{30, 30, 300, 300}
	for i, w := range want {
		if st.Words[i] != w {
			t.Fatalf("word %d = %d, want %d", i, st.Words[i], w)
		}
	}
	// The sealed transaction's records are deliberately left behind:
	// detect-and-discard must count them, not replay them.
	if rep.DiscardedRecords != 2 {
		t.Fatalf("discarded %d records, want the sealed transaction's 2", rep.DiscardedRecords)
	}
}

func TestDataWordFlipSilentLegacyDetectedWithIntegrity(t *testing.T) {
	// A silent flip in a committed data word. The legacy heap trusts
	// in-place words unconditionally — wrong data, clean report. The
	// shadow-checksum array turns it into a detection.
	flip := func(im *memory.Image, meta Meta) {
		im.WriteWord(meta.Data, im.ReadWord(meta.Data)^(1<<3))
	}

	im, meta := buildImageFmt(t, false)
	flip(im, meta)
	st, rep, err := Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if st.Words[0] == 30 {
		t.Fatal("flip did not land")
	}
	if rep.Detected() {
		t.Fatalf("legacy data flip unexpectedly detected: %+v", rep)
	}

	im, meta = buildImageFmt(t, true)
	flip(im, meta)
	_, rep, err = Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCDetected == 0 || rep.Quarantined == 0 {
		t.Fatalf("data flip not disclosed: %+v", rep)
	}
}

func TestIntegrityArmedWordFlipDetected(t *testing.T) {
	// Corrupting the active copy of the armed durable word fails its
	// CRC; salvage falls back to the other copy and reports it.
	im, meta := buildImageFmt(t, true)
	active, ok := durable.DecodeCDB(im.ReadWord(meta.TxnID))
	if !ok {
		t.Fatal("quiescent CDB does not decode")
	}
	valOff := memory.Addr(8)
	if active {
		valOff = 24
	}
	a := meta.TxnID + valOff
	im.WriteWord(a, im.ReadWord(a)^(1<<40))
	st, rep, err := Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCDetected == 0 {
		t.Fatalf("armed word flip not detected: %+v", rep)
	}
	for i, w := range []uint64{30, 30, 300, 300} {
		if st.Words[i] != w {
			t.Fatalf("fallback recovery corrupted word %d: %d, want %d", i, st.Words[i], w)
		}
	}
}

func TestIntegrityUndoFrameFlipBelowCountDetected(t *testing.T) {
	// Mid-transaction crash state, hand-armed: the armed word's record
	// count says two records exist, so a flip inside either frame is
	// detected corruption — never mistaken for the arming frontier (the
	// hole the explicit count closes).
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	h, err := New(s, Config{Words: 4, UndoCap: 8, Policy: core.PolicyEpoch, Integrity: true})
	if err != nil {
		t.Fatal(err)
	}
	h.Atomic(s, func(tx *Tx) {
		tx.Store(0, 7)
		tx.Store(1, 7)
	})
	im, meta := m.PersistentImage(), h.Meta()
	// Re-arm transaction 1 as unsealed with both records bound: seal
	// word back to zero, armed word to id 1 with count 2.
	aw := durable.Word{Base: meta.TxnID}
	dw := durable.Word{Base: meta.Done}
	writeDurable := func(w durable.Word, v uint64) {
		im.WriteWord(w.Base+8, v)
		im.WriteWord(w.Base+16, durable.ChecksumWord(uint64(w.Base+8), v))
		im.WriteWord(w.Base+24, v)
		im.WriteWord(w.Base+32, durable.ChecksumWord(uint64(w.Base+24), v))
		im.WriteWord(w.Base, durable.CDBFalse)
	}
	writeDurable(dw, 0)
	writeDurable(aw, armedVal(1, 2))
	// Flip one bit inside the newest undo frame's payload.
	a := meta.Undo + memory.Addr(recordBytes) + 8
	im.WriteWord(a, im.ReadWord(a)^(1<<9))
	_, rep, err := Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCDetected == 0 || rep.Quarantined == 0 {
		t.Fatalf("frame flip below count not disclosed: %+v", rep)
	}
}
