package journal

import (
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/memory"
)

// buildImageFmt applies a few committed transactions under the chosen
// format and returns the quiescent image + meta.
func buildImageFmt(t *testing.T, integrity bool) (*memory.Image, Meta) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st, err := New(s, Config{Blocks: 4, JournalBytes: 1 << 11, Policy: core.PolicyEpoch, Integrity: integrity})
	if err != nil {
		t.Fatal(err)
	}
	for tag := uint64(1); tag <= 3; tag++ {
		st.Update(s, groupWrites(0, tag))
		st.Update(s, groupWrites(1, tag))
	}
	return m.PersistentImage(), st.Meta()
}

func TestIntegrityJournalRoundTrip(t *testing.T) {
	im, meta := buildImageFmt(t, true)
	state, err := Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGroups(state.Table); err != nil {
		t.Fatal(err)
	}
	_, rep, err := RecoverSalvage(im, meta)
	if err != nil || rep.Detected() {
		t.Fatalf("salvage on clean image: detected=%v, err=%v\n%+v", rep.Detected(), err, rep)
	}
}

func TestTableBlockFlipSilentLegacyDetectedWithIntegrity(t *testing.T) {
	// A silent flip in an applied table block whose redo records the
	// checkpoint already truncated — recovery must trust the in-place
	// copy. The legacy format has nothing covering in-place blocks, so
	// it serves the corrupt block with a clean report; the
	// shadow-checksum array catches it.
	build := func(integrity bool) (*memory.Image, Meta) {
		m := exec.NewMachine(exec.Config{})
		s := m.SetupThread()
		// A small ring: the group-1 updates push the checkpoint past
		// group 0's records, leaving block 0 in-place only.
		st, err := New(s, Config{Blocks: 4, JournalBytes: 1 << 10, Policy: core.PolicyEpoch, Integrity: integrity})
		if err != nil {
			t.Fatal(err)
		}
		st.Update(s, groupWrites(0, 1))
		for tag := uint64(2); tag <= 9; tag++ {
			st.Update(s, groupWrites(1, tag))
		}
		return m.PersistentImage(), st.Meta()
	}
	flip := func(im *memory.Image, meta Meta) {
		a := meta.Table + memory.Addr(BlockBytes/2)
		im.WriteWord(a, im.ReadWord(a)^(1<<22))
	}

	im, meta := build(false)
	flip(im, meta)
	_, rep, err := RecoverSalvage(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected() {
		t.Fatalf("legacy block flip unexpectedly detected: %+v", rep)
	}

	im, meta = build(true)
	flip(im, meta)
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("strict integrity recovery accepted a corrupt block: %v", err)
	}
	_, rep, err = RecoverSalvage(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCDetected == 0 || rep.Quarantined == 0 {
		t.Fatalf("block flip not disclosed: %+v", rep)
	}
}

func TestIntegrityCommitPointerFlipDetected(t *testing.T) {
	// Corrupting the active copy of the committed-head durable word
	// fails its CRC; salvage falls back and reports the detection.
	im, meta := buildImageFmt(t, true)
	active, ok := durable.DecodeCDB(im.ReadWord(meta.CommittedHead))
	if !ok {
		t.Fatal("quiescent CDB does not decode")
	}
	valOff := memory.Addr(8)
	if active {
		valOff = 24
	}
	a := meta.CommittedHead + valOff
	im.WriteWord(a, im.ReadWord(a)^(1<<7))
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("strict recovery accepted a corrupt commit pointer: %v", err)
	}
	_, rep, err := RecoverSalvage(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCDetected == 0 {
		t.Fatalf("commit pointer flip not detected: %+v", rep)
	}
}
