package queue

import (
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/memory"
)

// buildImageFmt runs n same-size inserts under the chosen format and
// returns the quiescent image + meta.
func buildImageFmt(t *testing.T, n int, integrity bool) (*memory.Image, Meta) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 1 << 14, Design: CWL, Policy: core.PolicyEpoch, Integrity: integrity})
	for i := uint64(0); i < uint64(n); i++ {
		q.Insert(s, MakePayload(i, 24))
	}
	return m.PersistentImage(), q.Meta()
}

func TestIntegrityQueueRoundTrip(t *testing.T) {
	im, meta := buildImageFmt(t, 5, true)
	entries, err := Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("recovered %d entries, want 5", len(entries))
	}
	salvaged, rep, err := RecoverSalvage(im, meta)
	if err != nil || rep.Detected() || len(salvaged) != 5 {
		t.Fatalf("salvage on clean image: %d entries, detected=%v, err=%v", len(salvaged), rep.Detected(), err)
	}
}

func TestLegacyHeadFlipIsSilentDataLoss(t *testing.T) {
	// The failure mode the durable-word pointers close: the legacy head
	// is a bare offset, and flipping the bit worth one slot re-frames
	// the ring onto a shorter-but-valid prefix. An entry vanishes and
	// the report is clean — silent data loss, exactly what the
	// unprotected-metadata lint flags.
	im, meta := buildImageFmt(t, 5, false)
	stride := SlotBytes(24)
	if stride&(stride-1) != 0 {
		t.Fatalf("test needs a power-of-two slot, got %d", stride)
	}
	im.WriteWord(meta.Head, im.ReadWord(meta.Head)^stride)
	entries, rep, err := RecoverSalvage(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected() {
		t.Fatalf("legacy head flip was detected (%+v); the lint premise no longer holds", rep)
	}
	if len(entries) != 4 {
		t.Fatalf("recovered %d entries, want the silent loss of exactly one (4)", len(entries))
	}
}

func TestIntegrityHeadCopyFlipDetected(t *testing.T) {
	// The same single-bit flip against the framed format: corrupting the
	// active copy's value fails its CRC, recovery falls back to the
	// other copy, and the report discloses the detection.
	im, meta := buildImageFmt(t, 5, true)
	active, ok := durable.DecodeCDB(im.ReadWord(meta.Head))
	if !ok {
		t.Fatal("quiescent CDB does not decode")
	}
	valOff := memory.Addr(8) // copy A value
	if active {
		valOff = 24 // copy B value
	}
	a := meta.Head + valOff
	im.WriteWord(a, im.ReadWord(a)^SlotBytes(24))
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("strict recovery accepted a corrupt head copy: %v", err)
	}
	entries, rep, err := RecoverSalvage(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CRCDetected == 0 {
		t.Fatalf("copy flip not detected: %+v", rep)
	}
	// The fallback copy holds the previous head: one entry older, never
	// silently re-framed.
	if len(entries) != 4 {
		t.Fatalf("fallback recovered %d entries, want 4", len(entries))
	}
}

func TestIntegrityHeadCDBFlipDetected(t *testing.T) {
	// A flip in the CDB itself: both copies still validate, recovery
	// prefers the larger (monotonic) value and reports the corrupt CDB.
	im, meta := buildImageFmt(t, 5, true)
	im.WriteWord(meta.Head, im.ReadWord(meta.Head)^(1<<13))
	entries, rep, err := RecoverSalvage(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CDBDetected == 0 {
		t.Fatalf("CDB flip not detected: %+v", rep)
	}
	if len(entries) != 5 {
		t.Fatalf("recovered %d entries, want all 5 via the larger copy", len(entries))
	}
}
