package queue

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
)

// buildImage runs a few inserts and returns the final image + meta.
func buildImage(t *testing.T) (*memory.Image, Meta) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 1 << 14, Design: CWL, Policy: core.PolicyEpoch})
	for i := uint64(0); i < 5; i++ {
		q.Insert(s, MakePayload(i, 100))
	}
	return m.PersistentImage(), q.Meta()
}

func TestRecoverDetectsBadLength(t *testing.T) {
	im, meta := buildImage(t)
	// Zero out the third entry's length word.
	im.WriteWord(meta.Data+memory.Addr(2*SlotBytes(100)), 0)
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("want corruption, got %v", err)
	}
}

func TestRecoverDetectsChecksumMismatch(t *testing.T) {
	im, meta := buildImage(t)
	// Flip a payload byte of the second entry.
	a := meta.Data + memory.Addr(SlotBytes(100)) + headerBytes + 10
	var b [1]byte
	im.ReadBytes(a, b[:])
	b[0] ^= 0xff
	im.WriteBytes(a, b[:])
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("want corruption, got %v", err)
	}
}

func TestRecoverDetectsTailBeyondHead(t *testing.T) {
	im, meta := buildImage(t)
	im.WriteWord(meta.Tail, im.ReadWord(meta.Head)+64)
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("want corruption, got %v", err)
	}
}

func TestRecoverDetectsOversizedLiveRegion(t *testing.T) {
	im, meta := buildImage(t)
	im.WriteWord(meta.Head, meta.DataBytes*2)
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("want corruption, got %v", err)
	}
}

func TestRecoverDetectsEntryPastHead(t *testing.T) {
	im, meta := buildImage(t)
	// Head in the middle of the second entry.
	im.WriteWord(meta.Head, SlotBytes(100)+8)
	if _, err := Recover(im, meta); !IsCorruption(err) {
		t.Fatalf("want corruption, got %v", err)
	}
}

func TestRecoverEmptyQueue(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 1 << 12, Design: CWL, Policy: core.PolicyEpoch})
	entries, err := Recover(m.PersistentImage(), q.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("empty queue recovered %d entries", len(entries))
	}
}

func TestRecoverBadMeta(t *testing.T) {
	im := memory.NewImage()
	if _, err := Recover(im, Meta{DataBytes: 100}); err == nil {
		t.Fatal("unaligned meta accepted")
	}
}

func TestIsCorruption(t *testing.T) {
	err := &CorruptionError{Offset: 4, Reason: "x"}
	if !IsCorruption(err) {
		t.Fatal("IsCorruption(corruption) = false")
	}
	if IsCorruption(nil) {
		t.Fatal("IsCorruption(nil) = true")
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestChecksumDiscriminates(t *testing.T) {
	p := MakePayload(1, 64)
	base := Checksum(0, p)
	if Checksum(64, p) == base {
		t.Error("checksum must bind the offset")
	}
	q := MakePayload(2, 64)
	if Checksum(0, q) == base {
		t.Error("checksum must bind the payload")
	}
}

func TestChecksumProperty(t *testing.T) {
	f := func(off uint64, data []byte, flip uint16) bool {
		if len(data) == 0 {
			return true
		}
		c := Checksum(off, data)
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[int(flip)%len(mut)] ^= 1
		return Checksum(off, mut) != c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMakePayloadDeterministic(t *testing.T) {
	a := MakePayload(42, 128)
	b := MakePayload(42, 128)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MakePayload not deterministic")
		}
	}
	c := MakePayload(43, 128)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different ids should give different payloads")
	}
}

func TestSlotBytes(t *testing.T) {
	if SlotBytes(100) != 128 {
		t.Fatalf("SlotBytes(100) = %d", SlotBytes(100))
	}
	if SlotBytes(1) != 64 {
		t.Fatalf("SlotBytes(1) = %d", SlotBytes(1))
	}
	if SlotBytes(48) != 64 {
		t.Fatalf("SlotBytes(48) = %d", SlotBytes(48))
	}
	if SlotBytes(49) != 128 {
		t.Fatalf("SlotBytes(49) = %d", SlotBytes(49))
	}
}

func TestNativeMatchesSimulatedOffsets(t *testing.T) {
	// The native and simulated queues must lay entries out identically.
	for _, d := range []Design{CWL, TwoLock} {
		n, err := NewNative(Config{DataBytes: 1 << 14, Design: d})
		if err != nil {
			t.Fatal(err)
		}
		m := exec.NewMachine(exec.Config{})
		s := m.SetupThread()
		q := MustNew(s, Config{DataBytes: 1 << 14, Design: d, Policy: core.PolicyEpoch})
		for i := uint64(0); i < 12; i++ {
			p := MakePayload(i, 100)
			if no, so := n.Insert(p), q.Insert(s, p); no != so {
				t.Fatalf("%v: native offset %d != simulated %d", d, no, so)
			}
		}
		if n.Head() != s.Load8(q.Meta().Head) {
			t.Fatalf("%v: heads differ", d)
		}
	}
}
