package durable

import (
	"hash/crc64"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/memory"
)

func TestCDBConstantsDerivation(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	if got := crc64.Checksum([]byte("0"), tab); got != CDBFalse {
		t.Fatalf("CDBFalse = %#x, crc64(\"0\") = %#x", CDBFalse, got)
	}
	if got := crc64.Checksum([]byte("1"), tab); got != CDBTrue {
		t.Fatalf("CDBTrue = %#x, crc64(\"1\") = %#x", CDBTrue, got)
	}
	if d := bits.OnesCount64(CDBFalse ^ CDBTrue); d < 16 {
		t.Fatalf("CDB constants Hamming distance %d — too close for corruption detection", d)
	}
}

func TestDecodeCDB(t *testing.T) {
	cases := []struct {
		name    string
		v       uint64
		val, ok bool
	}{
		{"false constant", CDBFalse, false, true},
		{"true constant", CDBTrue, true, true},
		{"zero", 0, false, false},
		{"all ones", ^uint64(0), false, false},
		{"false with one flipped bit", CDBFalse ^ (1 << 17), false, false},
		{"true with one flipped bit", CDBTrue ^ (1 << 63), false, false},
		{"plain boolean 1", 1, false, false},
	}
	for _, c := range cases {
		val, ok := DecodeCDB(c.v)
		if val != c.val || ok != c.ok {
			t.Errorf("%s: DecodeCDB(%#x) = (%v, %v), want (%v, %v)", c.name, c.v, val, ok, c.val, c.ok)
		}
	}
}

// sealImage seals one frame on a fresh machine and returns the image
// and the frame's base address.
func sealImage(t *testing.T, salt uint64, payload []byte) (*memory.Image, memory.Addr) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	base := s.MallocPersistent(int(FrameBytes(len(payload))), memory.WordSize)
	SealFrame(s, base, salt, payload)
	return m.PersistentImage(), base
}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 64, 100} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		im, base := sealImage(t, uint64(n)*13, payload)
		got, ok := OpenFrame(im, base, uint64(n)*13, 1<<20)
		if !ok {
			t.Fatalf("len %d: sealed frame did not open", n)
		}
		if string(got) != string(payload) {
			t.Fatalf("len %d: payload mismatch", n)
		}
	}
}

func TestFrameAdversarial(t *testing.T) {
	const salt = 42
	payload := make([]byte, 24)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	cases := []struct {
		name string
		mut  func(im *memory.Image, base memory.Addr)
	}{
		{"torn exactly at the CRC word", func(im *memory.Image, base memory.Addr) {
			// The crash cut the CRC persist: the word still holds its
			// pre-write value (zero on fresh media).
			im.WriteWord(base+memory.Addr(CRCOffset(len(payload))), 0)
		}},
		{"flip in the length field", func(im *memory.Image, base memory.Addr) {
			im.FlipBit(base, 3)
		}},
		{"length zeroed (frame never started)", func(im *memory.Image, base memory.Addr) {
			im.WriteWord(base, 0)
		}},
		{"length implausibly large", func(im *memory.Image, base memory.Addr) {
			im.WriteWord(base, 1<<40)
		}},
		{"single payload bit flip", func(im *memory.Image, base memory.Addr) {
			im.FlipBit(base+frameHeaderBytes+5, 6)
		}},
		{"single CRC bit flip", func(im *memory.Image, base memory.Addr) {
			im.FlipBit(base+memory.Addr(CRCOffset(len(payload))), 0)
		}},
	}
	for _, c := range cases {
		im, base := sealImage(t, salt, payload)
		c.mut(im, base)
		if _, ok := OpenFrame(im, base, salt, 1<<20); ok {
			t.Errorf("%s: corrupted frame opened", c.name)
		}
	}
	// Wrong salt: the same bytes must not validate at another logical
	// position (stale-era defense).
	im, base := sealImage(t, salt, payload)
	if _, ok := OpenFrame(im, base, salt+1, 1<<20); ok {
		t.Error("frame opened under the wrong salt")
	}
}

func TestChecksumProperty(t *testing.T) {
	f := func(salt uint64, data []byte, flip uint16) bool {
		if len(data) == 0 {
			return true
		}
		c := Checksum(salt, data)
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[int(flip)%len(mut)] ^= 1 << (flip % 8)
		return Checksum(salt, mut) != c && Checksum(salt+1, data) != c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// wordImage stores a sequence of values through a durable Word and
// returns the final image and word.
func wordImage(t *testing.T, vals ...uint64) (*memory.Image, Word) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	w := NewWord(s, 0)
	for _, v := range vals {
		w.Store(s, v, true)
	}
	return m.PersistentImage(), w
}

func TestWordRoundTrip(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	w := NewWord(s, 7)
	if got := w.Load(s); got != 7 {
		t.Fatalf("Load after init = %d", got)
	}
	for i := uint64(8); i < 16; i++ {
		w.Store(s, i, true)
		if got := w.Load(s); got != i {
			t.Fatalf("Load after Store(%d) = %d", i, got)
		}
	}
	r := ReadWord(m.PersistentImage(), w.Base)
	if !r.OK || r.Val != 15 || detected(r) {
		t.Fatalf("recovery read = %+v, want clean 15", r)
	}
}

func TestWordAdversarial(t *testing.T) {
	cases := []struct {
		name     string
		mut      func(im *memory.Image, w Word)
		wantOK   bool
		wantVal  uint64
		detected bool
	}{
		{"clean", func(im *memory.Image, w Word) {}, true, 5, false},
		{"cdb bit flip falls back to a valid copy", func(im *memory.Image, w Word) {
			im.FlipBit(w.Base+offCDB, 5)
		}, true, 5, true},
		{"active copy value flip falls back to previous value", func(im *memory.Image, w Word) {
			// After storing 4 then 5 the active copy holds 5; corrupting
			// it must surface 4, not trust the rot.
			im.FlipBit(w.Base+activeValOff(im, w), 2)
		}, true, 4, true},
		{"active copy CRC flip falls back", func(im *memory.Image, w Word) {
			im.FlipBit(w.Base+activeValOff(im, w)+8, 2)
		}, true, 4, true},
		{"cdb corrupt with both copies valid prefers the larger", func(im *memory.Image, w Word) {
			im.WriteWord(w.Base+offCDB, 0xdead)
		}, true, 5, true},
		{"both copies corrupt is unrecoverable but detected", func(im *memory.Image, w Word) {
			im.FlipBit(w.Base+offAVal, 1)
			im.FlipBit(w.Base+offBVal, 1)
		}, false, 0, true},
		{"poisoned cdb falls back to copies", func(im *memory.Image, w Word) {
			im.Poison(w.Base + offCDB)
		}, true, 5, true},
		{"poisoned active copy falls back", func(im *memory.Image, w Word) {
			im.Poison(w.Base + activeValOff(im, w))
		}, true, 4, true},
	}
	for _, c := range cases {
		im, w := wordImage(t, 4, 5)
		c.mut(im, w)
		r := ReadWord(im, w.Base)
		if r.OK != c.wantOK || (r.OK && r.Val != c.wantVal) || detected(r) != c.detected {
			t.Errorf("%s: ReadWord = %+v, want ok=%v val=%d detected=%v",
				c.name, r, c.wantOK, c.wantVal, c.detected)
		}
	}
}

// detected reports whether r's detections mark a recovery report
// detected once absorbed, the only way recovery consumes them.
func detected(r WordRead) bool {
	var rep fault.RecoveryReport
	r.Absorb(&rep, "word")
	return rep.Detected()
}

// activeValOff returns the value offset of the currently active copy.
func activeValOff(im *memory.Image, w Word) memory.Addr {
	if b, ok := DecodeCDB(im.ReadWord(w.Base + offCDB)); ok && b {
		return offBVal
	}
	return offAVal
}

func TestWordAbsorb(t *testing.T) {
	im, w := wordImage(t, 4, 5)
	im.FlipBit(w.Base+offCDB, 3)
	im.FlipBit(w.Base+activeValOff(im, w), 1) // cdb now invalid; flip copy A too
	var rep fault.RecoveryReport
	ReadWord(im, w.Base).Absorb(&rep, "head")
	if !rep.Detected() || !rep.DetectedByIntegrity() {
		t.Fatalf("report %v not marked detected", rep.String())
	}
	if rep.CDBDetected == 0 {
		t.Fatalf("report %v missing CDB detection", rep.String())
	}
	if len(rep.Notes) == 0 {
		t.Fatal("no notes recorded")
	}
}

func TestWordStoreStrictEmitsNoBarriers(t *testing.T) {
	// Under strict persistency the store recipe must not add barriers;
	// count trace ops indirectly by comparing op counts.
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	w := NewWord(s, 0)
	before := m.Ops()
	w.Store(s, 1, false)
	strictOps := m.Ops() - before
	before = m.Ops()
	w.Store(s, 2, true)
	relaxedOps := m.Ops() - before
	if relaxedOps != strictOps+2 {
		t.Fatalf("relaxed store %d ops, strict %d — want exactly 2 extra barriers", relaxedOps, strictOps)
	}
}

func TestFrameBytesLayout(t *testing.T) {
	cases := []struct {
		payload int
		crcOff  uint64
		total   uint64
	}{
		{1, 16, 24},
		{8, 16, 24},
		{9, 24, 32},
		{16, 24, 32},
		{80, 88, 96},
	}
	for _, c := range cases {
		if got := CRCOffset(c.payload); got != c.crcOff {
			t.Errorf("CRCOffset(%d) = %d, want %d", c.payload, got, c.crcOff)
		}
		if got := FrameBytes(c.payload); got != c.total {
			t.Errorf("FrameBytes(%d) = %d, want %d", c.payload, got, c.total)
		}
	}
}
