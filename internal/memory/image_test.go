package memory

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func TestImageWordRoundTrip(t *testing.T) {
	im := NewImage()
	a := PersistentBase + 128
	im.WriteWord(a, 0xdeadbeefcafef00d)
	if got := im.ReadWord(a); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadWord = %#x", got)
	}
	if got := im.ReadWord(a + 8); got != 0 {
		t.Fatalf("unwritten word should read zero, got %#x", got)
	}
}

func TestImageMisalignedPanics(t *testing.T) {
	im := NewImage()
	defer func() {
		if recover() == nil {
			t.Error("misaligned WriteWord should panic")
		}
	}()
	im.WriteWord(PersistentBase+4, 1)
}

func TestImageNonPersistentPanics(t *testing.T) {
	im := NewImage()
	defer func() {
		if recover() == nil {
			t.Error("WriteWord to volatile space should panic")
		}
	}()
	im.WriteWord(VolatileBase, 1)
}

func TestImageBytes(t *testing.T) {
	im := NewImage()
	a := PersistentBase + 3 // deliberately unaligned
	src := []byte("memory persistency!")
	im.WriteBytes(a, src)
	dst := make([]byte, len(src))
	im.ReadBytes(a, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("byte round trip: %q != %q", dst, src)
	}
}

func TestImageBytesPreserveNeighbors(t *testing.T) {
	im := NewImage()
	base := PersistentBase + 64
	im.WriteWord(base, 0x1111111111111111)
	im.WriteBytes(base+2, []byte{0xff})
	var buf [8]byte
	im.ReadBytes(base, buf[:])
	want := [8]byte{0x11, 0x11, 0xff, 0x11, 0x11, 0x11, 0x11, 0x11}
	if buf != want {
		t.Fatalf("neighbor bytes clobbered: % x", buf)
	}
}

func TestImageCloneAndEqual(t *testing.T) {
	im := NewImage()
	im.WriteWord(PersistentBase, 7)
	c := im.Clone()
	if !im.Equal(c) {
		t.Fatal("clone should be equal")
	}
	c.WriteWord(PersistentBase+8, 9)
	if im.Equal(c) {
		t.Fatal("diverged clone should not be equal")
	}
	// Zero-valued explicit writes equal implicit zeros.
	d := NewImage()
	d.WriteWord(PersistentBase+16, 0)
	if !d.Equal(NewImage()) {
		t.Fatal("explicit zero should equal unwritten zero")
	}
}

func TestImageWrittenWordsSorted(t *testing.T) {
	im := NewImage()
	im.WriteWord(PersistentBase+24, 1)
	im.WriteWord(PersistentBase+8, 1)
	im.WriteWord(PersistentBase+16, 1)
	ws := im.WrittenWords()
	for i := 1; i < len(ws); i++ {
		if ws[i-1] >= ws[i] {
			t.Fatalf("WrittenWords unsorted: %v", ws)
		}
	}
	if len(ws) != 3 {
		t.Fatalf("want 3 words, got %d", len(ws))
	}
}

func TestImageFlipBit(t *testing.T) {
	im := NewImage()
	a := PersistentBase + 40
	im.WriteWord(a, 0)
	im.FlipBit(a+3, 5) // byte 3, bit 5
	if got, want := im.ReadWord(a), uint64(1)<<(8*3+5); got != want {
		t.Fatalf("FlipBit: got %#x want %#x", got, want)
	}
	im.FlipBit(a+3, 5) // flipping twice restores
	if got := im.ReadWord(a); got != 0 {
		t.Fatalf("double flip should restore zero, got %#x", got)
	}
	// Flipping an unwritten word materializes it.
	im.FlipBit(PersistentBase+1024, 0)
	if got := im.ReadWord(PersistentBase + 1024); got != 1 {
		t.Fatalf("flip of unwritten word: got %#x", got)
	}
}

func TestImagePoison(t *testing.T) {
	im := NewImage()
	a := PersistentBase + 64
	if im.Poisoned(a) || im.RangePoisoned(a, 64) {
		t.Fatal("fresh image should not be poisoned")
	}
	im.Poison(a + 5) // marks the containing word
	if !im.Poisoned(a) {
		t.Fatal("word containing poisoned byte should report poisoned")
	}
	if im.Poisoned(a + 8) {
		t.Fatal("neighbor word should not be poisoned")
	}
	if !im.RangePoisoned(a-16, 24) {
		t.Fatal("range overlapping the poisoned word should report poisoned")
	}
	if im.RangePoisoned(a-16, 16) {
		t.Fatal("range short of the poisoned word should be clean")
	}
	if im.PoisonedWords() != 1 {
		t.Fatalf("PoisonedWords = %d", im.PoisonedWords())
	}
	// Clone carries poison; Equal ignores it.
	c := im.Clone()
	if !c.Poisoned(a) {
		t.Fatal("clone should carry poison marks")
	}
	if !c.Equal(im) {
		t.Fatal("poison marks must not affect Equal")
	}
}

// Property: WriteBytes then ReadBytes is identity for any offset/content.
func TestImageByteProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		if len(data) == 0 {
			return true
		}
		im := NewImage()
		a := PersistentBase + Addr(off)
		im.WriteBytes(a, data)
		out := make([]byte, len(data))
		im.ReadBytes(a, out)
		return bytes.Equal(data, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// access is one hook call: a word loaded (with its value) or stored.
type access struct {
	write bool
	addr  Addr
	val   uint64
}

// record installs hooks on im that append every access to *log.
func record(im *Image, log *[]access) {
	im.Observe(func(a Addr, v uint64) {
		*log = append(*log, access{addr: a, val: v})
	}, func(a Addr) {
		*log = append(*log, access{write: true, addr: a})
	})
}

// writeBytesPerByte and readBytesPerByte are the byte-at-a-time
// loops WriteBytes and ReadBytes once were, kept as the oracle for
// their word-at-a-time forms.
func writeBytesPerByte(im *Image, a Addr, b []byte) {
	last := Addr(1) // impossible word address (words are 8-aligned)
	for i := 0; i < len(b); i++ {
		addr := a + Addr(i)
		w := AlignDown(addr, WordSize)
		var buf [WordSize]byte
		binary.LittleEndian.PutUint64(buf[:], im.words[w])
		buf[addr-w] = b[i]
		im.words[w] = binary.LittleEndian.Uint64(buf[:])
		if im.onWrite != nil && w != last {
			im.onWrite(w)
			last = w
		}
	}
}

func readBytesPerByte(im *Image, a Addr, b []byte) {
	last := Addr(1)
	for i := 0; i < len(b); i++ {
		addr := a + Addr(i)
		w := AlignDown(addr, WordSize)
		word := im.words[w]
		var buf [WordSize]byte
		binary.LittleEndian.PutUint64(buf[:], word)
		b[i] = buf[addr-w]
		if im.onRead != nil && w != last {
			im.onRead(w, word)
			last = w
		}
	}
}

// Property: on any range, aligned or not and within one word or across
// several, WriteBytes and ReadBytes leave the same words, return the
// same bytes and fire the same hook sequence as the per-byte loops.
func TestImageBytesMatchPerByte(t *testing.T) {
	f := func(seed []uint64, off uint8, data []byte) bool {
		if len(data) > 40 {
			data = data[:40]
		}
		base := PersistentBase + 256
		a := base + Addr(off%64)
		got, want := NewImage(), NewImage()
		for i, v := range seed {
			if i == 12 {
				break
			}
			got.WriteWord(base+Addr(8*i), v)
			want.WriteWord(base+Addr(8*i), v)
		}
		var gotLog, wantLog []access
		record(got, &gotLog)
		record(want, &wantLog)
		gotBuf, wantBuf := make([]byte, len(data)+5), make([]byte, len(data)+5)
		got.ReadBytes(a, gotBuf)
		readBytesPerByte(want, a, wantBuf)
		got.WriteBytes(a+3, data)
		writeBytesPerByte(want, a+3, data)
		got.ReadBytes(a+1, gotBuf[:len(data)])
		readBytesPerByte(want, a+1, wantBuf[:len(data)])
		return bytes.Equal(gotBuf, wantBuf) && reflect.DeepEqual(gotLog, wantLog) && reflect.DeepEqual(got.words, want.words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Random bytes almost never zero a whole word; a zero write over
	// unwritten words must still store them.
	for _, off := range []uint8{0, 5, 8} {
		if !f(nil, off, make([]byte, 20)) {
			t.Errorf("zero bytes at offset %d differ from the per-byte loop", off)
		}
	}
}

func TestImageReset(t *testing.T) {
	im := NewImage()
	a := PersistentBase + 64
	im.WriteWord(a, 7)
	im.WriteBytes(a+13, []byte{1, 2, 3})
	im.Poison(a + 8)
	var log []access
	record(im, &log)
	im.Reset()
	if ws := im.WrittenWords(); len(ws) != 0 {
		t.Errorf("words after Reset: %v", ws)
	}
	if im.PoisonedWords() != 0 || im.Poisoned(a+8) || im.RangePoisoned(a, 64) {
		t.Error("poison marks survived Reset")
	}
	if v := im.ReadWord(a); v != 0 {
		t.Errorf("ReadWord after Reset = %#x, want 0", v)
	}
	if want := []access{{addr: a}}; !reflect.DeepEqual(log, want) {
		t.Errorf("hooks after Reset saw %v, want %v", log, want)
	}
	if !im.Equal(NewImage()) {
		t.Error("a reset image differs from a new one")
	}
}
