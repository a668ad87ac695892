package memory

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Image is a byte-accurate, sparse snapshot of the persistent address
// space. The recovery observer materializes an Image by replaying the
// subset of persists contained in a consistent cut of the persist-order
// DAG; recovery procedures then read the queue (or other structure) back
// out of the Image exactly as post-failure software would read NVRAM.
//
// Storage is a map of aligned 8-byte words; untouched words read as
// zero, matching NVRAM that was never written. Image is not safe for
// concurrent use.
//
// An Image additionally carries a *poison set*: words the simulated
// device reports as detectable-uncorrectable media errors (the ECC
// fired but could not correct). Reads of poisoned words still return
// the stored — possibly corrupted — bytes; fault-tolerant recovery
// routines consult Poisoned/RangePoisoned and must quarantine, not
// trust, such data. Silent media errors (flips the ECC misses) are
// modeled by FlipBit without a poison mark.
type Image struct {
	words  map[Addr]uint64
	poison map[Addr]struct{}

	// Optional access hooks (nil unless Observe was called). onRead
	// fires once per word loaded with the value returned; onWrite once
	// per word stored. The exhaustive checker uses them to memoize
	// recovery outcomes by the exact word set a recovery read.
	onRead  func(a Addr, v uint64)
	onWrite func(a Addr)
}

// NewImage returns an empty persistent-space snapshot.
func NewImage() *Image {
	return &Image{words: make(map[Addr]uint64)}
}

// Reset empties the image, dropping its words and poison marks but
// keeping its storage and hooks, so one Image can serve many
// recoveries in turn.
func (im *Image) Reset() {
	clear(im.words)
	clear(im.poison)
}

// Clone returns a deep copy of the image, poison marks included.
func (im *Image) Clone() *Image {
	c := NewImage()
	for a, w := range im.words {
		c.words[a] = w
	}
	if len(im.poison) > 0 {
		c.poison = make(map[Addr]struct{}, len(im.poison))
		for a := range im.poison {
			c.poison[a] = struct{}{}
		}
	}
	return c
}

// Observe installs word-granular access hooks: onRead fires once per
// word loaded (with the value returned), onWrite once per word stored.
// Either may be nil. Hooks are not copied by Clone. Observed reads see
// the image as recovery does — a read of a never-written word reports
// value zero.
func (im *Image) Observe(onRead func(a Addr, v uint64), onWrite func(a Addr)) {
	im.onRead = onRead
	im.onWrite = onWrite
}

// FlipBit inverts one bit of the byte at address a (bit in 0..7),
// modeling a media bit error. The word containing a need not have been
// written: never-written NVRAM can rot too.
func (im *Image) FlipBit(a Addr, bit uint8) {
	if bit > 7 {
		panic(fmt.Sprintf("memory: FlipBit bit %d out of range", bit))
	}
	w := AlignDown(a, WordSize)
	im.words[w] ^= 1 << (8*uint(a-w) + uint(bit))
}

// Poison marks the word containing a as a detectable-uncorrectable
// media error.
func (im *Image) Poison(a Addr) {
	if im.poison == nil {
		im.poison = make(map[Addr]struct{})
	}
	im.poison[AlignDown(a, WordSize)] = struct{}{}
}

// Poisoned reports whether the word containing a carries a detectable
// media error.
func (im *Image) Poisoned(a Addr) bool {
	_, ok := im.poison[AlignDown(a, WordSize)]
	return ok
}

// RangePoisoned reports whether any word overlapping [a, a+size)
// carries a detectable media error.
func (im *Image) RangePoisoned(a Addr, size int) bool {
	if len(im.poison) == 0 || size <= 0 {
		return false
	}
	for w := AlignDown(a, WordSize); w < a+Addr(size); w += WordSize {
		if _, ok := im.poison[w]; ok {
			return true
		}
	}
	return false
}

// PoisonedWords returns the number of words marked poisoned.
func (im *Image) PoisonedWords() int { return len(im.poison) }

// WriteWord stores an 8-byte value at an 8-byte-aligned persistent
// address. It panics on misalignment or a non-persistent address:
// persists are produced by the simulator, which must have validated
// them already.
func (im *Image) WriteWord(a Addr, v uint64) {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("memory: Image.WriteWord misaligned address %#x", uint64(a)))
	}
	if !IsPersistent(a) {
		panic(fmt.Sprintf("memory: Image.WriteWord to non-persistent address %#x", uint64(a)))
	}
	im.words[a] = v
	if im.onWrite != nil {
		im.onWrite(a)
	}
}

// ReadWord loads the 8-byte value at an aligned persistent address;
// never-written words read as zero.
func (im *Image) ReadWord(a Addr) uint64 {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("memory: Image.ReadWord misaligned address %#x", uint64(a)))
	}
	v := im.words[a]
	if im.onRead != nil {
		im.onRead(a, v)
	}
	return v
}

// WriteBytes stores an arbitrary byte range (read-modify-write of the
// covering words, in ascending order, each stored once). The simulator
// issues only word-sized persists, but recovery helpers and tests use
// byte granularity.
func (im *Image) WriteBytes(a Addr, b []byte) {
	for len(b) > 0 {
		w := AlignDown(a, WordSize)
		var buf [WordSize]byte
		binary.LittleEndian.PutUint64(buf[:], im.words[w])
		n := copy(buf[a-w:], b)
		im.words[w] = binary.LittleEndian.Uint64(buf[:])
		if im.onWrite != nil {
			im.onWrite(w)
		}
		a += Addr(n)
		b = b[n:]
	}
}

// ReadBytes fills b with the contents at address a, loading each
// covering word once, in ascending order.
func (im *Image) ReadBytes(a Addr, b []byte) {
	for len(b) > 0 {
		w := AlignDown(a, WordSize)
		word := im.words[w]
		var buf [WordSize]byte
		binary.LittleEndian.PutUint64(buf[:], word)
		n := copy(b, buf[a-w:])
		if im.onRead != nil {
			im.onRead(w, word)
		}
		a += Addr(n)
		b = b[n:]
	}
}

// WrittenWords returns the addresses of all explicitly written words in
// ascending order. Tests use it to compare images.
func (im *Image) WrittenWords() []Addr {
	out := make([]Addr, 0, len(im.words))
	for a := range im.words {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two images contain identical content (treating
// unwritten words as zero). Poison marks are metadata, not content, and
// are ignored.
func (im *Image) Equal(other *Image) bool {
	for a, w := range im.words {
		if other.words[a] != w {
			return false
		}
	}
	for a, w := range other.words {
		if im.words[a] != w {
			return false
		}
	}
	return true
}
