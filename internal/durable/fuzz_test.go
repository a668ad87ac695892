package durable

import (
	"bytes"
	"testing"

	"repro/internal/exec"
	"repro/internal/memory"
)

// The fuzz targets pin the integrity layer's safety property against
// arbitrary single-byte corruption: a mutated frame or durable word
// must never be returned as valid-but-wrong. Payloads and stored
// values derive pseudorandomly from the fuzzed seed rather than being
// fuzzer-controlled bytes, so the fuzzer cannot plant a CRC preimage
// and then "corrupt" it into a colliding sibling — it can only search
// over placements, which is the attack surface recovery actually
// faces.

// fuzzPayload expands a seed into n pseudorandom bytes (xorshift64).
func fuzzPayload(seed uint64, n int) []byte {
	b := make([]byte, n)
	x := seed | 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// FuzzOpenFrame seals one CRC frame, applies a single-byte XOR
// anywhere in the frame, and checks OpenFrame's contract: a mutation
// of any checked byte (length, payload, CRC) is detected — ok false —
// and the only mutations that may still open are no-ops and bytes in
// the pad gap between the payload tail and the CRC word, which the
// codec never trusts. Whenever ok is returned, the payload must be
// byte-identical to what was sealed.
func FuzzOpenFrame(f *testing.F) {
	f.Add(uint64(1), uint16(24), uint32(0), byte(1))
	f.Add(uint64(7), uint16(1), uint32(8), byte(0x80))
	f.Add(uint64(42), uint16(100), uint32(9), byte(0xff))
	f.Add(uint64(3), uint16(8), uint32(15), byte(4))
	f.Fuzz(func(t *testing.T, seed uint64, plen uint16, mutOff uint32, mutXor byte) {
		n := int(plen)%512 + 1
		payload := fuzzPayload(seed, n)
		salt := seed * 0x9e3779b97f4a7c15

		m := exec.NewMachine(exec.Config{})
		s := m.SetupThread()
		base := s.MallocPersistent(int(FrameBytes(n)), memory.WordSize)
		SealFrame(s, base, salt, payload)
		im := m.PersistentImage()

		off := memory.Addr(uint64(mutOff) % FrameBytes(n))
		var cell [1]byte
		im.ReadBytes(base+off, cell[:])
		cell[0] ^= mutXor
		im.WriteBytes(base+off, cell[:])

		got, ok := OpenFrame(im, base, salt, 1<<16)
		padGap := uint64(off) >= uint64(frameHeaderBytes+n) && uint64(off) < CRCOffset(n)
		if ok {
			if !bytes.Equal(got, payload) {
				t.Fatalf("frame opened with wrong payload (off %d xor %#x)", off, mutXor)
			}
			if mutXor != 0 && !padGap {
				t.Fatalf("mutated checked byte at offset %d (xor %#x) still opened", off, mutXor)
			}
		} else if mutXor == 0 {
			t.Fatalf("unmutated frame failed to open (len %d salt %#x)", n, salt)
		}
		if _, wok := OpenFrame(im, base, salt+1, 1<<16); wok {
			t.Fatalf("frame opened under the wrong salt")
		}
	})
}

// FuzzWordRead drives two committed Stores through a durable word,
// applies a single-byte XOR anywhere in the 40-byte footprint, and
// checks ReadWord's contract: the word never bricks (some copy always
// validates), the recovered value is one of the two committed values,
// and — the CDB-constant property — corruption is silent only when it
// is harmless: no detection evidence means the read returned the
// latest committed value.
func FuzzWordRead(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint32(0), byte(1))
	f.Add(uint64(5), uint64(5), uint32(8), byte(0x10))
	f.Add(uint64(9), uint64(3), uint32(39), byte(0xff))
	f.Fuzz(func(t *testing.T, v1, v2 uint64, mutOff uint32, mutXor byte) {
		m := exec.NewMachine(exec.Config{})
		s := m.SetupThread()
		w := NewWord(s, 0)
		w.Store(s, v1, true)
		w.Store(s, v2, true)
		im := m.PersistentImage()

		off := memory.Addr(uint64(mutOff) % WordBytes)
		var cell [1]byte
		im.ReadBytes(w.Base+off, cell[:])
		cell[0] ^= mutXor
		im.WriteBytes(w.Base+off, cell[:])

		r := ReadWord(im, w.Base)
		if !r.OK {
			t.Fatalf("single-byte corruption at offset %d (xor %#x) bricked the word", off, mutXor)
		}
		if r.Val != v1 && r.Val != v2 {
			t.Fatalf("recovered %d, want one of the committed values %d/%d (off %d xor %#x)",
				r.Val, v1, v2, off, mutXor)
		}
		if !detected(r) && r.Val != v2 {
			t.Fatalf("silent corruption: no detection evidence but value %d != latest %d (off %d xor %#x)",
				r.Val, v2, off, mutXor)
		}
	})
}
