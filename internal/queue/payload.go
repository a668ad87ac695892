package queue

// Checksum and deterministic payload generation. Entries carry an
// FNV-1a checksum bound to the entry's monotonic queue offset, so
// recovery distinguishes a fully persisted entry from stale or
// partially persisted bytes — the mechanical check behind the paper's
// recovery-correctness argument.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Checksum hashes the entry's monotonic offset, length, and payload.
func Checksum(offset uint64, payload []byte) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	mix(offset)
	mix(uint64(len(payload)))
	for _, b := range payload {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// MakePayload produces a deterministic payload of the given size for
// insert id — an xorshift stream seeded by the id, so tests and
// recovery can regenerate and compare entry contents exactly.
func MakePayload(id uint64, size int) []byte {
	return FillPayload(make([]byte, size), id)
}

// FillPayload writes insert id's payload, MakePayload's bytes for
// len(buf), over buf and returns it. Insert copies a payload into the
// heap, so a caller can refill one buffer for each insert.
func FillPayload(buf []byte, id uint64) []byte {
	x := id*2654435761 + 0x9e3779b97f4a7c15
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}
