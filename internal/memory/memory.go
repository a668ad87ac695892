// Package memory models the simulated machine's address spaces.
//
// The paper assumes a system that "provides both volatile and persistent
// address spaces" (§2.1). We model both as ranges of a single 64-bit
// simulated address space. Nothing in this package stores data; it only
// defines addressing, alignment, and block arithmetic used by the trace,
// execution, and persistency-simulation layers, plus a heap allocator
// (persistent malloc/free is one of the annotations the paper's tracing
// framework records, §7) and Image, a byte-accurate snapshot of the
// persistent space used to materialize post-crash states.
package memory

import "fmt"

// Addr is a simulated memory address. Addresses are byte-granular.
type Addr uint64

// Space identifies which address space an address belongs to.
type Space uint8

const (
	// Unmapped marks addresses outside both simulated spaces.
	Unmapped Space = iota
	// Volatile is the DRAM-like space: contents are lost on failure.
	Volatile
	// Persistent is the NVRAM space: stores to it are persists.
	Persistent
)

// String returns the conventional lower-case name of the space.
func (s Space) String() string {
	switch s {
	case Volatile:
		return "volatile"
	case Persistent:
		return "persistent"
	default:
		return "unmapped"
	}
}

// Address-space layout. The bases are arbitrary but far apart; keeping
// them fixed makes traces reproducible and lets tools classify addresses
// without carrying a layout around.
const (
	// VolatileBase is the first address of the volatile space.
	VolatileBase Addr = 0x0000_0000_1000_0000
	// VolatileSize is the extent of the volatile space.
	VolatileSize uint64 = 1 << 30
	// PersistentBase is the first address of the persistent space.
	PersistentBase Addr = 0x0000_0001_0000_0000
	// PersistentSize is the extent of the persistent space: 1 TiB, far
	// more than any workload materializes. Every per-address store is
	// a sparse page table (Pages), so memory cost is proportional to
	// *touched* data and a huge space is free; it exists so workloads
	// can spread structures across distant addresses the way real NVRAM
	// mappings do.
	PersistentSize uint64 = 1 << 40
)

// WordSize is the machine word size in bytes. The paper assumes NVRAM
// "persists atomically to at least eight-byte (pointer-sized) blocks"
// (§8.2); eight bytes is also the minimum persist and tracking
// granularity throughout.
const WordSize = 8

// SpaceOf classifies an address.
func SpaceOf(a Addr) Space {
	switch {
	case a >= VolatileBase && uint64(a-VolatileBase) < VolatileSize:
		return Volatile
	case a >= PersistentBase && uint64(a-PersistentBase) < PersistentSize:
		return Persistent
	default:
		return Unmapped
	}
}

// IsPersistent reports whether a lies in the persistent address space.
func IsPersistent(a Addr) bool { return SpaceOf(a) == Persistent }

// IsVolatile reports whether a lies in the volatile address space.
func IsVolatile(a Addr) bool { return SpaceOf(a) == Volatile }

// AlignDown rounds a down to a multiple of align, which must be a power
// of two.
func AlignDown(a Addr, align uint64) Addr {
	return a &^ Addr(align-1)
}

// AlignUp rounds a up to a multiple of align, which must be a power of
// two.
func AlignUp(a Addr, align uint64) Addr {
	return (a + Addr(align-1)) &^ Addr(align-1)
}

// IsPowerOfTwo reports whether v is a positive power of two.
func IsPowerOfTwo(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// BlockID identifies an aligned block of a given granularity. Block ids
// of different granularities live in different namespaces; callers must
// not mix them.
type BlockID uint64

// NoBlock is a sentinel BlockID meaning "no block" (used by persist
// contexts to mean a dependence that has no single source block).
const NoBlock BlockID = ^BlockID(0)

// BlockOf maps an address to its enclosing block id at granularity gran
// (a power of two ≥ WordSize).
func BlockOf(a Addr, gran uint64) BlockID {
	return BlockID(uint64(a) / gran)
}

// BlockBase returns the first address of block b at granularity gran.
func BlockBase(b BlockID, gran uint64) Addr {
	return Addr(uint64(b) * gran)
}

// BlockSpan returns the ids of the first and last blocks (inclusive) at
// granularity gran touched by the byte range [a, a+size).
func BlockSpan(a Addr, size int, gran uint64) (first, last BlockID) {
	if size <= 0 {
		b := BlockOf(a, gran)
		return b, b
	}
	return BlockOf(a, gran), BlockOf(a+Addr(size)-1, gran)
}

// CheckRange validates that [a, a+size) lies entirely within one address
// space and does not wrap. It returns the space on success.
func CheckRange(a Addr, size int) (Space, error) {
	if size <= 0 {
		return Unmapped, fmt.Errorf("memory: non-positive access size %d at %#x", size, uint64(a))
	}
	s := SpaceOf(a)
	if s == Unmapped {
		return Unmapped, fmt.Errorf("memory: access to unmapped address %#x", uint64(a))
	}
	end := a + Addr(size) - 1
	if SpaceOf(end) != s {
		return Unmapped, fmt.Errorf("memory: access [%#x,%#x] crosses out of the %s space", uint64(a), uint64(end), s)
	}
	return s, nil
}
