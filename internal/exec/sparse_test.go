package exec

import (
	"runtime"
	"testing"

	"repro/internal/memory"
)

// TestSparseFarAddresses pins the fix for the dense page index: stores
// scattered across the full 1 TiB persistent space must cost memory
// proportional to the pages actually touched. Under the old
// pages []*[pageWords]uint64 representation, the first store near the
// top of the space materialized a quarter-billion nil page slots (and
// appended them one at a time); with the sparse page table each address
// below costs exactly one 4 KiB page and a few index nodes.
func TestSparseFarAddresses(t *testing.T) {
	m := NewMachine(Config{Threads: 1})
	s := m.SetupThread()
	addrs := []memory.Addr{
		memory.PersistentBase,
		memory.PersistentBase + 1<<21,
		memory.PersistentBase + 1<<32, // 4 GiB in: beyond the old 1 GiB space
		memory.PersistentBase + 513<<30,
		memory.PersistentBase + memory.Addr(memory.PersistentSize) - memory.WordSize,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, a := range addrs {
		s.Store8(a, uint64(i)+1)
	}
	runtime.ReadMemStats(&after)
	// The stores allocate their pages plus a bounded page index: the
	// index for the top of the space is a few nodes and a top slice of
	// one pointer per 2^18 pages.
	const pageBytes = pageWords * memory.WordSize
	if idx := after.TotalAlloc - before.TotalAlloc - uint64(len(addrs))*pageBytes; idx > 256<<10 {
		t.Fatalf("far-page stores allocated %d index bytes beyond their pages, want <= %d", idx, 256<<10)
	}
	for i, a := range addrs {
		if got := s.Load8(a); got != uint64(i)+1 {
			t.Fatalf("addr %#x: got %d, want %d", uint64(a), got, i+1)
		}
	}
	// A word the sparse store never touched reads as zero, even between
	// resident pages.
	if got := s.Load8(memory.PersistentBase + 1<<35); got != 0 {
		t.Fatalf("untouched word reads %d, want 0", got)
	}

	ms := m.MemStats()
	if ms.PerPages != len(addrs) {
		t.Fatalf("resident pages %d, want %d (one per touched address)", ms.PerPages, len(addrs))
	}
	if ms.PerExtents != len(addrs) {
		t.Fatalf("resident extents %d, want %d (all pages disjoint)", ms.PerExtents, len(addrs))
	}
	if ms.PerBytes != uint64(len(addrs))*pageBytes {
		t.Fatalf("resident bytes %d, want %d", ms.PerBytes, uint64(len(addrs))*pageBytes)
	}

	// The final image contains exactly the touched words.
	im := m.PersistentImage()
	for i, a := range addrs {
		if got := im.ReadWord(a); got != uint64(i)+1 {
			t.Fatalf("image at %#x: got %d, want %d", uint64(a), got, i+1)
		}
	}

	// Touching a fresh far page allocates the page plus index bookkeeping
	// — a handful of allocations, not millions of slots.
	next := memory.PersistentBase + 800<<30
	n := testing.AllocsPerRun(1, func() {
		s.Store8(next, 7)
		next += pageBytes
	})
	if n > 8 {
		t.Fatalf("far-page store cost %v allocs, want a handful", n)
	}
}

// TestMemStatsExtents: adjacent pages merge into one extent.
func TestMemStatsExtents(t *testing.T) {
	m := NewMachine(Config{Threads: 1})
	s := m.SetupThread()
	const pageBytes = pageWords * memory.WordSize
	// Three adjacent pages, then a gap, then one more.
	for i := 0; i < 3; i++ {
		s.Store8(memory.PersistentBase+memory.Addr(i*pageBytes), 1)
	}
	s.Store8(memory.PersistentBase+100*pageBytes, 1)
	ms := m.MemStats()
	if ms.PerPages != 4 || ms.PerExtents != 2 {
		t.Fatalf("got %d pages in %d extents, want 4 in 2", ms.PerPages, ms.PerExtents)
	}
	if ms.VolPages != 0 || ms.VolExtents != 0 {
		t.Fatalf("volatile space unexpectedly resident: %+v", ms)
	}
}
